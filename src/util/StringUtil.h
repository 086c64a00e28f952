//===- util/StringUtil.h - Small string helpers ----------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String splitting, trimming, joining, and integer parsing helpers
/// shared by the trace parser and the serializers.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_UTIL_STRINGUTIL_H
#define KAST_UTIL_STRINGUTIL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace kast {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep; empty fields are kept.
std::vector<std::string_view> split(std::string_view S, char Sep);

/// Splits \p S on runs of ASCII whitespace; no empty fields.
std::vector<std::string_view> splitWhitespace(std::string_view S);

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 std::string_view Sep);

/// Parses a non-negative decimal integer; rejects junk and overflow.
std::optional<uint64_t> parseUnsigned(std::string_view S);

/// Parses a hexadecimal integer with optional 0x prefix.
std::optional<uint64_t> parseHex(std::string_view S);

/// \returns true if \p S starts with \p Prefix.
bool startsWith(std::string_view S, std::string_view Prefix);

/// \returns true if \p S ends with \p Suffix.
bool endsWith(std::string_view S, std::string_view Suffix);

} // namespace kast

#endif // KAST_UTIL_STRINGUTIL_H
