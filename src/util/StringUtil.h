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

/// ASCII whitespace: space, \t, \n, \v, \f and \r, the set
/// std::isspace gives in the "C" locale (KAST never calls setlocale),
/// without a library call per byte.
inline bool isAsciiSpace(char C) {
  return C == ' ' || static_cast<unsigned char>(C - '\t') <= '\r' - '\t';
}

/// ASCII decimal digit.
inline bool isAsciiDigit(char C) {
  return static_cast<unsigned char>(C - '0') <= 9;
}

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep; empty fields are kept.
std::vector<std::string_view> split(std::string_view S, char Sep);

/// Splits \p S on runs of ASCII whitespace; no empty fields.
std::vector<std::string_view> splitWhitespace(std::string_view S);

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 std::string_view Sep);

/// Parses the decimal digits that open \p S and sets \p End to the
/// index after them. \returns their value; nullopt when there are none
/// or they overflow uint64_t.
inline std::optional<uint64_t> parseUnsignedPrefix(std::string_view S,
                                                   size_t &End) {
  uint64_t Value = 0;
  bool Overflow = false;
  for (End = 0; End < S.size() && isAsciiDigit(S[End]); ++End) {
    const uint64_t Digit = static_cast<uint64_t>(S[End] - '0');
    Overflow |= Value > (~0ULL - Digit) / 10;
    Value = Value * 10 + Digit;
  }
  if (End == 0 || Overflow)
    return std::nullopt;
  return Value;
}

/// Parses a non-negative decimal integer; rejects junk and overflow.
inline std::optional<uint64_t> parseUnsigned(std::string_view S) {
  size_t End = 0;
  std::optional<uint64_t> Value = parseUnsignedPrefix(S, End);
  return End == S.size() ? Value : std::nullopt;
}

/// Parses a hexadecimal integer with optional 0x prefix.
std::optional<uint64_t> parseHex(std::string_view S);

/// The number of '\n' bytes in \p S.
size_t countNewlines(std::string_view S);

/// \returns true if \p S starts with \p Prefix.
bool startsWith(std::string_view S, std::string_view Prefix);

/// \returns true if \p S ends with \p Suffix.
bool endsWith(std::string_view S, std::string_view Suffix);

} // namespace kast

#endif // KAST_UTIL_STRINGUTIL_H
