//===- util/StringUtil.cpp - Small string helpers -------------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "util/StringUtil.h"

#include <algorithm>

using namespace kast;

std::string_view kast::trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && isAsciiSpace(S[Begin]))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && isAsciiSpace(S[End - 1]))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string_view> kast::split(std::string_view S, char Sep) {
  std::vector<std::string_view> Fields;
  size_t Start = 0;
  for (size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == Sep) {
      Fields.push_back(S.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Fields;
}

std::vector<std::string_view> kast::splitWhitespace(std::string_view S) {
  std::vector<std::string_view> Fields;
  size_t I = 0;
  while (I < S.size()) {
    while (I < S.size() && isAsciiSpace(S[I]))
      ++I;
    size_t Start = I;
    while (I < S.size() && !isAsciiSpace(S[I]))
      ++I;
    if (I > Start)
      Fields.push_back(S.substr(Start, I - Start));
  }
  return Fields;
}

std::string kast::join(const std::vector<std::string> &Parts,
                       std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out.append(Sep);
    Out.append(Parts[I]);
  }
  return Out;
}

std::optional<uint64_t> kast::parseHex(std::string_view S) {
  if (startsWith(S, "0x") || startsWith(S, "0X"))
    S.remove_prefix(2);
  if (S.empty() || S.size() > 16)
    return std::nullopt;
  uint64_t Value = 0;
  for (char C : S) {
    uint64_t Digit;
    if (C >= '0' && C <= '9')
      Digit = static_cast<uint64_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Digit = static_cast<uint64_t>(C - 'a') + 10;
    else if (C >= 'A' && C <= 'F')
      Digit = static_cast<uint64_t>(C - 'A') + 10;
    else
      return std::nullopt;
    Value = (Value << 4) | Digit;
  }
  return Value;
}

size_t kast::countNewlines(std::string_view S) {
  // Counted in blocks of 255 bytes into a byte-wide sum, a loop
  // compilers vectorize; std::count is a byte at a time at -O3 on GCC
  // 12, which made the count a tenth of parseStrace's time.
  size_t Count = 0;
  for (size_t I = 0; I < S.size();) {
    const size_t BlockEnd = std::min(S.size(), I + 255);
    unsigned char Block = 0;
    for (; I < BlockEnd; ++I)
      Block += S[I] == '\n';
    Count += Block;
  }
  return Count;
}

bool kast::startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() &&
         S.compare(0, Prefix.size(), Prefix) == 0;
}

bool kast::endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}
