//===- trace/TraceParser.cpp - Plain-text trace parsing --------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceParser.h"
#include "trace/TraceScan.h"
#include "util/StringUtil.h"

#include <array>
#include <bit>
#include <cstring>

using namespace kast;
using detail::ChunkBytes;
using detail::ChunkMasks;

namespace {

/// The lower-case form of each byte an operation name may hold
/// ([A-Za-z0-9_+]), and 0 for every other byte.
constexpr std::array<char, 256> OpNameChars = [] {
  std::array<char, 256> Table{};
  for (char C = 'a'; C <= 'z'; ++C) {
    Table[static_cast<unsigned char>(C)] = C;
    Table[static_cast<unsigned char>(C - 'a' + 'A')] = C;
  }
  for (char C = '0'; C <= '9'; ++C)
    Table[static_cast<unsigned char>(C)] = C;
  Table['_'] = '_';
  Table['+'] = '+';
  return Table;
}();

/// Bytes the scan steps over at a time: two chunks, so that a trace line
/// (about 20 bytes) takes one step.
constexpr size_t StepBytes = 2 * ChunkBytes;

/// The masks of the two chunks at \p Base of \p Text (Base <=
/// Text.size()), joined into 32 bits. Bytes past the end read as '\n',
/// so the last line ends at the end of the text and no load leaves it.
ChunkMasks classifyAt(std::string_view Text, size_t Base) {
  auto Join = [](const char *Bytes) {
    const ChunkMasks Lo = detail::classifyChunk(Bytes);
    const ChunkMasks Hi = detail::classifyChunk(Bytes + ChunkBytes);
    return ChunkMasks{Lo.Space | Hi.Space << 16, Lo.Hash | Hi.Hash << 16,
                      Lo.Newline | Hi.Newline << 16,
                      Lo.Digit | Hi.Digit << 16};
  };
  if (Text.size() - Base >= StepBytes)
    return Join(Text.data() + Base);
  char Tail[StepBytes];
  std::memset(Tail, '\n', StepBytes);
  if (Text.size() > Base)
    std::memcpy(Tail, Text.data() + Base, Text.size() - Base);
  return Join(Tail);
}

/// The value of the decimal digits Text[Begin, End), or nullopt if it
/// overflows uint64_t. At most 19 digits stay below 10^19, so they
/// convert without an overflow test.
std::optional<uint64_t> decimalValue(std::string_view Text, size_t Begin,
                                     size_t End) {
  const size_t Length = End - Begin;
  if (Length > 19)
    return parseUnsigned(Text.substr(Begin, Length));
  uint64_t Value = 0;
  for (size_t I = Begin; I < End; ++I)
    Value = Value * 10 + static_cast<uint64_t>(Text[I] - '0');
  return Value;
}

} // namespace

Expected<Trace> kast::parseTrace(std::string_view Text, std::string Name) {
  using Result = Expected<Trace>;
  Trace Out(std::move(Name));
  Out.events().reserve(countNewlines(Text) + 1);
  size_t LineNumber = 0;
  auto Fail = [&](const std::string &Why) {
    return Result::error("line " + std::to_string(LineNumber) + ": " + Why);
  };
  auto Quoted = [&](size_t Begin, size_t End) {
    return " '" + std::string(Text.substr(Begin, End - Begin)) + "'";
  };
  for (size_t At = 0; At <= Text.size();) {
    ++LineNumber;
    // The line is classified two chunks at a time from its first byte. A
    // field is a run of word bytes (neither space nor '#'); it starts
    // at a word byte after a non-word byte and ends at the next
    // non-word byte. The first '#' or '\n' ends the fields, so the
    // field edges up to it are read off the masks, lowest first.
    TraceEvent *Event = nullptr;
    size_t Fields = 0, FieldBegin = 0, OpBegin = 0, OpEnd = 0;
    // The last byte before the step that is not a digit: a field's
    // digits are the run after the last non-digit byte before its end.
    // Only the fields after the op read it, and a non-word byte of the
    // line comes before each of them, so its start value is never read.
    size_t LastNonDigit = At;
    bool InField = false, SawBytes = false;
    size_t Base = At;
    uint32_t Stops = 0, Newlines = 0;
    for (;; Base += StepBytes) {
      const ChunkMasks M = classifyAt(Text, Base);
      const uint32_t NonWord = M.Space | M.Hash;
      const uint32_t Word = ~NonWord;
      const uint32_t NonDigit = ~M.Digit;
      const uint32_t WordBefore = (Word << 1) | uint32_t(InField);
      Stops = M.Hash | M.Newline;
      Newlines = M.Newline;
      uint32_t Edges = ((Word & ~WordBefore) | (NonWord & WordBefore)) &
                       (Stops ^ (Stops - 1));
      for (; Edges; Edges &= Edges - 1) {
        const unsigned Bit = static_cast<unsigned>(std::countr_zero(Edges));
        if (!InField) {
          FieldBegin = Base + Bit;
          InField = true;
          continue;
        }
        InField = false;
        const size_t FieldEnd = Base + Bit;
        const size_t Index = Fields++;
        if (Index == 0) {
          OpBegin = FieldBegin;
          OpEnd = FieldEnd;
          continue;
        }
        const uint32_t NonDigitBefore = NonDigit & ((1u << Bit) - 1);
        const size_t DigitsBegin =
            NonDigitBefore
                ? Base + static_cast<size_t>(32 - std::countl_zero(NonDigitBefore))
                : LastNonDigit + 1;
        if (Index == 1) {
          Event = &Out.events().emplace_back();
          Event->Op.assign(Text.data() + OpBegin, OpEnd - OpBegin);
          bool Malformed = false;
          for (char &C : Event->Op) {
            C = OpNameChars[static_cast<unsigned char>(C)];
            Malformed |= C == 0;
          }
          if (Malformed)
            return Fail("malformed operation name" + Quoted(OpBegin, OpEnd));
          std::optional<uint64_t> Handle;
          if (DigitsBegin != FieldBegin ||
              !(Handle = decimalValue(Text, DigitsBegin, FieldEnd)))
            return Fail("malformed handle" + Quoted(FieldBegin, FieldEnd));
          Event->Handle = *Handle;
          continue;
        }
        const std::string_view Field =
            Text.substr(FieldBegin, FieldEnd - FieldBegin);
        if (startsWith(Field, "bytes=")) {
          std::optional<uint64_t> Bytes;
          if (DigitsBegin != FieldBegin + 6 || DigitsBegin == FieldEnd ||
              !(Bytes = decimalValue(Text, DigitsBegin, FieldEnd)))
            return Fail("malformed byte count" + Quoted(FieldBegin, FieldEnd));
          Event->Bytes = *Bytes;
          SawBytes = true;
          continue;
        }
        if (startsWith(Field, "addr=")) {
          std::optional<uint64_t> Addr = parseHex(Field.substr(5));
          if (!Addr)
            return Fail("malformed address" + Quoted(FieldBegin, FieldEnd));
          Event->Address = *Addr;
          continue;
        }
        // Bare decimal: positional byte count, once.
        std::optional<uint64_t> Bytes;
        if (DigitsBegin != FieldBegin || SawBytes ||
            !(Bytes = decimalValue(Text, DigitsBegin, FieldEnd)))
          return Fail("unrecognized field" + Quoted(FieldBegin, FieldEnd));
        Event->Bytes = *Bytes;
        SawBytes = true;
      }
      if (Stops)
        break;
      if (NonDigit)
        LastNonDigit =
            Base + static_cast<size_t>(31 - std::countl_zero(NonDigit));
    }
    if (Fields == 1)
      return Fail("expected '<op> <handle> [fields...]'");
    // Past a '#' the line runs on to its newline.
    Newlines &= ~0u << std::countr_zero(Stops);
    while (Newlines == 0) {
      Base += StepBytes;
      Newlines = classifyAt(Text, Base).Newline;
    }
    At = Base + static_cast<size_t>(std::countr_zero(Newlines)) + 1;
  }
  return Out;
}
