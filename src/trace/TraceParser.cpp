//===- trace/TraceParser.cpp - Plain-text trace parsing --------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceParser.h"
#include "util/StringUtil.h"

#include <algorithm>
#include <array>

using namespace kast;

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

} // namespace

Expected<Trace> kast::parseTrace(std::string_view Text, std::string Name) {
  using Result = Expected<Trace>;
  Trace Out(std::move(Name));
  Out.events().reserve(countNewlines(Text) + 1);
  size_t LineNumber = 0;
  auto Fail = [&](const std::string &Why) {
    return Result::error("line " + std::to_string(LineNumber) + ": " + Why);
  };
  for (size_t Start = 0, End = 0; Start <= Text.size(); Start = End + 1) {
    End = std::min(Text.find('\n', Start), Text.size());
    ++LineNumber;
    // Walk whitespace-separated fields; a '#' ends the line.
    const std::string_view Line = Text.substr(Start, End - Start);
    size_t Cursor = 0;
    auto NextField = [&]() {
      while (Cursor < Line.size() && isAsciiSpace(Line[Cursor]))
        ++Cursor;
      size_t Begin = Cursor;
      while (Cursor < Line.size() && !isAsciiSpace(Line[Cursor]) &&
             Line[Cursor] != '#')
        ++Cursor;
      return Line.substr(Begin, Cursor - Begin);
    };
    std::string_view OpField = NextField();
    if (OpField.empty())
      continue;
    std::string_view HandleField = NextField();
    if (HandleField.empty())
      return Fail("expected '<op> <handle> [fields...]'");

    TraceEvent &Event = Out.events().emplace_back();
    Event.Op.resize(OpField.size());
    for (size_t I = 0; I < OpField.size(); ++I) {
      Event.Op[I] = OpNameChars[static_cast<unsigned char>(OpField[I])];
      if (Event.Op[I] == 0)
        return Fail("malformed operation name '" + std::string(OpField) +
                    "'");
    }

    std::optional<uint64_t> Handle = parseUnsigned(HandleField);
    if (!Handle)
      return Fail("malformed handle '" + std::string(HandleField) + "'");
    Event.Handle = *Handle;

    bool SawBytes = false;
    for (std::string_view Field = NextField(); !Field.empty();
         Field = NextField()) {
      if (startsWith(Field, "bytes=")) {
        std::optional<uint64_t> Bytes = parseUnsigned(Field.substr(6));
        if (!Bytes)
          return Fail("malformed byte count '" + std::string(Field) + "'");
        Event.Bytes = *Bytes;
        SawBytes = true;
        continue;
      }
      if (startsWith(Field, "addr=")) {
        std::optional<uint64_t> Addr = parseHex(Field.substr(5));
        if (!Addr)
          return Fail("malformed address '" + std::string(Field) + "'");
        Event.Address = *Addr;
        continue;
      }
      // Bare decimal: positional byte count, once.
      std::optional<uint64_t> Bytes = parseUnsigned(Field);
      if (Bytes && !SawBytes) {
        Event.Bytes = *Bytes;
        SawBytes = true;
        continue;
      }
      return Fail("unrecognized field '" + std::string(Field) + "'");
    }
  }
  return Out;
}
