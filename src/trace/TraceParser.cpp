//===- trace/TraceParser.cpp - Plain-text trace parsing --------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceParser.h"
#include "util/StringUtil.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

using namespace kast;

Expected<std::optional<TraceEvent>>
kast::parseTraceLine(std::string_view Line) {
  using Result = Expected<std::optional<TraceEvent>>;

  // Strip trailing comment, then walk whitespace-separated fields.
  size_t Hash = Line.find('#');
  if (Hash != std::string_view::npos)
    Line = Line.substr(0, Hash);
  size_t Cursor = 0;
  auto NextField = [&]() {
    while (Cursor < Line.size() &&
           std::isspace(static_cast<unsigned char>(Line[Cursor])))
      ++Cursor;
    size_t Start = Cursor;
    while (Cursor < Line.size() &&
           !std::isspace(static_cast<unsigned char>(Line[Cursor])))
      ++Cursor;
    return Line.substr(Start, Cursor - Start);
  };
  std::string_view OpField = NextField();
  if (OpField.empty())
    return Result(std::nullopt);
  std::string_view HandleField = NextField();
  if (HandleField.empty())
    return Result::error("expected '<op> <handle> [fields...]'");

  TraceEvent Event;
  Event.Op.assign(OpField);
  for (char &C : Event.Op)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (Event.Op.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_+") !=
      std::string::npos)
    return Result::error("malformed operation name '" + std::string(OpField) +
                         "'");

  std::optional<uint64_t> Handle = parseUnsigned(HandleField);
  if (!Handle)
    return Result::error("malformed handle '" + std::string(HandleField) +
                         "'");
  Event.Handle = *Handle;

  bool SawBytes = false;
  for (std::string_view Field = NextField(); !Field.empty();
       Field = NextField()) {
    if (startsWith(Field, "bytes=")) {
      std::optional<uint64_t> Bytes = parseUnsigned(Field.substr(6));
      if (!Bytes)
        return Result::error("malformed byte count '" + std::string(Field) +
                             "'");
      Event.Bytes = *Bytes;
      SawBytes = true;
      continue;
    }
    if (startsWith(Field, "addr=")) {
      std::optional<uint64_t> Addr = parseHex(Field.substr(5));
      if (!Addr)
        return Result::error("malformed address '" + std::string(Field) +
                             "'");
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
    return Result::error("unrecognized field '" + std::string(Field) + "'");
  }
  return Result(std::optional<TraceEvent>(std::move(Event)));
}

Expected<Trace> kast::parseTrace(std::string_view Text, std::string Name) {
  Trace Out(std::move(Name));
  Out.events().reserve(std::count(Text.begin(), Text.end(), '\n') + 1);
  size_t LineNumber = 0;
  for (size_t Start = 0, End = 0; Start <= Text.size(); Start = End + 1) {
    End = std::min(Text.find('\n', Start), Text.size());
    ++LineNumber;
    Expected<std::optional<TraceEvent>> Parsed =
        parseTraceLine(Text.substr(Start, End - Start));
    if (!Parsed)
      return Expected<Trace>::error("line " + std::to_string(LineNumber) +
                                    ": " + Parsed.message());
    if (*Parsed)
      Out.append(std::move(**Parsed));
  }
  return Out;
}

Expected<Trace> kast::parseTraceFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Expected<Trace>::error("cannot open '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  // Use the basename as the trace name.
  size_t Slash = Path.find_last_of('/');
  std::string Name =
      Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  return parseTrace(Buffer.str(), Name);
}
