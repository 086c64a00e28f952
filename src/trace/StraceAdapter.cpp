//===- trace/StraceAdapter.cpp - strace output ingestion -------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/StraceAdapter.h"
#include "util/StringUtil.h"

#include <algorithm>

using namespace kast;

namespace {

bool isAsciiLetter(char C) {
  return static_cast<unsigned char>((C | 0x20) - 'a') < 26;
}

bool isNameChar(char C) {
  return isAsciiLetter(C) || isAsciiDigit(C) || C == '_';
}

/// The longest I/O syscall name, "fdatasync".
constexpr size_t MaxIoNameSize = 9;

/// The operation the file-I/O syscall \p Name (lower case) becomes;
/// nullopt for every other syscall.
std::optional<OpKind> ioOperation(std::string_view Name) {
  switch (Name.size()) {
  case 4:
    if (Name == "open")
      return OpKind::Open;
    if (Name == "read")
      return OpKind::Read;
    break;
  case 5:
    if (Name == "creat")
      return OpKind::Open;
    if (Name == "pread")
      return OpKind::Read;
    if (Name == "write")
      return OpKind::Write;
    if (Name == "lseek")
      return OpKind::Lseek;
    if (Name == "fsync")
      return OpKind::Fsync;
    if (Name == "close")
      return OpKind::Close;
    break;
  case 6:
    if (Name == "openat")
      return OpKind::Open;
    if (Name == "pwrite")
      return OpKind::Write;
    if (Name == "llseek")
      return OpKind::Lseek;
    break;
  case 7:
    if (Name == "pread64")
      return OpKind::Read;
    if (Name == "_llseek")
      return OpKind::Lseek;
    break;
  case 8:
    if (Name == "pwrite64")
      return OpKind::Write;
    break;
  case 9:
    if (Name == "fdatasync")
      return OpKind::Fsync;
    break;
  }
  return std::nullopt;
}

/// The index in \p Line (trimmed, not empty) after its leading PID and
/// timestamp columns: an optional "[pid N]", then runs of digits, '.'
/// and ':', each column followed by whitespace.
size_t columnsEnd(std::string_view Line) {
  size_t I = 0;
  if (startsWith(Line, "[pid ")) {
    size_t J = 5;
    while (J < Line.size() && Line[J] == ' ')
      ++J;
    const size_t Digits = J;
    while (J < Line.size() && isAsciiDigit(Line[J]))
      ++J;
    if (J > Digits && J + 1 < Line.size() && Line[J] == ']' &&
        isAsciiSpace(Line[J + 1])) {
      I = J + 1;
      while (isAsciiSpace(Line[I]))
        ++I;
    }
  }
  while (isAsciiDigit(Line[I])) {
    size_t J = I;
    while (J < Line.size() &&
           (isAsciiDigit(Line[J]) || Line[J] == '.' || Line[J] == ':'))
      ++J;
    if (J == Line.size() || !isAsciiSpace(Line[J]))
      break;
    // The line ends in a non-blank, so this stops inside it.
    while (isAsciiSpace(Line[J]))
      ++J;
    I = J;
  }
  return I;
}

/// Unfinished calls of a log without a PID column share this slot.
constexpr uint64_t NoPid = ~0ULL;

/// The PID that opens \p Line (trimmed, not empty): the N of "[pid N]",
/// or a first column of digits alone (strace -f -o); else NoPid.
uint64_t pidOf(std::string_view Line) {
  size_t Begin = 0;
  if (startsWith(Line, "[pid ")) {
    Begin = 5;
    while (Begin < Line.size() && Line[Begin] == ' ')
      ++Begin;
  }
  size_t End = 0;
  std::optional<uint64_t> Pid = parseUnsignedPrefix(Line.substr(Begin), End);
  const char After = Begin + End < Line.size() ? Line[Begin + End] : '\0';
  if (Pid && (Begin == 0 ? isAsciiSpace(After) : After == ']'))
    return *Pid;
  return NoPid;
}

/// Reads the syscall name at \p Begin of \p Line, lower cased, into
/// \p Lower and \returns the index after it. Only the first
/// MaxIoNameSize bytes are read: a longer name is left unfinished, and
/// so never classifies.
size_t readName(std::string_view Line, size_t Begin,
                char (&Lower)[MaxIoNameSize], std::string_view &Name) {
  size_t End = Begin;
  for (; End < Line.size() && End - Begin < MaxIoNameSize &&
         isNameChar(Line[End]);
       ++End)
    Lower[End - Begin] = isAsciiLetter(Line[End])
                             ? static_cast<char>(Line[End] | 0x20)
                             : Line[End];
  Name = std::string_view(Lower, End - Begin);
  return End;
}

/// Reads the return value that opens \p Field, the text after " = ".
/// \returns false for a decimal integer outside int64_t; otherwise
/// true, with \p Value set to a decimal integer that fits and left
/// empty for anything else ("?", "0x7f1a").
bool parseReturn(std::string_view Field, std::optional<int64_t> &Value) {
  size_t Begin = 0;
  while (Begin < Field.size() && isAsciiSpace(Field[Begin]))
    ++Begin;
  const bool Negative = Begin < Field.size() && Field[Begin] == '-';
  Field.remove_prefix(Begin + Negative);
  size_t End = 0;
  std::optional<uint64_t> Magnitude = parseUnsignedPrefix(Field, End);
  // The value is the whole first blank-delimited field, or nothing.
  if (End == 0 || (End < Field.size() && !isAsciiSpace(Field[End])))
    return true;
  // The magnitude must fit int64_t: 2^63 - 1, or 2^63 when negative.
  if (!Magnitude || *Magnitude > (uint64_t(1) << 63) - !Negative)
    return false;
  Value = static_cast<int64_t>(Negative ? 0 - *Magnitude : *Magnitude);
  return true;
}

/// The first argument of a list split at top-level commas (quotes and
/// nesting respected well enough for strace's renderings), trimmed;
/// nullopt for an empty list. Only error messages need it.
std::optional<std::string_view> firstArgument(std::string_view Args) {
  int Depth = 0;
  bool InString = false;
  for (size_t I = 0; I < Args.size(); ++I) {
    char C = Args[I];
    if (InString) {
      if (C == '\\' && I + 1 < Args.size())
        ++I;
      else if (C == '"')
        InString = false;
    } else if (C == '"') {
      InString = true;
    } else if (C == '(' || C == '[' || C == '{') {
      ++Depth;
    } else if (C == ')' || C == ']' || C == '}') {
      --Depth;
    } else if (C == ',' && Depth == 0) {
      return trim(Args.substr(0, I));
    }
  }
  std::string_view Only = trim(Args);
  if (Only.empty())
    return std::nullopt;
  return Only;
}

} // namespace

Expected<Trace> kast::parseStrace(std::string_view Text, std::string Name,
                                  StraceStats *Stats) {
  using Result = Expected<Trace>;
  Trace Out(std::move(Name));
  Out.events().reserve(countNewlines(Text) + 1);
  StraceStats Local;

  // The first half of an I/O call strace split across lines, held per
  // PID until its "<... NAME resumed>" line; allocates only when a log
  // splits a call.
  struct Unfinished {
    uint64_t Pid;
    OpKind Kind;
    char Lower[MaxIoNameSize];
    size_t NameSize;
    std::string_view Args; ///< From after '(' to the marker.
  };
  std::vector<Unfinished> Pending;

  size_t LineNumber = 0;
  auto Fail = [&](const std::string &Why) {
    return Result::error("line " + std::to_string(LineNumber) + ": " + Why);
  };
  for (size_t Start = 0, End = 0; Start <= Text.size(); Start = End + 1) {
    End = std::min(Text.find('\n', Start), Text.size());
    ++LineNumber;
    size_t Begin = Start, Stop = End;
    while (Begin < Stop && isAsciiSpace(Text[Begin]))
      ++Begin;
    while (Stop > Begin && isAsciiSpace(Text[Stop - 1]))
      --Stop;
    if (Begin == Stop)
      continue;
    ++Local.LinesTotal;
    const std::string_view Line = Text.substr(Begin, Stop - Begin);

    // Classify the syscall name first: it must be one of the I/O
    // spellings, followed (blanks aside) by its argument list.
    const size_t NameBegin = columnsEnd(Line);
    char Lower[MaxIoNameSize] = {};
    std::string_view Syscall;
    size_t Open = readName(Line, NameBegin, Lower, Syscall);
    while (Open < Line.size() && isAsciiSpace(Line[Open]))
      ++Open;
    std::optional<OpKind> Kind;
    if (Open < Line.size() && Line[Open] == '(')
      Kind = ioOperation(Syscall);
    // Rest is the call's text after its '(', or after the "resumed>"
    // that continues it; Head, the argument text its first half held.
    std::string_view Rest, Head;
    if (Kind) {
      constexpr std::string_view Marker = "<unfinished ...>";
      if (endsWith(Line, Marker)) {
        // The first half of a split call: held for its other half, and
        // counted as skipped either way.
        const uint64_t Pid = pidOf(Line);
        Unfinished U{Pid, *Kind, {}, Syscall.size(),
                     Line.substr(Open + 1,
                                 Line.size() - Marker.size() - Open - 1)};
        std::ranges::copy(Syscall, U.Lower);
        auto Same = std::ranges::find(Pending, Pid, &Unfinished::Pid);
        if (Same != Pending.end())
          *Same = U; // A thread waits in one call at a time.
        else
          Pending.push_back(U);
        ++Local.LinesSkipped;
        continue;
      }
      Rest = Line.substr(Open + 1);
    } else if (Line[NameBegin] == '<' &&
               Line.substr(NameBegin).starts_with("<... ")) {
      // "<... NAME resumed>" completes the call its PID left unfinished.
      const size_t NameEnd = readName(Line, NameBegin + 5, Lower, Syscall);
      const uint64_t Pid = pidOf(Line);
      auto Held = std::ranges::find_if(Pending, [&](const Unfinished &U) {
        return U.Pid == Pid &&
               Syscall == std::string_view(U.Lower, U.NameSize);
      });
      if (Held != Pending.end() &&
          Line.substr(NameEnd).starts_with(" resumed>")) {
        Kind = Held->Kind;
        Head = Held->Args;
        Rest = Line.substr(NameEnd + 9);
        Pending.erase(Held);
      }
    }
    if (!Kind) {
      ++Local.LinesSkipped;
      continue;
    }

    // strace puts " = ret" after the argument list's closing
    // parenthesis; both are found from the line's end. With no ')'
    // before the last " = ", that " = " lies inside the arguments (a
    // quoted string), and the call printed no return value.
    size_t Eq = Rest.rfind(" = ");
    size_t Close = Rest.rfind(')', Eq);
    if (Close == std::string_view::npos && Eq != std::string_view::npos) {
      Close = Rest.rfind(')');
      Eq = std::string_view::npos;
    }
    if (Close == std::string_view::npos) {
      ++Local.LinesSkipped;
      continue;
    }
    std::optional<int64_t> Return;
    if (Eq != std::string_view::npos &&
        !parseReturn(Rest.substr(Eq + 3), Return))
      return Fail("return value outside int64_t");
    if (Return && *Return < 0) {
      ++Local.CallsFailed;
      continue;
    }

    uint64_t Handle = 0, Bytes = 0;
    if (*Kind == OpKind::Open) {
      if (!Return)
        return Fail("open call without return value");
      Handle = static_cast<uint64_t>(*Return);
    } else {
      // The descriptor is the digits that open the argument list ("3"
      // or "3</path>"), in the first half of a split call unless that
      // half holds only blanks.
      const bool HeadHasArgs =
          std::ranges::any_of(Head, [](char C) { return !isAsciiSpace(C); });
      const std::string_view Args = HeadHasArgs ? Head : Rest.substr(0, Close);
      size_t Fd = 0, Digits = 0;
      while (Fd < Args.size() && isAsciiSpace(Args[Fd]))
        ++Fd;
      std::optional<uint64_t> Parsed =
          parseUnsignedPrefix(Args.substr(Fd), Digits);
      if (!Parsed) {
        std::optional<std::string_view> Argument = firstArgument(Args);
        if (!Argument)
          return Fail("missing file descriptor argument");
        return Fail("malformed file descriptor '" + std::string(*Argument) +
                    "'");
      }
      Handle = *Parsed;
      if ((*Kind == OpKind::Read || *Kind == OpKind::Write) && Return)
        Bytes = static_cast<uint64_t>(*Return);
    }
    Out.events().emplace_back(*Kind, Handle, Bytes);
    ++Local.EventsEmitted;
  }

  if (Stats)
    *Stats = Local;
  return Out;
}
