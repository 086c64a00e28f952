//===- trace/StraceAdapter.cpp - strace output ingestion -------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/StraceAdapter.h"
#include "util/StringUtil.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

using namespace kast;

namespace {

/// One decoded strace line; every view points into the line.
struct StraceCall {
  std::string_view Syscall;
  /// The first top-level argument, trimmed; nullopt for an empty list.
  std::optional<std::string_view> FirstArgument;
  enum { NoReturn, Returned, OutOfRange } Return = NoReturn;
  int64_t ReturnValue = 0;
};

/// The first argument of a list split at top-level commas (quotes and
/// nesting respected well enough for strace's renderings).
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

/// Decodes a trimmed "name(args) = ret ..." line into a StraceCall;
/// nullopt for lines that are not complete syscall records (signals,
/// unfinished halves).
std::optional<StraceCall> decodeLine(std::string_view Line) {
  // Optional leading PID or timestamp columns: strip leading digits,
  // dots and colons followed by whitespace, repeatedly.
  while (!Line.empty() &&
         (std::isdigit(static_cast<unsigned char>(Line[0])))) {
    size_t I = 0;
    while (I < Line.size() &&
           (std::isdigit(static_cast<unsigned char>(Line[I])) ||
            Line[I] == '.' || Line[I] == ':'))
      ++I;
    if (I < Line.size() && std::isspace(static_cast<unsigned char>(Line[I])))
      Line = trim(Line.substr(I));
    else
      break;
  }
  // The "<... read resumed>" half of a split call fails this test too.
  if (Line.empty() || !std::isalpha(static_cast<unsigned char>(Line[0])) ||
      endsWith(Line, "<unfinished ...>"))
    return std::nullopt;

  size_t Open = Line.find('(');
  if (Open == std::string_view::npos)
    return std::nullopt;
  StraceCall Call;
  Call.Syscall = trim(Line.substr(0, Open));

  // Find the matching close parenthesis from the right: strace puts
  // " = ret" after it.
  size_t Eq = Line.rfind(" = ");
  size_t Close = Line.rfind(')', Eq == std::string_view::npos
                                     ? std::string_view::npos
                                     : Eq);
  if (Close == std::string_view::npos || Close < Open)
    return std::nullopt;
  Call.FirstArgument = firstArgument(Line.substr(Open + 1, Close - Open - 1));

  if (Eq != std::string_view::npos) {
    std::string_view Ret = trim(Line.substr(Eq + 3));
    // Return value is the first whitespace-delimited field; may be
    // negative or "-1 ENOENT (...)" or "?".
    size_t End = 0;
    while (End < Ret.size() &&
           !std::isspace(static_cast<unsigned char>(Ret[End])))
      ++End;
    std::string_view Value = Ret.substr(0, End);
    bool Negative = !Value.empty() && Value[0] == '-';
    if (Negative)
      Value.remove_prefix(1);
    // The magnitude must fit int64_t: 2^63 - 1, or 2^63 when negative.
    std::optional<uint64_t> Parsed = parseUnsigned(Value);
    if (Parsed && *Parsed <= (uint64_t(1) << 63) - !Negative) {
      Call.ReturnValue = static_cast<int64_t>(Negative ? 0 - *Parsed : *Parsed);
      Call.Return = StraceCall::Returned;
    } else if (!Value.empty() && Value.find_first_not_of("0123456789") ==
                                     std::string_view::npos) {
      Call.Return = StraceCall::OutOfRange;
    }
  }
  return Call;
}

/// The file-I/O syscalls parseStrace keeps, and the operation each
/// becomes.
struct IoSyscall {
  std::string_view Name;
  OpKind Kind;
};
constexpr IoSyscall IoSyscalls[] = {
    {"open", OpKind::Open},     {"openat", OpKind::Open},
    {"creat", OpKind::Open},    {"read", OpKind::Read},
    {"pread", OpKind::Read},    {"pread64", OpKind::Read},
    {"write", OpKind::Write},   {"pwrite", OpKind::Write},
    {"pwrite64", OpKind::Write}, {"lseek", OpKind::Lseek},
    {"llseek", OpKind::Lseek},  {"_llseek", OpKind::Lseek},
    {"fsync", OpKind::Fsync},   {"fdatasync", OpKind::Fsync},
    {"close", OpKind::Close},
};

/// Matches \p Syscall case-insensitively against IoSyscalls.
std::optional<OpKind> classifySyscall(std::string_view Syscall) {
  for (const IoSyscall &S : IoSyscalls)
    if (std::ranges::equal(S.Name, Syscall, [](char Lower, char C) {
          return Lower == std::tolower(static_cast<unsigned char>(C));
        }))
      return S.Kind;
  return std::nullopt;
}

/// Parses a decimal file descriptor argument ("3" or "3</path>").
std::optional<uint64_t> parseFd(std::string_view Argument) {
  size_t End = 0;
  while (End < Argument.size() &&
         std::isdigit(static_cast<unsigned char>(Argument[End])))
    ++End;
  if (End == 0)
    return std::nullopt;
  return parseUnsigned(Argument.substr(0, End));
}

} // namespace

Expected<Trace> kast::parseStrace(std::string_view Text, std::string Name,
                                  StraceStats *Stats) {
  using Result = Expected<Trace>;
  Trace Out(std::move(Name));
  Out.events().reserve(std::count(Text.begin(), Text.end(), '\n') + 1);
  StraceStats Local;

  size_t LineNumber = 0;
  auto Fail = [&](const std::string &Why) {
    return Result::error("line " + std::to_string(LineNumber) + ": " + Why);
  };
  for (size_t Start = 0, End = 0; Start <= Text.size(); Start = End + 1) {
    End = std::min(Text.find('\n', Start), Text.size());
    std::string_view Line = trim(Text.substr(Start, End - Start));
    ++LineNumber;
    if (Line.empty())
      continue;
    ++Local.LinesTotal;

    std::optional<StraceCall> Call = decodeLine(Line);
    std::optional<OpKind> Kind =
        Call ? classifySyscall(Call->Syscall) : std::nullopt;
    if (!Kind) {
      ++Local.LinesSkipped;
      continue;
    }
    if (Call->Return == StraceCall::OutOfRange)
      return Fail("return value outside int64_t");
    const bool HasReturn = Call->Return == StraceCall::Returned;
    if (HasReturn && Call->ReturnValue < 0) {
      ++Local.CallsFailed;
      continue;
    }

    TraceEvent Event(*Kind, 0);
    if (*Kind == OpKind::Open) {
      if (!HasReturn)
        return Fail("open call without return value");
      Event.Handle = static_cast<uint64_t>(Call->ReturnValue);
    } else {
      if (!Call->FirstArgument)
        return Fail("missing file descriptor argument");
      std::optional<uint64_t> Fd = parseFd(*Call->FirstArgument);
      if (!Fd)
        return Fail("malformed file descriptor '" +
                    std::string(*Call->FirstArgument) + "'");
      Event.Handle = *Fd;
      if ((*Kind == OpKind::Read || *Kind == OpKind::Write) && HasReturn)
        Event.Bytes = static_cast<uint64_t>(Call->ReturnValue);
    }
    Out.append(std::move(Event));
    ++Local.EventsEmitted;
  }

  if (Stats)
    *Stats = Local;
  return Out;
}

Expected<Trace> kast::parseStraceFile(const std::string &Path,
                                      StraceStats *Stats) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Expected<Trace>::error("cannot open '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  size_t Slash = Path.find_last_of('/');
  std::string Name =
      Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  return parseStrace(Buffer.str(), Name, Stats);
}
