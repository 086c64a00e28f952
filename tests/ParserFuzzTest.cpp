//===- tests/ParserFuzzTest.cpp - deterministic parser fuzzing -------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// A mutation fuzzer for every reader of untrusted bytes: the trace and
// strace parsers, the Mini-language lexer and parser, and the flat
// image reader. Each has a libFuzzer-shaped entry point, fuzzOne, that
// checks the reader's invariants on one input. A util/Rng-seeded
// mutator drives it for a fixed budget, so every run sees the same
// inputs; the sanitizer build turns the same run into a memory-safety
// check. parseTrace, which reads its text 16 bytes at a time, is also
// held to a reference decoder that walks the same grammar a byte at a
// time, on inputs shaped around its 16-byte chunks and 32-byte steps.
//
//===----------------------------------------------------------------------===//

#include "ast/AstEncoder.h"
#include "ast/Lexer.h"
#include "ast/Parser.h"
#include "core/FlatImage.h"
#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "trace/StraceAdapter.h"
#include "trace/TraceParser.h"
#include "trace/TraceScan.h"
#include "trace/TraceWriter.h"
#include "util/Hashing.h"
#include "util/StringUtil.h"
#include "workloads/ParallelTrace.h"

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>

using namespace kast;

namespace {

std::string_view asText(const uint8_t *Data, size_t Size) {
  return {reinterpret_cast<const char *>(Data), Size};
}

namespace trace_parser {
/// A parsed document round-trips through formatTrace; a rejected one
/// names its line.
int fuzzOne(const uint8_t *Data, size_t Size) {
  Expected<Trace> T = parseTrace(asText(Data, Size), "fuzz");
  if (!T) {
    EXPECT_EQ(T.message().rfind("line ", 0), 0u) << T.message();
    return 0;
  }
  Expected<Trace> Back = parseTrace(formatTrace(*T), "fuzz");
  EXPECT_TRUE(Back.hasValue());
  if (Back) {
    EXPECT_EQ(Back->events(), T->events());
  }
  return 0;
}
} // namespace trace_parser

namespace reference_trace {
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

/// The byte-at-a-time decoder parseTrace replaced, kept as its oracle:
/// lines split at '\n', whitespace-separated fields walked with a
/// cursor, a '#' ending the line, numbers through the overflow-checked
/// parseUnsigned.
Expected<Trace> parseTrace(std::string_view Text, std::string Name) {
  using Result = Expected<Trace>;
  Trace Out(std::move(Name));
  size_t LineNumber = 0;
  auto Fail = [&](const std::string &Why) {
    return Result::error("line " + std::to_string(LineNumber) + ": " + Why);
  };
  for (size_t Start = 0, End = 0; Start <= Text.size(); Start = End + 1) {
    End = std::min(Text.find('\n', Start), Text.size());
    ++LineNumber;
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

/// parseTrace gives the reference decoder's events or its error message.
/// The input is copied into an allocation of exactly its size, so under
/// ASan a load past the end of the text fails the run.
int fuzzOne(const uint8_t *Data, size_t Size) {
  const std::unique_ptr<char[]> Exact(new char[Size]);
  if (Size > 0)
    std::memcpy(Exact.get(), Data, Size);
  const std::string_view Text(Exact.get(), Size);
  Expected<Trace> Want = parseTrace(Text, "fuzz");
  Expected<Trace> Got = kast::parseTrace(Text, "fuzz");
  EXPECT_EQ(Got.hasValue(), Want.hasValue()) << Text;
  if (Got && Want) {
    EXPECT_EQ(Got->events(), Want->events()) << Text;
  } else if (!Got && !Want) {
    EXPECT_EQ(Got.message(), Want.message()) << Text;
  }
  return 0;
}

/// Inputs shaped around parseTrace's 16-byte chunks and 32-byte steps:
/// lines of 15 to 33 and 64 and more bytes, fields across a chunk or
/// step edge, 19- and 20-digit numbers, every space byte, '#' against a
/// field, and no final '\n'.
std::vector<std::string> chunkEdgeSeeds() {
  std::vector<std::string> Seeds;
  for (size_t Length : {15, 16, 17, 31, 32, 33, 64, 65, 100}) {
    // "read 1 bytes=" then digits, and a run of blanks before "open 1".
    const std::string Head = "read 1 bytes=";
    Seeds.push_back(Head + std::string(Length - Head.size(), '7') + "\n");
    Seeds.push_back(std::string(Length - 6, ' ') + "open 1\n");
    // One long op name, and one long comment after a short line.
    Seeds.push_back(std::string(Length - 2, 'W') + " 3\nclose 3");
    Seeds.push_back("write 2 5 #" + std::string(Length - 11, 'c') + "\n");
  }
  // Every field of "lseek 12 bytes=345" across the 16- and 32-byte edges.
  for (size_t Pad = 0; Pad < 32; ++Pad)
    Seeds.push_back(std::string(Pad, ' ') + "lseek 12 bytes=345\nread 1");
  Seeds.push_back("read 1 bytes=18446744073709551615\n");
  Seeds.push_back("read 1 bytes=18446744073709551616\n");
  Seeds.push_back("read 18446744073709551615 9999999999999999999\n");
  Seeds.push_back("read 18446744073709551616 1\n");
  Seeds.push_back("write 000000000000000000000042 bytes=0000000000000000000007\n");
  Seeds.push_back("read\t1\vbytes=2\f\r\nwrite\r3\t4\r\n\v\f\n");
  Seeds.push_back("write 2 7#glued\nread#1\nread 1#\n#\nread 1 bytes=#\n");
  Seeds.push_back("read 1 bytes=5 addr=0x7f#x\nopen 3");
  return Seeds;
}
} // namespace reference_trace

namespace strace_adapter {
/// Every non-blank line is an event, a skip or a failed call, and the
/// statistics agree with the trace.
int fuzzOne(const uint8_t *Data, size_t Size) {
  StraceStats Stats;
  Expected<Trace> T = parseStrace(asText(Data, Size), "fuzz", &Stats);
  if (!T) {
    EXPECT_EQ(T.message().rfind("line ", 0), 0u) << T.message();
    return 0;
  }
  EXPECT_EQ(T->size(), Stats.EventsEmitted);
  EXPECT_EQ(Stats.LinesTotal,
            Stats.EventsEmitted + Stats.LinesSkipped + Stats.CallsFailed);
  return 0;
}
} // namespace strace_adapter

namespace mini_language {
/// True if \p Message names a position as "<line>:<column>".
bool namesPosition(const std::string &Message) {
  for (size_t Colon = Message.find(':'); Colon != std::string::npos;
       Colon = Message.find(':', Colon + 1))
    if (Colon > 0 && Colon + 1 < Message.size() &&
        std::isdigit(static_cast<unsigned char>(Message[Colon - 1])) &&
        std::isdigit(static_cast<unsigned char>(Message[Colon + 1])))
      return true;
  return false;
}

/// The parser rejects exactly what the lexer rejects and more, every
/// error names a line:column, and an accepted program encodes.
int fuzzOne(const uint8_t *Data, size_t Size) {
  const std::string_view Source = asText(Data, Size);
  Expected<std::vector<LexToken>> Tokens = lexProgram(Source);
  Expected<Ast> Tree = parseProgram(Source);
  if (!Tree) {
    EXPECT_TRUE(namesPosition(Tree.message())) << Tree.message();
    if (!Tokens) {
      EXPECT_EQ(Tree.message(), Tokens.message());
    }
    return 0;
  }
  EXPECT_TRUE(Tokens.hasValue());
  static const std::shared_ptr<TokenTable> Table = TokenTable::create();
  WeightedString Encoded = encodeAst(*Tree, Table);
  EXPECT_GT(Encoded.size(), 0u);
  return 0;
}

/// The AstTest programs.
std::vector<std::string> seeds() {
  return {
      "fn main() { }",
      "fn f(a, b) { let c = a + b; return c; }",
      "fn f() { return 1 + 2 * 3 - 4; }",
      "fn f() { return (1 + 2) * 3; }",
      "fn f(a, b) { return a < 3 && b >= 2 || !a; }",
      "fn f(x) { if (x < 0) { return 0; } else if (x == 0) { return 1; } "
      "else { return 2; } }",
      "fn f(n) { let i = 0; while (i < n) { i = i + 1; } }",
      "fn f() { g(1, h(2), 3); }",
      "fn a() { } fn b() { }",
      "fn f() { let = 3; }",
      "fn f( { }",
      "fn f() { return 1 + ; }",
      "fn f() { while i < 3 { } }",
      "fn f(x) { return x + 1; }",
      "fn f(a) { a = a + 1; a = a + 1; a = a + 1; }",
      "fn f(a) { a = 1; a = 1; }",
      "fn f() { return 1; } fn g(x) { }",
      "fn foo let iffy if <= >= == != && || < > = !",
      "f(1, 23); a // rest ignored\nb",
      "ab\n  cd x\n  @ a $ b a & b",
  };
}

const std::vector<std::string> Dictionary = {
    "fn ", "let ", "if ", "else ", "while ", "return ", "(", ")", "{", "}",
    ";", ",", "&&", "||", "==", "!", "-", "//", "\n", "x", "9"};
} // namespace mini_language

namespace flat_image {
/// Kernel and queries shared by the seed image and every probe.
const BlendedSpectrumKernel &kernel() {
  static const BlendedSpectrumKernel Kernel(3, 0.8, /*Weighted=*/true,
                                            /*CutWeight=*/2);
  return Kernel;
}

WeightedString randomString(const std::shared_ptr<TokenTable> &Table, Rng &R,
                            size_t Length) {
  WeightedString S(Table);
  for (size_t I = 0; I < Length; ++I)
    S.append("t" + std::to_string(R.uniformInt(0, 5)), R.uniformInt(1, 16));
  return S;
}

const std::vector<KernelProfile> &queries() {
  static const std::vector<KernelProfile> Queries = [] {
    auto Table = TokenTable::create();
    Rng R(2024);
    std::vector<KernelProfile> Out;
    for (int I = 0; I < 3; ++I)
      Out.push_back(kernel().profile(randomString(Table, R, 20)));
    return Out;
  }();
  return Queries;
}

std::string readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// A routed, quantized single-shard image and an unrouted one.
std::vector<std::string> seeds() {
  auto Table = TokenTable::create();
  Rng R(31337);
  IndexService Service(kernel().name(), {.Shards = 1, .SealThreshold = 8});
  for (int I = 0; I < 24; ++I)
    Service.add("s" + std::to_string(I), I % 2 ? "odd" : "even",
                kernel().profile(randomString(Table, R, R.uniformInt(1, 24))));
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 4;
  Route.MaxDocFrequency = 0.9;
  Route.DefaultNProbe = 2;
  Route.RerankBudget = 8;
  Service.rebuildRouting(Route, 1);
  const std::string Path = testing::TempDir() + "/kast_fuzz_seed.kfi";
  std::vector<ProfileStoreCache> Caches = Service.toShardCaches();
  EXPECT_NE(Caches[0].Routing, nullptr);
  EXPECT_NE(Caches[0].Store.quantized(), nullptr);
  EXPECT_TRUE(writeProfileStoreImageFile(Caches[0], Path).ok());
  std::vector<std::string> Seeds = {readBytes(Path)};
  Caches[0].Routing.reset();
  EXPECT_TRUE(writeProfileStoreImageFile(Caches[0], Path).ok());
  Seeds.push_back(readBytes(Path));
  return Seeds;
}

/// Little-endian u64s that sit on the edges of the format's checks.
std::vector<std::string> dictionary() {
  std::vector<std::string> Out;
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(3), uint64_t(4),
                     uint64_t(64), uint64_t(4096), uint64_t(1) << 32,
                     uint64_t(1) << 48, ~uint64_t(0)}) {
    std::string Bytes(8, '\0');
    for (int I = 0; I < 8; ++I)
      Bytes[static_cast<size_t>(I)] = static_cast<char>((V >> (8 * I)) & 0xFF);
    Out.push_back(Bytes);
  }
  Out.push_back("KASTFLAT");
  Out.push_back("KASTIVIX");
  return Out;
}

uint64_t u64At(const std::string &Bytes, size_t At) {
  uint64_t V = 0;
  for (size_t I = 0; I < 8; ++I)
    V |= uint64_t(static_cast<unsigned char>(Bytes[At + I])) << (8 * I);
  return V;
}

void setU64(std::string &Bytes, size_t At, uint64_t V) {
  for (size_t I = 0; I < 8; ++I)
    Bytes[At + I] = static_cast<char>((V >> (8 * I)) & 0xFF);
}

/// The section table's extent in \p Bytes, clamped to the input.
size_t tableEnd(const std::string &Bytes) {
  if (Bytes.size() < 64)
    return Bytes.size();
  const uint64_t Count = u64At(Bytes, 8) >> 32;
  return static_cast<size_t>(
      std::min<uint64_t>(Bytes.size(), 64 + std::min<uint64_t>(Count, 64) * 32));
}

/// A few in-place edits that keep the section layout: a u64 of the
/// header or the section table, a u64 at the start of a section (where
/// the CSR offset arrays and the routing meta live) replaced by a
/// value from \p Dict, or a bit flipped anywhere in a section. Half of
/// the inputs are then re-signed — every in-bounds section checksum
/// and the header checksum recomputed — so the structural checks
/// behind the checksums get exercised.
void editSections(std::string &Bytes, const std::vector<std::string> &Dict,
                  Rng &R) {
  if (Bytes.size() < 96)
    return;
  const size_t End = tableEnd(Bytes);
  const size_t Sections = (End - 64) / 32;
  if (Sections == 0)
    return;
  for (uint64_t Edit = R.uniformInt(1, 4); Edit > 0; --Edit) {
    const size_t Entry = 64 + 32 * R.uniformInt(0, Sections - 1);
    const uint64_t Offset = u64At(Bytes, Entry + 8);
    const uint64_t Size = u64At(Bytes, Entry + 16);
    const bool InBounds = Offset <= Bytes.size() && Size > 0 &&
                          Size <= Bytes.size() - Offset;
    switch (R.uniformInt(0, 2)) {
    case 0: // Header or table field.
      Bytes.replace(8 * R.uniformInt(0, End / 8 - 1), 8, R.pick(Dict));
      break;
    case 1: // Section head.
      if (InBounds && Size >= 8)
        Bytes.replace(static_cast<size_t>(Offset) +
                          8 * R.uniformInt(0, std::min<uint64_t>(Size / 8, 8) - 1),
                      8, R.pick(Dict));
      break;
    default: // Payload bit.
      if (InBounds) {
        const size_t At = static_cast<size_t>(Offset + R.uniformInt(0, Size - 1));
        Bytes[At] = static_cast<char>(Bytes[At] ^ (1 << R.uniformInt(0, 7)));
      }
    }
  }
  if (R.uniformInt(0, 1) == 0)
    return;
  for (size_t Entry = 64; Entry + 32 <= End; Entry += 32) {
    const uint64_t Offset = u64At(Bytes, Entry + 8);
    const uint64_t Size = u64At(Bytes, Entry + 16);
    if (Offset <= Bytes.size() && Size <= Bytes.size() - Offset)
      setU64(Bytes, Entry + 24,
             checksumBytes(Bytes.data() + Offset, static_cast<size_t>(Size)));
  }
  const std::string Covered = Bytes.substr(0, 48) + Bytes.substr(64, End - 64);
  setU64(Bytes, 48, checksumBytes(Covered.data(), Covered.size()));
}

/// An accepted image restores into a service that answers exact and
/// routed queries; a rejected one says why.
int fuzzOne(const uint8_t *Data, size_t Size) {
  static const std::string Path = testing::TempDir() + "/kast_fuzz_image.kfi";
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(Data),
              static_cast<std::streamsize>(Size));
  }
  Expected<ProfileStoreCache> Image = readProfileStoreImageFile(Path);
  if (!Image) {
    EXPECT_FALSE(Image.message().empty());
    return 0;
  }
  std::vector<ProfileStoreCache> Caches;
  Caches.push_back(Image.take());
  Expected<IndexService> Service =
      IndexService::fromShardCaches(std::move(Caches), {.Shards = 1});
  EXPECT_TRUE(Service.hasValue()) << Service.message();
  if (!Service)
    return 0;
  const size_t Want = std::min<size_t>(5, Service->size());
  for (const KernelProfile &Q : queries()) {
    EXPECT_EQ(Service->query(Q, 5, true, 1).size(), Want);
    EXPECT_LE(Service->queryApprox(Q, 5, true, 0, 1).size(), Want);
  }
  return 0;
}
} // namespace flat_image

/// The StraceAdapterTest and TraceTest inputs, plus one rendered
/// generated trace.
std::vector<std::string> seeds() {
  std::vector<std::string> Seeds = {
      "openat(AT_FDCWD, \"data.bin\", O_RDONLY) = 3\n"
      "read(3, \"\\177ELF\\2\\1\\1\\0\"..., 4096) = 4096\n"
      "read(3, \"\", 4096) = 1024\nlseek(3, 1024, SEEK_SET) = 1024\n"
      "write(3, \"abc\", 3) = 3\nfsync(3) = 0\nclose(3) = 0\n",
      "open(\"missing\", O_RDONLY) = -1 ENOENT (No such file)\n"
      "read(4, \"\", 16) = -1 EAGAIN (Resource temporarily unavailable)\n",
      "execve(\"/bin/true\", [\"true\"], 0x7ffe) = 0\nbrk(NULL) = 0x55f0\n"
      "mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, 3, 0) = 0x7f1a\n"
      "futex(0x7f, FUTEX_WAKE_PRIVATE, 1) = 0\n",
      "12345 14:03:22 read(7, \"x\", 1) = 1\n12345 14:03:22 close(7) = 0\n",
      "read(3,  <unfinished ...>\n<... read resumed>\"x\", 1) = 1\n",
      "pread64(5, \"abc\", 4096, 8192) = 4096\n"
      "pwrite64(5, \"abc\", 512, 0) = 512\n",
      "write(3, \"a,b,c\", 5) = 5\nread(3</data/file.bin>, \"x\", 100) = 100\n",
      "+++ exited with 0 +++\n--- SIGCHLD ---\n",
      "read(3, \"x\", 1) = -9223372036854775808\n"
      "openat(AT_FDCWD, \"/data/resumed.bin\", O_RDONLY) = 3\n",
      "[pid  1234] read(3, \"x\", 1) = 1 <0.000012>\r\n"
      "_llseek(3, 0, [1024], SEEK_SET) = 0\nclose() = 0\n",
      "[pid 7] read(3,  <unfinished ...>\n[pid 8] close(4) = 0\n"
      "[pid 7] <... read resumed>\"x\", 1) = 1\n"
      "write(3, \"a = b\", 5)\n",
      "# demo\nopen 3\nread 3 bytes=100\nclose 3\n",
      "read 3 bytes=4096 addr=0x7f00\nwrite 5 1024\nREAD 1\n",
      "read 1 bytes=2 # loop body\n  # indented comment\n",
      "open 1\nbroken line here ???\nread 1 2 3\nre ad 1\n",
  };
  Rng R(7);
  Seeds.push_back(
      formatTrace(generateParallelTrace(Category::NormalIO, 2, R)));
  return Seeds;
}

const std::vector<std::string> TraceDictionary = {
    "= -9223372036854775808", "<unfinished ...>", "\"", "\\", "(", ",",
    "#", "bytes=", "addr=0x"};

/// One input derived from the seeds by a few random edits.
std::string mutate(const std::vector<std::string> &Seeds,
                   const std::vector<std::string> &Dictionary, Rng &R) {
  std::string S = R.pick(Seeds);
  for (uint64_t Edit = R.uniformInt(1, 6); Edit > 0; --Edit) {
    size_t Pos = R.uniformInt(0, S.size());
    switch (R.uniformInt(0, 5)) {
    case 0: // Bit flip.
      if (Pos < S.size())
        S[Pos] = static_cast<char>(S[Pos] ^ (1 << R.uniformInt(0, 7)));
      break;
    case 1: // Byte insert.
      S.insert(Pos, 1, static_cast<char>(R.uniformInt(0, 255)));
      break;
    case 2: // Byte delete.
      S.erase(Pos, R.uniformInt(1, 4));
      break;
    case 3: // Truncation.
      S.resize(Pos);
      break;
    case 4: { // Splice: this input's head, another seed's tail.
      const std::string &Other = R.pick(Seeds);
      S = S.substr(0, Pos) + Other.substr(R.uniformInt(0, Other.size()));
      break;
    }
    default: // Dictionary token.
      S.insert(Pos, R.pick(Dictionary));
    }
  }
  return S;
}

/// Feeds \p Seeds and then \p Inputs inputs made by \p Mutate to
/// \p FuzzOne, stopping at the first failure so one broken invariant
/// reports once.
template <typename Target, typename MutateFn>
void drive(Target FuzzOne, const std::vector<std::string> &Seeds,
           uint64_t Inputs, MutateFn Mutate) {
  for (const std::string &Seed : Seeds)
    FuzzOne(reinterpret_cast<const uint8_t *>(Seed.data()), Seed.size());
  Rng R(20171017);
  for (uint64_t I = 0; I < Inputs && !::testing::Test::HasFailure(); ++I) {
    std::string Input = Mutate(R);
    FuzzOne(reinterpret_cast<const uint8_t *>(Input.data()), Input.size());
  }
}

/// drive() with the text mutator over \p Seeds and \p Dictionary.
template <typename Target>
void driveText(Target FuzzOne, const std::vector<std::string> &Seeds,
               const std::vector<std::string> &Dictionary, uint64_t Inputs) {
  drive(FuzzOne, Seeds, Inputs,
        [&](Rng &R) { return mutate(Seeds, Dictionary, R); });
}

} // namespace

TEST(ParserFuzzTest, TraceParserRoundTripsWhatItAccepts) {
  driveText(trace_parser::fuzzOne, seeds(), TraceDictionary, 20000);
}

TEST(ParserFuzzTest, TraceParserMatchesReferenceDecoder) {
  std::vector<std::string> Seeds = seeds();
  for (std::string &Seed : reference_trace::chunkEdgeSeeds())
    Seeds.push_back(std::move(Seed));
  driveText(reference_trace::fuzzOne, Seeds, TraceDictionary, 20000);
}

TEST(ParserFuzzTest, TraceParserMatchesReferenceAtEveryEnd) {
  // Every prefix of every seed, so documents end 0-31 bytes past a
  // step edge, in the middle of every field and right after it.
  std::vector<std::string> Seeds = reference_trace::chunkEdgeSeeds();
  Seeds.push_back(seeds().back().substr(0, 400));
  for (const std::string &Seed : Seeds)
    for (size_t Size = 0; Size <= Seed.size() && !HasFailure(); ++Size)
      reference_trace::fuzzOne(reinterpret_cast<const uint8_t *>(Seed.data()),
                               Size);
}

TEST(ParserFuzzTest, ChunkClassifierMatchesByteLoop) {
  // classifyChunk is the SSE2 classifier on x86-64; the byte loop is
  // what every other target runs. The first 256 inputs repeat one byte
  // value; in the rest, each byte is random or one at a class edge.
  const std::vector<char> Edges = {' ',    '\t',   '\n',   '\v', '\f', '\r',
                                   '#',    '0',    '9',    '/',  ':',  '\x08',
                                   '\x0e', '\x1f', '\x80', '\xff'};
  Rng R(16);
  char Chunk[detail::ChunkBytes];
  for (int Input = 0; Input < 20000; ++Input) {
    for (char &C : Chunk) {
      if (Input < 256)
        C = static_cast<char>(Input);
      else if (R.uniformInt(0, 1) == 0)
        C = R.pick(Edges);
      else
        C = static_cast<char>(R.uniformInt(0, 255));
    }
    ASSERT_EQ(detail::classifyChunk(Chunk), detail::classifyChunkBytes(Chunk))
        << "input " << Input;
  }
}

TEST(ParserFuzzTest, StraceAdapterStatsAccountForEveryLine) {
  driveText(strace_adapter::fuzzOne, seeds(), TraceDictionary, 20000);
}

TEST(ParserFuzzTest, MiniParserAgreesWithLexerAndEncodes) {
  driveText(mini_language::fuzzOne, mini_language::seeds(),
            mini_language::Dictionary, 20000);
}

TEST(ParserFuzzTest, FlatImagesThatOpenRestoreAndAnswer) {
  // A quarter of the inputs take the text mutator's layout-breaking
  // edits first; every input then gets layout-keeping section edits.
  const std::vector<std::string> Seeds = flat_image::seeds();
  const std::vector<std::string> Dictionary = flat_image::dictionary();
  drive(flat_image::fuzzOne, Seeds, 4000, [&](Rng &R) {
    std::string Input = R.uniformInt(0, 3) == 0 ? mutate(Seeds, Dictionary, R)
                                                : R.pick(Seeds);
    flat_image::editSections(Input, Dictionary, R);
    return Input;
  });
}
