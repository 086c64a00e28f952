//===- tests/ParserFuzzTest.cpp - deterministic parser fuzzing -------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// A mutation fuzzer for the two parsers of untrusted text, parseTrace
// and parseStrace. Each has a libFuzzer-shaped entry point, fuzzOne,
// that checks the parser's invariants on one input. A util/Rng-seeded
// mutator drives it for a fixed budget, so every run sees the same
// inputs; the sanitizer build turns the same run into a memory-safety
// check.
//
//===----------------------------------------------------------------------===//

#include "trace/StraceAdapter.h"
#include "trace/TraceParser.h"
#include "trace/TraceWriter.h"
#include "workloads/ParallelTrace.h"

#include <gtest/gtest.h>

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

/// One input derived from the seeds by a few random edits.
std::string mutate(const std::vector<std::string> &Seeds, Rng &R) {
  static const std::vector<std::string> Dictionary = {
      "= -9223372036854775808", "<unfinished ...>", "\"", "\\", "(", ",",
      "#", "bytes=", "addr=0x"};
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

/// Feeds \p Inputs mutated inputs to \p FuzzOne, stopping at the first
/// failure so one broken invariant reports once.
template <typename Target> void drive(Target FuzzOne, uint64_t Inputs) {
  const std::vector<std::string> Seeds = seeds();
  for (const std::string &Seed : Seeds)
    FuzzOne(reinterpret_cast<const uint8_t *>(Seed.data()), Seed.size());
  Rng R(20171017);
  for (uint64_t I = 0; I < Inputs && !::testing::Test::HasFailure(); ++I) {
    std::string Input = mutate(Seeds, R);
    FuzzOne(reinterpret_cast<const uint8_t *>(Input.data()), Input.size());
  }
}

} // namespace

TEST(ParserFuzzTest, TraceParserRoundTripsWhatItAccepts) {
  drive(trace_parser::fuzzOne, 20000);
}

TEST(ParserFuzzTest, StraceAdapterStatsAccountForEveryLine) {
  drive(strace_adapter::fuzzOne, 20000);
}
