//===- tests/StraceAdapterTest.cpp - strace ingestion unit tests -----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/StraceAdapter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace kast;

TEST(StraceAdapterTest, BasicSession) {
  const char *Log =
      R"(openat(AT_FDCWD, "data.bin", O_RDONLY) = 3
read(3, "\177ELF\2\1\1\0"..., 4096) = 4096
read(3, "", 4096) = 1024
lseek(3, 1024, SEEK_SET) = 1024
write(3, "abc", 3) = 3
fsync(3) = 0
close(3) = 0
)";
  StraceStats Stats;
  Expected<Trace> T = parseStrace(Log, "session", &Stats);
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 7u);
  EXPECT_EQ(T->events()[0], TraceEvent("open", 3));
  EXPECT_EQ(T->events()[1], TraceEvent("read", 3, 4096));
  EXPECT_EQ(T->events()[2], TraceEvent("read", 3, 1024));
  EXPECT_EQ(T->events()[3], TraceEvent("lseek", 3));
  EXPECT_EQ(T->events()[4], TraceEvent("write", 3, 3));
  EXPECT_EQ(T->events()[5], TraceEvent("fsync", 3));
  EXPECT_EQ(T->events()[6], TraceEvent("close", 3));
  EXPECT_EQ(Stats.EventsEmitted, 7u);
  EXPECT_EQ(Stats.CallsFailed, 0u);
}

TEST(StraceAdapterTest, FailedCallsDropped) {
  const char *Log = R"(open("missing", O_RDONLY) = -1 ENOENT (No such file)
openat(AT_FDCWD, "there", O_RDONLY) = 4
read(4, "", 16) = -1 EAGAIN (Resource temporarily unavailable)
close(4) = 0
)";
  StraceStats Stats;
  Expected<Trace> T = parseStrace(Log, "", &Stats);
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 2u);
  EXPECT_EQ(T->events()[0].Op, "open");
  EXPECT_EQ(T->events()[1].Op, "close");
  EXPECT_EQ(Stats.CallsFailed, 2u);
}

TEST(StraceAdapterTest, NonIoSyscallsSkipped) {
  const char *Log = R"(execve("/bin/true", ["true"], 0x7ffe) = 0
brk(NULL) = 0x55f0
mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, 3, 0) = 0x7f1a
openat(AT_FDCWD, "f", O_RDONLY) = 3
futex(0x7f, FUTEX_WAKE_PRIVATE, 1) = 0
close(3) = 0
)";
  StraceStats Stats;
  Expected<Trace> T = parseStrace(Log, "", &Stats);
  ASSERT_TRUE(T.hasValue()) << T.message();
  EXPECT_EQ(T->size(), 2u);
  EXPECT_EQ(Stats.LinesSkipped, 4u);
}

TEST(StraceAdapterTest, PidAndTimestampPrefixes) {
  // strace -f / -t prefixes.
  const char *Log = R"(12345 14:03:22 read(7, "x", 1) = 1
12345 14:03:22 close(7) = 0
)";
  Expected<Trace> T = parseStrace(Log);
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 2u);
  EXPECT_EQ(T->events()[0].Handle, 7u);
}

TEST(StraceAdapterTest, BracketedPidColumn) {
  // strace -f without -o marks a child's lines "[pid N]", ahead of any
  // timestamp column.
  const char *Log = "[pid  1234] read(3, \"x\", 1) = 1\n"
                    "[pid 1235] 14:03:22.000012 close(3) = 0\n";
  StraceStats Stats;
  Expected<Trace> T = parseStrace(Log, "", &Stats);
  ASSERT_TRUE(T.hasValue()) << T.message();
  EXPECT_EQ(T->events(),
            (std::vector<TraceEvent>{{"read", 3, 1}, {"close", 3}}));
  EXPECT_EQ(Stats.LinesSkipped, 0u);
}

TEST(StraceAdapterTest, UnfinishedResumedSkipped) {
  // A call strace splits is one event, at its resumed line; the
  // unfinished half counts as skipped.
  const char *Log =
      "read(3,  <unfinished ...>\n"
      "<... read resumed>\"x\", 1) = 1\n"
      "close(3) = 0\n";
  StraceStats Stats;
  Expected<Trace> T = parseStrace(Log, "", &Stats);
  ASSERT_TRUE(T.hasValue()) << T.message();
  EXPECT_EQ(T->events(),
            (std::vector<TraceEvent>{{"read", 3, 1}, {"close", 3}}));
  EXPECT_EQ(Stats.LinesTotal, 3u);
  EXPECT_EQ(Stats.EventsEmitted, 2u);
  EXPECT_EQ(Stats.LinesSkipped, 1u);
}

TEST(StraceAdapterTest, SplitCallsOfInterleavedPidsStitch) {
  // strace -f splits a call that another thread's line interrupts; each
  // half is matched by PID and syscall, in either PID column form.
  for (const char *Log :
       {"[pid 101] read(3,  <unfinished ...>\n"
        "[pid 102] close(5 <unfinished ...>\n"
        "[pid 102] <... close resumed>) = 0\n"
        "[pid 101] <... read resumed>\"x\", 1) = 1\n",
        "101 read(3,  <unfinished ...>\n"
        "102 close(5 <unfinished ...>\n"
        "102 <... close resumed>) = 0\n"
        "101 <... read resumed>\"x\", 1) = 1\n"}) {
    StraceStats Stats;
    Expected<Trace> T = parseStrace(Log, "", &Stats);
    ASSERT_TRUE(T.hasValue()) << T.message();
    EXPECT_EQ(T->events(),
              (std::vector<TraceEvent>{{"close", 5}, {"read", 3, 1}}))
        << Log;
    EXPECT_EQ(Stats.EventsEmitted, 2u);
    EXPECT_EQ(Stats.LinesSkipped, 2u);
  }

  // Halves that do not pair stay skipped: a resumed line of another
  // PID or syscall, and an unfinished half never resumed. A split open
  // takes its handle, and a split read its byte count, from the
  // resumed half; a failed one is dropped there.
  StraceStats Stats;
  Expected<Trace> T = parseStrace(
      "[pid 7] openat(AT_FDCWD, \"f\", O_RDONLY <unfinished ...>\n"
      "[pid 8] <... openat resumed>) = 4\n"
      "[pid 7] <... read resumed>\"x\", 1) = 1\n"
      "[pid 7] <... openat resumed>) = 3\n"
      "[pid 9] read(4,  <unfinished ...>\n"
      "[pid 9] <... read resumed>0x7f, 8) = -1 EAGAIN (Try again)\n"
      "[pid 9] write(4, \"ab\", 2 <unfinished ...>\n",
      "", &Stats);
  ASSERT_TRUE(T.hasValue()) << T.message();
  EXPECT_EQ(T->events(), (std::vector<TraceEvent>{{"open", 3}}));
  EXPECT_EQ(Stats.LinesTotal, 7u);
  EXPECT_EQ(Stats.EventsEmitted, 1u);
  EXPECT_EQ(Stats.CallsFailed, 1u);
  EXPECT_EQ(Stats.LinesSkipped, 5u);

  // An error names the resumed line.
  Expected<Trace> Bad =
      parseStrace("openat(AT_FDCWD, \"f\", O_RDONLY <unfinished ...>\n"
                  "close(3) = 0\n<... openat resumed>)\n");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_EQ(Bad.message(), "line 3: open call without return value");
}

TEST(StraceAdapterTest, QuotedEqualsInAReturnlessCall) {
  // With no ')' before the last " = ", that " = " is inside the
  // arguments: the line's last ')' ends them, and the call printed no
  // return value, like the same call without the quote.
  for (const char *Log :
       {"write(3, \"a = b\", 5)\n", "write(3, \"ab\", 5)\n"}) {
    StraceStats Stats;
    Expected<Trace> T = parseStrace(Log, "", &Stats);
    ASSERT_TRUE(T.hasValue()) << T.message();
    EXPECT_EQ(T->events(), (std::vector<TraceEvent>{{"write", 3}})) << Log;
    EXPECT_EQ(Stats.LinesSkipped, 0u) << Log;
  }
}

TEST(StraceAdapterTest, QuotedResumedAndUnfinishedPathsKept) {
  // Only strace's trailing "<unfinished ...>" marker splits a call; the
  // words inside a quoted path do not.
  const char *Log =
      "openat(AT_FDCWD, \"/data/resumed.bin\", O_RDONLY) = 3\n"
      "openat(AT_FDCWD, \"/tmp/unfinished_job.dat\", O_RDONLY) = 4\n";
  StraceStats Stats;
  Expected<Trace> T = parseStrace(Log, "", &Stats);
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 2u);
  EXPECT_EQ(T->events()[0], TraceEvent("open", 3));
  EXPECT_EQ(T->events()[1], TraceEvent("open", 4));
  EXPECT_EQ(Stats.LinesSkipped, 0u);
}

TEST(StraceAdapterTest, ReturnValuesAtInt64Limits) {
  // -2^63 is an ordinary failed return; 2^63 - 1 an ordinary count.
  StraceStats Stats;
  Expected<Trace> T =
      parseStrace("read(3, \"x\", 1) = -9223372036854775808\n"
                  "read(3, \"x\", 1) = 9223372036854775807\n",
                  "", &Stats);
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 1u);
  EXPECT_EQ(T->events()[0], TraceEvent("read", 3, 9223372036854775807ULL));
  EXPECT_EQ(Stats.CallsFailed, 1u);

  // A magnitude outside int64_t is undecodable: a recognized I/O call
  // fails and names its line...
  for (const char *Ret : {"18446744073709551615", "9223372036854775808",
                          "-9223372036854775809", "123456789012345678901"}) {
    Expected<Trace> Bad = parseStrace(
        std::string("close(3) = 0\nread(3, \"x\", 1) = ") + Ret + "\n");
    ASSERT_FALSE(Bad.hasValue()) << Ret;
    EXPECT_NE(Bad.message().find("line 2"), std::string::npos)
        << Bad.message();
  }
  // ...and any other syscall is skipped, as before.
  StraceStats Other;
  ASSERT_TRUE(parseStrace("brk(NULL) = 18446744073709551615\n", "", &Other)
                  .hasValue());
  EXPECT_EQ(Other.LinesSkipped, 1u);
}

TEST(StraceAdapterTest, PreadMapsToRead) {
  const char *Log = "pread64(5, \"abc\", 4096, 8192) = 4096\n"
                    "pwrite64(5, \"abc\", 512, 0) = 512\n";
  Expected<Trace> T = parseStrace(Log);
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 2u);
  EXPECT_EQ(T->events()[0], TraceEvent("read", 5, 4096));
  EXPECT_EQ(T->events()[1], TraceEvent("write", 5, 512));
}

TEST(StraceAdapterTest, UnderscoreLlseekMapsToLseek) {
  // strace prints _llseek on 32-bit targets.
  StraceStats Stats;
  Expected<Trace> T =
      parseStrace("_llseek(3, 0, [1024], SEEK_SET) = 0\n", "", &Stats);
  ASSERT_TRUE(T.hasValue()) << T.message();
  EXPECT_EQ(T->events(), (std::vector<TraceEvent>{{"lseek", 3}}));
  EXPECT_EQ(Stats.LinesSkipped, 0u);
}

TEST(StraceAdapterTest, QuotedCommasDoNotConfuseArguments) {
  const char *Log = "write(3, \"a,b,c\", 5) = 5\n";
  Expected<Trace> T = parseStrace(Log);
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 1u);
  EXPECT_EQ(T->events()[0].Bytes, 5u);
}

TEST(StraceAdapterTest, DecoratedFdsAccepted) {
  // strace -y renders fds as "3</path/to/file>".
  const char *Log = "read(3</data/file.bin>, \"x\", 100) = 100\n";
  Expected<Trace> T = parseStrace(Log);
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 1u);
  EXPECT_EQ(T->events()[0].Handle, 3u);
}

TEST(StraceAdapterTest, EmptyAndGarbage) {
  EXPECT_TRUE(parseStrace("").hasValue());
  Expected<Trace> T = parseStrace("+++ exited with 0 +++\n--- SIGCHLD ---\n");
  ASSERT_TRUE(T.hasValue());
  EXPECT_TRUE(T->empty());
}

TEST(StraceAdapterTest, CornerCaseLineShapes) {
  struct Case {
    const char *Log;
    std::vector<TraceEvent> Events;
  };
  const Case Cases[] = {
      // Blanks between the name and its "(".
      {"read (3, \"x\", 1) = 1\nclose\t(3) = 0\n",
       {{"read", 3, 1}, {"close", 3}}},
      // Names match case-insensitively.
      {"READ(3, \"x\", 1) = 1\nOpenAt(AT_FDCWD, \"f\", O_RDONLY) = 4\n",
       {{"read", 3, 1}, {"open", 4}}},
      {"read(3, \"x\", 1) = 1\r\nclose(3) = 0\r\n",
       {{"read", 3, 1}, {"close", 3}}},
      // strace -T appends the time spent in the call.
      {"read(3, \"x\", 1) = 1 <0.000012>\n", {{"read", 3, 1}}},
      // Only the last " = " starts the return value.
      {"write(3, \"a = b\", 5) = 5\n", {{"write", 3, 5}}},
      // An unknown return carries no byte count.
      {"read(3, \"x\", 1) = ?\n", {{"read", 3, 0}}},
      {"close(18446744073709551615) = 0\n", {{"close", ~0ULL}}},
  };
  for (const Case &C : Cases) {
    StraceStats Stats;
    Expected<Trace> T = parseStrace(C.Log, "", &Stats);
    ASSERT_TRUE(T.hasValue()) << C.Log << T.message();
    EXPECT_EQ(T->events(), C.Events) << C.Log;
    EXPECT_EQ(Stats.LinesSkipped, 0u) << C.Log;
  }
}

TEST(StraceAdapterTest, ErrorMessagesNameLineAndCause) {
  const std::pair<const char *, const char *> Cases[] = {
      {"close() = 0\n", "line 1: missing file descriptor argument"},
      {"read(, 1) = 1\n", "line 1: malformed file descriptor ''"},
      {"openat(AT_FDCWD, \"f\", O_RDONLY)\n",
       "line 1: open call without return value"},
      {"close(3) = 0\nclose(18446744073709551616) = 0\n",
       "line 2: malformed file descriptor '18446744073709551616'"},
  };
  for (const auto &[Log, Message] : Cases) {
    Expected<Trace> T = parseStrace(Log);
    ASSERT_FALSE(T.hasValue()) << Log;
    EXPECT_EQ(T.message(), Message);
  }
}

TEST(StraceAdapterTest, ParsesFileNamedByBasename) {
  const std::string Path = testing::TempDir() + "/kast_strace_file.log";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << "openat(AT_FDCWD, \"f\", O_RDONLY) = 3\n"
           "mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, 3, 0) = 0x7f1a\n"
           "read(3, \"x\", 1) = 1\nclose(3) = 0";
  }
  StraceStats Stats;
  Expected<Trace> T = parseStraceFile(Path, &Stats);
  std::remove(Path.c_str());
  ASSERT_TRUE(T.hasValue()) << T.message();
  EXPECT_EQ(T->name(), "kast_strace_file.log");
  EXPECT_EQ(T->events(), (std::vector<TraceEvent>{
                             {"open", 3}, {"read", 3, 1}, {"close", 3}}));
  EXPECT_EQ(Stats.LinesTotal, 4u);
  EXPECT_EQ(Stats.LinesSkipped, 1u);
}

TEST(StraceAdapterTest, MissingFileFails) {
  EXPECT_FALSE(parseStraceFile("/nonexistent/kast.strace").hasValue());
}
