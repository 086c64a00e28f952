//===- tests/TraceTest.cpp - trace library unit tests ----------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"
#include "trace/TraceParser.h"
#include "trace/TraceWriter.h"

#include <gtest/gtest.h>

using namespace kast;

//===----------------------------------------------------------------------===//
// Trace model
//===----------------------------------------------------------------------===//

TEST(TraceTest, OpKindRoundTrip) {
  for (OpKind K : {OpKind::Open, OpKind::Close, OpKind::Read, OpKind::Write,
                   OpKind::Lseek, OpKind::Fsync, OpKind::Fileno,
                   OpKind::Mmap, OpKind::Fscanf})
    EXPECT_EQ(opKindFromName(opKindName(K)), K);
  EXPECT_EQ(opKindFromName("pwrite64"), OpKind::Other);
}

TEST(TraceTest, HandlesInFirstAppearanceOrder) {
  Trace T;
  T.append(OpKind::Open, 7);
  T.append(OpKind::Open, 3);
  T.append(OpKind::Read, 7, 10);
  T.append(OpKind::Open, 9);
  std::vector<uint64_t> H = T.handles();
  ASSERT_EQ(H.size(), 3u);
  EXPECT_EQ(H[0], 7u);
  EXPECT_EQ(H[1], 3u);
  EXPECT_EQ(H[2], 9u);
}

TEST(TraceTest, WithoutBytesZeroesEverything) {
  Trace T("t");
  T.append(OpKind::Read, 1, 100);
  T.append(OpKind::Write, 1, 200);
  Trace Z = T.withoutBytes();
  for (const TraceEvent &E : Z.events())
    EXPECT_EQ(E.Bytes, 0u);
  // Original untouched.
  EXPECT_EQ(T.events()[0].Bytes, 100u);
}

TEST(TraceTest, FilteredDropsNegligibleOps) {
  Trace T;
  T.append(OpKind::Open, 1);
  T.append(OpKind::Fileno, 1);
  T.append(OpKind::Read, 1, 8);
  T.append(OpKind::Mmap, 1, 4096);
  T.append(OpKind::Fscanf, 1);
  T.append(OpKind::Close, 1);
  Trace F = T.filtered(Trace::defaultNegligibleOps());
  ASSERT_EQ(F.size(), 3u);
  EXPECT_EQ(F.events()[0].Op, "open");
  EXPECT_EQ(F.events()[1].Op, "read");
  EXPECT_EQ(F.events()[2].Op, "close");
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(TraceParserTest, ParsesCanonicalLine) {
  Expected<Trace> T = parseTrace("read 3 bytes=4096 addr=0x7f00");
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 1u);
  EXPECT_EQ(T->events()[0], TraceEvent("read", 3, 4096, 0x7f00));
}

TEST(TraceParserTest, ParsesPositionalBytes) {
  Expected<Trace> T = parseTrace("write 5 1024");
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 1u);
  EXPECT_EQ(T->events()[0].Bytes, 1024u);
}

TEST(TraceParserTest, LowercasesOpNames) {
  Expected<Trace> T = parseTrace("READ 1");
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 1u);
  EXPECT_EQ(T->events()[0].Op, "read");
}

TEST(TraceParserTest, SkipsBlankAndComments) {
  for (const char *Line : {"", "   ", "# header", "  # indented comment"}) {
    Expected<Trace> T = parseTrace(Line);
    ASSERT_TRUE(T.hasValue()) << Line;
    EXPECT_TRUE(T->empty()) << Line;
  }
}

TEST(TraceParserTest, TrailingCommentsStripped) {
  Expected<Trace> T = parseTrace("read 1 bytes=2 # loop body");
  ASSERT_TRUE(T.hasValue()) << T.message();
  ASSERT_EQ(T->size(), 1u);
  EXPECT_EQ(T->events()[0].Bytes, 2u);
}

TEST(TraceParserTest, RejectsMalformedLines) {
  EXPECT_FALSE(parseTrace("read").hasValue());
  EXPECT_FALSE(parseTrace("read xyz").hasValue());
  EXPECT_FALSE(parseTrace("read 1 bytes=abc").hasValue());
  EXPECT_FALSE(parseTrace("read 1 addr=zz").hasValue());
  EXPECT_FALSE(parseTrace("re ad 1").hasValue());
  EXPECT_FALSE(parseTrace("read 1 2 3").hasValue()); // Two byte fields.
}

TEST(TraceParserTest, CornerCaseLines) {
  const char *Doc = "Read+Write 3\n"
                    "read\t3\tbytes=4\taddr=0x10\n"
                    "write 2 7#glued comment\n"
                    "read 1 bytes=2 bytes=3\n"
                    "read 1 5 bytes=6\n"
                    "read 1 bytes=18446744073709551615\n"
                    "write 9999999999999999999 000000000000000000000042\n";
  Expected<Trace> T = parseTrace(Doc);
  ASSERT_TRUE(T.hasValue()) << T.message();
  EXPECT_EQ(T->events(),
            (std::vector<TraceEvent>{{"read+write", 3},
                                     {"read", 3, 4, 0x10},
                                     {"write", 2, 7},
                                     {"read", 1, 3},
                                     {"read", 1, 6},
                                     {"read", 1, 18446744073709551615ULL},
                                     {"write", 9999999999999999999ULL, 42}}));
}

TEST(TraceParserTest, ErrorMessagesNameLineAndCause) {
  const std::pair<const char *, const char *> Cases[] = {
      {"read 1 bytes=2 3", "line 1: unrecognized field '3'"},
      {"open 1\nRe-ad 1\n", "line 2: malformed operation name 'Re-ad'"},
      {"read x1", "line 1: malformed handle 'x1'"},
      {"read 1 bytes=1a", "line 1: malformed byte count 'bytes=1a'"},
      {"read 1 addr=0xzz", "line 1: malformed address 'addr=0xzz'"},
      {"read # no handle", "line 1: expected '<op> <handle> [fields...]'"},
      {"read 1 bytes=18446744073709551616",
       "line 1: malformed byte count 'bytes=18446744073709551616'"},
      {"read 18446744073709551616",
       "line 1: malformed handle '18446744073709551616'"},
  };
  for (const auto &[Doc, Message] : Cases) {
    Expected<Trace> T = parseTrace(Doc);
    ASSERT_FALSE(T.hasValue()) << Doc;
    EXPECT_EQ(T.message(), Message);
  }
}

TEST(TraceParserTest, ParsesWholeDocumentWithLineNumbers) {
  const char *Doc = "# demo\n"
                    "open 3\n"
                    "read 3 bytes=100\n"
                    "close 3\n";
  Expected<Trace> T = parseTrace(Doc, "demo");
  ASSERT_TRUE(T.hasValue());
  EXPECT_EQ(T->name(), "demo");
  EXPECT_EQ(T->size(), 3u);
}

TEST(TraceParserTest, ErrorNamesOffendingLine) {
  Expected<Trace> T = parseTrace("open 1\nbroken line here ???\n");
  ASSERT_FALSE(T.hasValue());
  EXPECT_NE(T.message().find("line 2"), std::string::npos);
}

TEST(TraceParserTest, MissingFileFails) {
  Expected<Trace> T = parseTraceFile("/nonexistent/path/trace.txt");
  EXPECT_FALSE(T.hasValue());
}

//===----------------------------------------------------------------------===//
// Writer round trip
//===----------------------------------------------------------------------===//

TEST(TraceWriterTest, FormatsCanonically) {
  TraceEvent E("read", 3, 4096, 0x7f00);
  EXPECT_EQ(formatTraceEvent(E), "read 3 bytes=4096 addr=0x7f00");
  TraceEvent NoExtras("close", 3);
  EXPECT_EQ(formatTraceEvent(NoExtras), "close 3");
}

TEST(TraceWriterTest, RoundTripsThroughParser) {
  Trace T("rt");
  T.append(OpKind::Open, 3);
  T.append(OpKind::Read, 3, 100, 0xabc);
  T.append(OpKind::Lseek, 3, 0);
  T.append(OpKind::Write, 3, 12345);
  T.append(OpKind::Close, 3);
  Expected<Trace> Back = parseTrace(formatTrace(T), "rt");
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back->events(), T.events());
}

TEST(TraceWriterTest, NameStaysOnTheHeaderLine) {
  // A newline in the name would start a line of its own, which the
  // parser would read as an event.
  Trace T("x\nread 5 bytes=9");
  T.append(OpKind::Close, 3);
  const std::string Text = formatTrace(T);
  EXPECT_EQ(Text, "# trace: x read 5 bytes=9\nclose 3\n");
  Expected<Trace> Back = parseTrace(Text, "x");
  ASSERT_TRUE(Back.hasValue()) << Back.message();
  EXPECT_EQ(Back->events(), T.events());
}

TEST(TraceWriterTest, FileRoundTrip) {
  Trace T("file-rt");
  T.append(OpKind::Write, 9, 64);
  std::string Path = testing::TempDir() + "/kast_trace_rt.txt";
  ASSERT_TRUE(writeTraceFile(T, Path));
  Expected<Trace> Back = parseTraceFile(Path);
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back->events(), T.events());
  EXPECT_EQ(Back->name(), "kast_trace_rt.txt");
}
