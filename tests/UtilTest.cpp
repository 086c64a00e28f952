//===- tests/UtilTest.cpp - util library unit tests ------------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "util/AsciiPlot.h"
#include "util/Error.h"
#include "util/Rng.h"
#include "util/StringUtil.h"
#include "util/TextTable.h"
#include "util/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <set>
#include <stdexcept>
#include <vector>

using namespace kast;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I < 16 && !AnyDifferent; ++I)
    AnyDifferent = A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.uniformInt(10, 20);
    EXPECT_GE(V, 10u);
    EXPECT_LE(V, 20u);
  }
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng R(7);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(R.uniformInt(5, 5), 5u);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng R(3);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.uniformInt(0, 4));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I) {
    double V = R.uniformReal();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(RngTest, FlipExtremes) {
  Rng R(13);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.flip(0.0));
    EXPECT_TRUE(R.flip(1.0));
  }
}

TEST(RngTest, FlipIsRoughlyFair) {
  Rng R(17);
  int Heads = 0;
  for (int I = 0; I < 10000; ++I)
    Heads += R.flip(0.5);
  EXPECT_NEAR(Heads, 5000, 300);
}

TEST(RngTest, PickWeightedHonorsZeroWeights) {
  Rng R(19);
  std::vector<double> Weights = {0.0, 1.0, 0.0};
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(R.pickWeighted(Weights), 1u);
}

TEST(RngTest, PickWeightedRoughProportions) {
  Rng R(23);
  std::vector<double> Weights = {1.0, 3.0};
  int CountHeavy = 0;
  for (int I = 0; I < 10000; ++I)
    CountHeavy += R.pickWeighted(Weights) == 1;
  EXPECT_NEAR(CountHeavy, 7500, 400);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng R(29);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Copy = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Copy);
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng A(31);
  Rng Child = A.split();
  // The child must not replay the parent's stream.
  Rng B(31);
  B.split();
  EXPECT_EQ(A.next(), B.next()); // Parents stay in sync.
  bool Different = false;
  Rng C = Rng(31);
  for (int I = 0; I < 8 && !Different; ++I)
    Different = Child.next() != C.next();
  EXPECT_TRUE(Different);
}

TEST(RngTest, SplitMix64KnownSequenceIsStable) {
  // Self-consistency: same seed, same stream (guards accidental
  // algorithm changes that would invalidate recorded experiment
  // outputs).
  uint64_t S1 = 123, S2 = 123;
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(splitMix64(S1), splitMix64(S2));
}

//===----------------------------------------------------------------------===//
// StringUtil
//===----------------------------------------------------------------------===//

TEST(StringUtilTest, TrimBothEnds) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  std::vector<std::string_view> F = split("a,,b", ',');
  ASSERT_EQ(F.size(), 3u);
  EXPECT_EQ(F[0], "a");
  EXPECT_EQ(F[1], "");
  EXPECT_EQ(F[2], "b");
}

TEST(StringUtilTest, SplitSingleField) {
  std::vector<std::string_view> F = split("abc", ',');
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0], "abc");
}

TEST(StringUtilTest, SplitWhitespaceSkipsRuns) {
  std::vector<std::string_view> F = splitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(F.size(), 3u);
  EXPECT_EQ(F[0], "a");
  EXPECT_EQ(F[1], "b");
  EXPECT_EQ(F[2], "c");
}

TEST(StringUtilTest, SplitWhitespaceEmpty) {
  EXPECT_TRUE(splitWhitespace("").empty());
  EXPECT_TRUE(splitWhitespace("   \t").empty());
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, "+"), "a+b+c");
  EXPECT_EQ(join({}, "+"), "");
  EXPECT_EQ(join({"solo"}, "+"), "solo");
}

TEST(StringUtilTest, ParseUnsignedAcceptsDigitsOnly) {
  EXPECT_EQ(parseUnsigned("0"), 0u);
  EXPECT_EQ(parseUnsigned("1024"), 1024u);
  EXPECT_EQ(parseUnsigned("18446744073709551615"), ~0ULL);
  EXPECT_FALSE(parseUnsigned(""));
  EXPECT_FALSE(parseUnsigned("-1"));
  EXPECT_FALSE(parseUnsigned("12x"));
  EXPECT_FALSE(parseUnsigned("18446744073709551616")); // Overflow.
}

TEST(StringUtilTest, ParseHexWithAndWithoutPrefix) {
  EXPECT_EQ(parseHex("0x10"), 16u);
  EXPECT_EQ(parseHex("ff"), 255u);
  EXPECT_EQ(parseHex("0XFF"), 255u);
  EXPECT_FALSE(parseHex(""));
  EXPECT_FALSE(parseHex("0x"));
  EXPECT_FALSE(parseHex("xyz"));
  EXPECT_FALSE(parseHex("0x11223344556677889")); // 17 digits.
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(startsWith("bytes=12", "bytes="));
  EXPECT_FALSE(startsWith("byte", "bytes="));
  EXPECT_TRUE(endsWith("file.csv", ".csv"));
  EXPECT_FALSE(endsWith("csv", ".csv"));
}

//===----------------------------------------------------------------------===//
// Error types
//===----------------------------------------------------------------------===//

TEST(ErrorTest, StatusDefaultsToOk) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_TRUE(static_cast<bool>(S));
}

TEST(ErrorTest, StatusCarriesMessage) {
  Status S = Status::error("boom");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.message(), "boom");
}

TEST(ErrorTest, ExpectedValueAndError) {
  Expected<int> V(7);
  ASSERT_TRUE(V.hasValue());
  EXPECT_EQ(*V, 7);
  Expected<int> E = Expected<int>::error("nope");
  ASSERT_FALSE(E.hasValue());
  EXPECT_EQ(E.message(), "nope");
}

TEST(ErrorTest, ExpectedTake) {
  Expected<std::string> V(std::string("abc"));
  EXPECT_EQ(V.take(), "abc");
}

//===----------------------------------------------------------------------===//
// TextTable / AsciiPlot
//===----------------------------------------------------------------------===//

TEST(TextTableTest, AlignsColumns) {
  TextTable T;
  T.setHeader({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"longer", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer"), std::string::npos);
  // Each rendered line containing 'value' data aligns: the header line
  // and separator exist.
  EXPECT_NE(Out.find('-'), std::string::npos);
}

TEST(TextTableTest, SeparatorRows) {
  TextTable T;
  T.addRow({"a"});
  T.addSeparator();
  T.addRow({"b"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("a\n"), std::string::npos);
  EXPECT_NE(Out.find("b\n"), std::string::npos);
}

TEST(TextTableTest, FormatDouble) {
  EXPECT_EQ(formatDouble(0.30588, 4), "0.3059");
  EXPECT_EQ(formatDouble(1.0, 2), "1.00");
}

TEST(AsciiPlotTest, RendersAllGlyphs) {
  AsciiScatter Plot(40, 12);
  Plot.addPoint(0.0, 0.0, 'A');
  Plot.addPoint(1.0, 1.0, 'B');
  std::string Out = Plot.render();
  EXPECT_NE(Out.find('A'), std::string::npos);
  EXPECT_NE(Out.find('B'), std::string::npos);
}

TEST(AsciiPlotTest, CollisionsMarked) {
  AsciiScatter Plot(8, 4);
  Plot.addPoint(0.5, 0.5, 'A');
  Plot.addPoint(0.5, 0.5, 'B'); // Same cell, different glyph.
  Plot.addPoint(0.0, 0.0, 'C');
  Plot.addPoint(1.0, 1.0, 'D');
  std::string Out = Plot.render();
  EXPECT_NE(Out.find('+'), std::string::npos);
}

TEST(AsciiPlotTest, EmptyPlot) {
  AsciiScatter Plot;
  EXPECT_EQ(Plot.render(), "(empty plot)\n");
}

TEST(AsciiPlotTest, DegenerateRangeDoesNotCrash) {
  AsciiScatter Plot(16, 6);
  Plot.addPoint(2.0, 3.0, 'X');
  Plot.addPoint(2.0, 3.0, 'X');
  std::string Out = Plot.render();
  EXPECT_NE(Out.find('X'), std::string::npos);
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> Visits(1000);
  parallelFor(1000, [&](size_t I) { Visits[I].fetch_add(1); });
  for (const auto &V : Visits)
    EXPECT_EQ(V.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadIsInline) {
  std::vector<int> Order;
  parallelFor(
      10, [&](size_t I) { Order.push_back(static_cast<int>(I)); },
      /*NumThreads=*/1);
  ASSERT_EQ(Order.size(), 10u);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ThreadPoolTest, ZeroCount) {
  bool Called = false;
  parallelFor(0, [&](size_t) { Called = true; });
  EXPECT_FALSE(Called);
}

// More workers than indices: the worker count clamps to Count, every
// index still runs exactly once, and nothing hangs waiting for the
// excess workers.
TEST(ThreadPoolTest, MoreThreadsThanCount) {
  std::vector<std::atomic<int>> Visits(3);
  parallelFor(
      3, [&](size_t I) { Visits[I].fetch_add(1); },
      /*NumThreads=*/64);
  for (const auto &V : Visits)
    EXPECT_EQ(V.load(), 1);
}

// An exception thrown by the body propagates to the caller (the first
// one thrown wins) instead of terminating the process, and the loop
// stops claiming further work.
TEST(ThreadPoolTest, BodyExceptionPropagates) {
  EXPECT_THROW(
      parallelFor(100,
                  [&](size_t I) {
                    if (I == 7)
                      throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ThreadPoolTest, BodyExceptionPropagatesInline) {
  EXPECT_THROW(parallelFor(
                   10,
                   [&](size_t I) {
                     if (I == 3)
                       throw std::runtime_error("boom");
                   },
                   /*NumThreads=*/1),
               std::runtime_error);
}

// A body may itself call parallelFor on the shared pool. The caller
// participates in its own loop and helps drain the queue while
// waiting, so nesting completes instead of deadlocking even when every
// pool worker is occupied by the outer loop.
TEST(ThreadPoolTest, NestedParallelFor) {
  constexpr size_t Outer = 8, Inner = 64;
  std::vector<std::atomic<int>> Visits(Outer * Inner);
  parallelFor(Outer, [&](size_t O) {
    parallelFor(Inner, [&](size_t I) { Visits[O * Inner + I].fetch_add(1); });
  });
  for (const auto &V : Visits)
    EXPECT_EQ(V.load(), 1);
}

// Every submitted task runs: the destructor drains the queue before
// joining the workers.
TEST(ThreadPoolTest, SubmitWaitRunsEverything) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 100; ++I)
      Pool.submit([&] { Ran.fetch_add(1); });
  }
  EXPECT_EQ(Ran.load(), 100);
}

// Tasks submitted from inside a task still run, and so does a task
// submitted just before destruction.
TEST(ThreadPoolTest, SubmitFromTaskAndDrainOnDestruction) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(1);
    std::promise<void> Submitted;
    Pool.submit([&] {
      Ran.fetch_add(1);
      Pool.submit([&] { Ran.fetch_add(1); });
      Submitted.set_value();
    });
    // The nested submit must happen before destruction begins.
    Submitted.get_future().wait();
    Pool.submit([&] { Ran.fetch_add(1); });
  }
  EXPECT_EQ(Ran.load(), 3);
}

// Explicit MaxWorkers on a pool instance distributes across exactly
// the requested participants (pool workers + caller) without touching
// the shared pool.
TEST(ThreadPoolTest, InstanceParallelFor) {
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> Visits(500);
  Pool.parallelFor(500, [&](size_t I) { Visits[I].fetch_add(1); });
  for (const auto &V : Visits)
    EXPECT_EQ(V.load(), 1);
}
