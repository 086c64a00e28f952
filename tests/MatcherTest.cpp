//===- tests/MatcherTest.cpp - SAM and maximal-match discovery -------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Matcher.h"
#include "core/SuffixAutomaton.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace kast;

namespace {

using Seq = std::vector<uint32_t>;

/// Converts a character string to a symbol sequence (ASCII ids).
Seq seq(const std::string &S) {
  Seq Out;
  for (char C : S)
    Out.push_back(static_cast<uint32_t>(C));
  return Out;
}

/// Brute-force factor check.
bool containsNaive(const Seq &Text, const Seq &Factor) {
  if (Factor.empty())
    return true;
  if (Factor.size() > Text.size())
    return false;
  for (size_t I = 0; I + Factor.size() <= Text.size(); ++I)
    if (std::equal(Factor.begin(), Factor.end(), Text.begin() + I))
      return true;
  return false;
}

/// Random sequence over a small alphabet (repetition-rich).
Seq randomSeq(Rng &R, size_t Length, uint32_t Alphabet) {
  Seq Out;
  Out.reserve(Length);
  for (size_t I = 0; I < Length; ++I)
    Out.push_back(static_cast<uint32_t>(R.uniformInt(0, Alphabet - 1)));
  return Out;
}

/// Sorted starts of the occurrences of the state \p Sam reached on
/// reading \p Factor backwards, \p Sam indexing reversed \p Text.
std::vector<size_t> startsViaReversedIndex(const SuffixAutomaton &Sam,
                                           const Seq &Text,
                                           const Seq &Factor) {
  std::vector<size_t> Starts;
  int32_t State = Sam.locate(Factor.rbegin(), Factor.rend());
  if (State == -1)
    return Starts;
  for (uint32_t End : Sam.endPositions(State))
    Starts.push_back(Text.size() - 1 - End);
  std::sort(Starts.begin(), Starts.end());
  return Starts;
}

/// End-based matching statistics of \p Query against \p Sam, off the
/// automaton's matching walk, which must visit every position in order
/// and name the state locate() finds for each matched suffix.
std::vector<size_t> statisticsEnds(const SuffixAutomaton &Sam,
                                   const Seq &Query) {
  std::vector<size_t> Stats;
  Sam.walk(Query, [&](size_t J, int32_t State, uint32_t Length) {
    EXPECT_EQ(J, Stats.size());
    EXPECT_EQ(State, Sam.locate(Query.begin() + (J + 1 - Length),
                                Query.begin() + (J + 1)));
    Stats.push_back(Length);
  });
  EXPECT_EQ(Stats.size(), Query.size());
  return Stats;
}

/// The maximal matches of \p Subject relative to the partner whose
/// reversal \p RevPartner indexes, off visitMaximalMatches, sorted by
/// Begin. The walk reports them by descending Begin, each once.
std::vector<MaximalMatch> maximalMatches(const Seq &Subject,
                                         const SuffixAutomaton &RevPartner) {
  std::vector<MaximalMatch> Matches;
  visitMaximalMatches(reversed(Subject), RevPartner,
                      [&](size_t End, uint32_t Length, int32_t) {
                        const size_t Begin = Subject.size() - 1 - End;
                        if (!Matches.empty()) {
                          EXPECT_LT(Begin, Matches.back().Begin);
                        }
                        Matches.push_back({Begin, Begin + Length});
                      });
  std::reverse(Matches.begin(), Matches.end());
  return Matches;
}

} // namespace

//===----------------------------------------------------------------------===//
// SuffixAutomaton
//===----------------------------------------------------------------------===//

TEST(SuffixAutomatonTest, ContainsAllFactors) {
  Seq Text = seq("abcbcba");
  SuffixAutomaton Sam(Text);
  for (size_t I = 0; I < Text.size(); ++I)
    for (size_t J = I + 1; J <= Text.size(); ++J) {
      Seq Factor(Text.begin() + I, Text.begin() + J);
      EXPECT_TRUE(Sam.containsFactor(Factor));
    }
}

TEST(SuffixAutomatonTest, RejectsNonFactors) {
  SuffixAutomaton Sam(seq("aabab"));
  EXPECT_FALSE(Sam.containsFactor(seq("bb")));
  EXPECT_FALSE(Sam.containsFactor(seq("abc")));
  EXPECT_FALSE(Sam.containsFactor(seq("aaa")));
  EXPECT_TRUE(Sam.containsFactor(seq("aba")));
}

TEST(SuffixAutomatonTest, EmptyFactorAlwaysContained) {
  SuffixAutomaton Sam(seq("xy"));
  EXPECT_TRUE(Sam.containsFactor({}));
}

TEST(SuffixAutomatonTest, StateCountIsLinear) {
  Seq Text = seq("abcabcabcabcab");
  SuffixAutomaton Sam(Text);
  EXPECT_LE(Sam.numStates(), 2 * Text.size());
}

TEST(SuffixAutomatonTest, FactorPropertyOnRandomInputs) {
  Rng R(123);
  for (int Round = 0; Round < 20; ++Round) {
    Seq Text = randomSeq(R, 60, 3);
    SuffixAutomaton Sam(Text);
    for (int Probe = 0; Probe < 30; ++Probe) {
      Seq Factor = randomSeq(R, R.uniformInt(1, 6), 3);
      EXPECT_EQ(Sam.containsFactor(Factor), containsNaive(Text, Factor));
    }
  }
}

TEST(SuffixAutomatonTest, EndPositionsMatchNaiveOccurrences) {
  // Every sequence up to length 6 over the text's alphabet plus one
  // absent symbol: present factors list exactly their naive
  // occurrences, absent ones locate nothing. Round 0 indexes the empty
  // sequence, whose automaton is the root alone.
  Rng R(2024);
  for (int Round = 0; Round < 12; ++Round) {
    const uint32_t Alphabet = 2 + Round % 2;
    Seq Text = Round == 0 ? Seq{} : randomSeq(R, R.uniformInt(1, 90), Alphabet);
    SuffixAutomaton RevSam(reversed(Text));
    if (Text.empty()) {
      EXPECT_EQ(RevSam.numStates(), 1u);
    }
    Seq Factor;
    for (size_t Length = 1; Length <= 6; ++Length) {
      Factor.assign(Length, 0);
      for (;;) {
        std::vector<size_t> Naive = findOccurrences(Text, Factor);
        EXPECT_EQ(startsViaReversedIndex(RevSam, Text, Factor), Naive);
        if (Naive.empty()) {
          EXPECT_EQ(RevSam.locate(Factor.rbegin(), Factor.rend()), -1);
        }
        // Next sequence, odometer style.
        size_t I = 0;
        while (I < Length && ++Factor[I] == Alphabet + 1)
          Factor[I++] = 0;
        if (I == Length)
          break;
      }
    }
    // The empty factor is the root, which ends everywhere.
    std::vector<uint32_t> All(RevSam.endPositions(0).begin(),
                              RevSam.endPositions(0).end());
    std::sort(All.begin(), All.end());
    ASSERT_EQ(All.size(), Text.size());
    for (size_t E = 0; E < All.size(); ++E)
      EXPECT_EQ(All[E], E);
  }
}

TEST(SuffixAutomatonTest, MatchingStatisticsEndsKnownCase) {
  // Y = "ab", X = "cabd": longest suffix of X[..j] in Y: 0,1,2,0.
  SuffixAutomaton Sam(seq("ab"));
  std::vector<size_t> MS = statisticsEnds(Sam, seq("cabd"));
  EXPECT_EQ(MS, (std::vector<size_t>{0, 1, 2, 0}));
}

TEST(SuffixAutomatonTest, MatchingStatisticsAgainstNaive) {
  Rng R(321);
  for (int Round = 0; Round < 20; ++Round) {
    Seq Y = randomSeq(R, 40, 3);
    Seq X = randomSeq(R, 30, 3);
    SuffixAutomaton Sam(Y);
    std::vector<size_t> MS = statisticsEnds(Sam, X);
    for (size_t J = 0; J < X.size(); ++J) {
      // Naive: longest suffix of X[0..J] occurring in Y.
      size_t Best = 0;
      for (size_t L = 1; L <= J + 1; ++L) {
        Seq Suffix(X.begin() + (J + 1 - L), X.begin() + (J + 1));
        if (containsNaive(Y, Suffix))
          Best = L;
        else
          break; // Longer suffixes only get harder.
      }
      EXPECT_EQ(MS[J], Best) << "round " << Round << " position " << J;
    }
  }
}

//===----------------------------------------------------------------------===//
// Matching statistics (start-based) and maximal matches
//===----------------------------------------------------------------------===//

TEST(MatcherTest, StartStatisticsKnownCase) {
  // Subject "abcd", partner "bcx": prefixes starting at each i
  // occurring in partner: a->0, bc->2, c->1, d->0.
  // Walked back to front, the start-based statistics come out
  // reversed.
  Seq Subject = seq("abcd");
  SuffixAutomaton RevPartner(reversed(seq("bcx")));
  std::vector<size_t> MS = statisticsEnds(RevPartner, reversed(Subject));
  std::reverse(MS.begin(), MS.end());
  EXPECT_EQ(MS, (std::vector<size_t>{0, 2, 1, 0}));
}

TEST(MatcherTest, MaximalMatchesSimple) {
  // Subject "xaby", partner "zabw": only "ab" is shared and maximal.
  Seq Subject = seq("xaby");
  SuffixAutomaton RevPartner(reversed(seq("zabw")));
  std::vector<MaximalMatch> M = maximalMatches(Subject, RevPartner);
  ASSERT_EQ(M.size(), 1u);
  EXPECT_EQ(M[0].Begin, 1u);
  EXPECT_EQ(M[0].End, 3u);
}

TEST(MatcherTest, SelfMatchIsWholeString) {
  // Against itself, every interval extends: only the full string is
  // maximal — the property that makes k(A,A) = weight(A)^2.
  Seq S = seq("abcabc");
  SuffixAutomaton RevSelf(reversed(S));
  std::vector<MaximalMatch> M = maximalMatches(S, RevSelf);
  ASSERT_EQ(M.size(), 1u);
  EXPECT_EQ(M[0].Begin, 0u);
  EXPECT_EQ(M[0].length(), S.size());
}

TEST(MatcherTest, DisjointSequencesShareNothing) {
  Seq Subject = seq("aaa");
  SuffixAutomaton RevPartner(reversed(seq("bbb")));
  EXPECT_TRUE(maximalMatches(Subject, RevPartner).empty());
}

TEST(MatcherTest, OverlappingWindowsBothReported) {
  // Subject "aba", partner "ab" and "ba" both occur; windows [0,2) and
  // [1,3) are each maximal ("aba" does not occur in partner "abba"?).
  Seq Subject = seq("aba");
  SuffixAutomaton RevPartner(reversed(seq("abba")));
  std::vector<MaximalMatch> M = maximalMatches(Subject, RevPartner);
  ASSERT_EQ(M.size(), 2u);
  EXPECT_EQ(M[0], (MaximalMatch{0, 2}));
  EXPECT_EQ(M[1], (MaximalMatch{1, 3}));
}

TEST(MatcherTest, DPAndSamAgreeOnKnownCases) {
  const std::pair<std::string, std::string> Cases[] = {
      {"abcabc", "cabca"}, {"aaaa", "aa"},     {"xyz", "xyz"},
      {"ab", "ba"},        {"abab", "babab"},  {"a", "a"},
      {"abc", "def"},      {"aabbaa", "abba"},
  };
  for (const auto &[S, P] : Cases) {
    Seq Subject = seq(S), Partner = seq(P);
    SuffixAutomaton RevPartner(reversed(Partner));
    EXPECT_EQ(maximalMatches(Subject, RevPartner),
              findMaximalMatchesDP(Subject, Partner))
        << "subject=" << S << " partner=" << P;
  }
}

// Differential property sweep: the SAM path and the DP oracle must
// agree on random repetition-rich inputs of varying sizes/alphabets.
struct MatcherSweepParams {
  size_t SubjectLength;
  size_t PartnerLength;
  uint32_t Alphabet;
};

class MatcherSweep : public ::testing::TestWithParam<MatcherSweepParams> {};

TEST_P(MatcherSweep, SamMatchesDPOracle) {
  const MatcherSweepParams &P = GetParam();
  Rng R(P.SubjectLength * 1000003 + P.PartnerLength * 101 + P.Alphabet);
  for (int Round = 0; Round < 25; ++Round) {
    Seq Subject = randomSeq(R, P.SubjectLength, P.Alphabet);
    Seq Partner = randomSeq(R, P.PartnerLength, P.Alphabet);
    SuffixAutomaton RevPartner(reversed(Partner));
    EXPECT_EQ(maximalMatches(Subject, RevPartner),
              findMaximalMatchesDP(Subject, Partner));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatcherSweep,
    ::testing::Values(MatcherSweepParams{5, 5, 2},
                      MatcherSweepParams{20, 20, 2},
                      MatcherSweepParams{20, 20, 4},
                      MatcherSweepParams{50, 30, 3},
                      MatcherSweepParams{30, 50, 3},
                      MatcherSweepParams{100, 100, 5},
                      MatcherSweepParams{1, 100, 2},
                      MatcherSweepParams{100, 1, 2}));

//===----------------------------------------------------------------------===//
// Maximal-match semantic properties
//===----------------------------------------------------------------------===//

TEST(MatcherTest, MaximalWindowsAreNonExtendable) {
  Rng R(777);
  for (int Round = 0; Round < 30; ++Round) {
    Seq Subject = randomSeq(R, 40, 3);
    Seq Partner = randomSeq(R, 40, 3);
    SuffixAutomaton RevPartner(reversed(Partner));
    for (const MaximalMatch &M : maximalMatches(Subject, RevPartner)) {
      Seq Window(Subject.begin() + M.Begin, Subject.begin() + M.End);
      EXPECT_TRUE(containsNaive(Partner, Window));
      if (M.Begin > 0) {
        Seq Left(Subject.begin() + M.Begin - 1, Subject.begin() + M.End);
        EXPECT_FALSE(containsNaive(Partner, Left));
      }
      if (M.End < Subject.size()) {
        Seq Right(Subject.begin() + M.Begin, Subject.begin() + M.End + 1);
        EXPECT_FALSE(containsNaive(Partner, Right));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// findOccurrences
//===----------------------------------------------------------------------===//

TEST(OccurrencesTest, OverlappingOccurrences) {
  EXPECT_EQ(findOccurrences(seq("aaaa"), seq("aa")),
            (std::vector<size_t>{0, 1, 2}));
}

TEST(OccurrencesTest, NoMatch) {
  EXPECT_TRUE(findOccurrences(seq("abc"), seq("d")).empty());
  EXPECT_TRUE(findOccurrences(seq("ab"), seq("abc")).empty());
  EXPECT_TRUE(findOccurrences(seq("ab"), {}).empty());
}

TEST(OccurrencesTest, FullStringMatch) {
  EXPECT_EQ(findOccurrences(seq("abc"), seq("abc")),
            (std::vector<size_t>{0}));
}
