//===- tests/KastKernelTest.cpp - The Kast Spectrum Kernel -----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Includes a reconstruction of the paper's §3.2 worked example: two
/// strings sharing substrings S1 (3 tokens), S2 and S3 (1 token each)
/// with feature vectors f(A) = {19, 13, 15} and f(B) = {35, 11, 14},
/// string weights 64 and 52, kernel value 1018 and normalized value
/// 1018/3328 = 0.3059 at cut weight 4.
///
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/Matcher.h"
#include "core/StringSerializer.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>

using namespace kast;

namespace {

/// Fixture building the worked-example strings.
///
///   A = s:4 m:8 u:7 f1:10 s:9 f2:9 u:4 f3:9 u:4      (weight 64)
///   B = s:6 m:4 u:7 g1:9 s:5 m:6 u:7 g2:8            (weight 52)
///
/// Shared substrings: S1 = "s m u" (A: 19; B: 17 + 18 = 35),
/// S2 = "s" (A: 4 + 9 = 13; B: 6 + 5 = 11; independent standalone
/// occurrence only in A), S3 = "u" (A: 7 + 4 + 4 = 15; B: 7 + 7 = 14;
/// two independent occurrences in A). "m" occurs in both strings but
/// only ever inside S1 occurrences, so it must NOT become a feature.
class WorkedExample : public ::testing::Test {
protected:
  void SetUp() override {
    Table = TokenTable::create();
    A = parseWeightedString("s:4 m:8 u:7 f1:10 s:9 f2:9 u:4 f3:9 u:4",
                            Table, "A")
            .take();
    B = parseWeightedString("s:6 m:4 u:7 g1:9 s:5 m:6 u:7 g2:8", Table,
                            "B")
            .take();
  }

  std::shared_ptr<TokenTable> Table;
  WeightedString A, B;
};

} // namespace

TEST_F(WorkedExample, StringWeightsMatchPaper) {
  EXPECT_EQ(A.totalWeight(), 64u);
  EXPECT_EQ(B.totalWeight(), 52u);
  // All tokens weigh >= 4, so weight_{w>=4} equals the total weight.
  EXPECT_EQ(A.filteredWeight(4), 64u);
  EXPECT_EQ(B.filteredWeight(4), 52u);
}

TEST_F(WorkedExample, ExactlyThreeFeatures) {
  KastSpectrumKernel K({/*CutWeight=*/4});
  std::vector<KastFeature> F = K.features(A, B);
  ASSERT_EQ(F.size(), 3u);
}

TEST_F(WorkedExample, FeatureVectorsMatchPaper) {
  KastSpectrumKernel K({/*CutWeight=*/4});
  std::vector<KastFeature> Features = K.features(A, B);

  // Index features by length for identification.
  const KastFeature *S1 = nullptr, *S2 = nullptr, *S3 = nullptr;
  for (const KastFeature &F : Features) {
    if (F.Literals.size() == 3)
      S1 = &F;
    else if (Table->literal(F.Literals[0]) == "s")
      S2 = &F;
    else if (Table->literal(F.Literals[0]) == "u")
      S3 = &F;
  }
  ASSERT_NE(S1, nullptr);
  ASSERT_NE(S2, nullptr);
  ASSERT_NE(S3, nullptr);

  // Eq. (3)-(10) of the paper.
  EXPECT_EQ(S1->WeightInA, 19u);
  EXPECT_EQ(S1->WeightInB, 35u);
  EXPECT_EQ(S1->CountInA, 1u);
  EXPECT_EQ(S1->CountInB, 2u);
  EXPECT_EQ(S2->WeightInA, 13u);
  EXPECT_EQ(S2->WeightInB, 11u);
  EXPECT_EQ(S3->WeightInA, 15u);
  EXPECT_EQ(S3->WeightInB, 14u);
}

TEST_F(WorkedExample, KernelValueIs1018) {
  KastSpectrumKernel K({/*CutWeight=*/4});
  // Eq. (11): <{19,13,15}, {35,11,14}> = 1018.
  EXPECT_DOUBLE_EQ(K.evaluate(A, B), 1018.0);
}

TEST_F(WorkedExample, SelfKernelIsSquaredWeight) {
  KastSpectrumKernel K({/*CutWeight=*/4});
  EXPECT_DOUBLE_EQ(K.evaluate(A, A), 64.0 * 64.0);
  EXPECT_DOUBLE_EQ(K.evaluate(B, B), 52.0 * 52.0);
}

TEST_F(WorkedExample, NormalizedValueMatchesEq12) {
  KastSpectrumKernel K({/*CutWeight=*/4});
  // Eq. (12)-(13): 1018 / (64 * 52) = 0.3059.
  EXPECT_NEAR(K.evaluateNormalized(A, B), 1018.0 / 3328.0, 1e-12);
  EXPECT_NEAR(K.evaluateNormalized(A, B), 0.3059, 5e-5);
}

TEST_F(WorkedExample, NestedOnlySubstringIsNotAFeature) {
  // "m" appears in both strings but never independently.
  KastSpectrumKernel K({/*CutWeight=*/4});
  for (const KastFeature &F : K.features(A, B))
    if (F.Literals.size() == 1) {
      EXPECT_NE(Table->literal(F.Literals[0]), "m");
    }
}

TEST_F(WorkedExample, HigherCutDropsLightOccurrences) {
  // Cut 8 (per occurrence): S2 loses its B occurrences (6 and 5) and
  // S3 all of its occurrences; only S1 survives: 19 * 35 = 665.
  KastSpectrumKernel K({/*CutWeight=*/8});
  EXPECT_DOUBLE_EQ(K.evaluate(A, B), 665.0);
}

TEST_F(WorkedExample, CutAboveAllOccurrencesGivesZero) {
  KastSpectrumKernel K({/*CutWeight=*/40});
  EXPECT_DOUBLE_EQ(K.evaluate(A, B), 0.0);
}

TEST_F(WorkedExample, StringsLighterThanCutIgnored) {
  KastSpectrumKernel K({/*CutWeight=*/60});
  // B weighs 52 < 60: the pair is ignored outright.
  EXPECT_DOUBLE_EQ(K.evaluate(A, B), 0.0);
  // And even B against itself.
  EXPECT_DOUBLE_EQ(K.evaluate(B, B), 0.0);
  // A (weight 64) is still comparable to itself.
  EXPECT_DOUBLE_EQ(K.evaluate(A, A), 4096.0);
}

TEST_F(WorkedExample, ReferenceMatcherAgrees) {
  KastKernelOptions Fast{/*CutWeight=*/4};
  KastKernelOptions Slow{/*CutWeight=*/4};
  Slow.UseReferenceMatcher = true;
  EXPECT_DOUBLE_EQ(KastSpectrumKernel(Fast).evaluate(A, B),
                   KastSpectrumKernel(Slow).evaluate(A, B));
}

TEST_F(WorkedExample, SymmetricKernel) {
  KastSpectrumKernel K({/*CutWeight=*/4});
  EXPECT_DOUBLE_EQ(K.evaluate(A, B), K.evaluate(B, A));
}

TEST_F(WorkedExample, PerFeatureTotalPolicy) {
  // Under the feature-total policy every occurrence counts and the cut
  // applies to the summed weights, which all exceed 4 here — same
  // value as the default policy for this example.
  KastKernelOptions Options{/*CutWeight=*/4};
  Options.Policy = CutPolicy::PerFeatureTotal;
  EXPECT_DOUBLE_EQ(KastSpectrumKernel(Options).evaluate(A, B), 1018.0);
  // But at cut 12, per-feature keeps S2 (13 vs 11 >= 12? no — 11 < 12
  // drops it) while keeping S3 (15, 14): value = 19*35 + 15*14.
  KastKernelOptions Cut12{/*CutWeight=*/12};
  Cut12.Policy = CutPolicy::PerFeatureTotal;
  EXPECT_DOUBLE_EQ(KastSpectrumKernel(Cut12).evaluate(A, B),
                   19.0 * 35 + 15.0 * 14);
}

//===----------------------------------------------------------------------===//
// Generic behavior beyond the worked example
//===----------------------------------------------------------------------===//

namespace {

WeightedString fromText(const std::shared_ptr<TokenTable> &Table,
                        const std::string &Text) {
  return parseWeightedString(Text, Table).take();
}

} // namespace

TEST(KastKernelTest, EmptyStringsGiveZero) {
  auto Table = TokenTable::create();
  WeightedString Empty(Table), S = fromText(Table, "a:5");
  KastSpectrumKernel K({/*CutWeight=*/1});
  EXPECT_DOUBLE_EQ(K.evaluate(Empty, S), 0.0);
  EXPECT_DOUBLE_EQ(K.evaluate(Empty, Empty), 0.0);
  EXPECT_DOUBLE_EQ(K.evaluateNormalized(Empty, S), 0.0);
}

TEST(KastKernelTest, IdenticalStringsNormalizeToOne) {
  auto Table = TokenTable::create();
  WeightedString S = fromText(Table, "a:3 b:4 c:5");
  WeightedString T = fromText(Table, "a:3 b:4 c:5");
  KastSpectrumKernel K({/*CutWeight=*/2});
  EXPECT_NEAR(K.evaluateNormalized(S, T), 1.0, 1e-12);
}

TEST(KastKernelTest, DisjointAlphabetsGiveZero) {
  auto Table = TokenTable::create();
  WeightedString S = fromText(Table, "a:3 b:4");
  WeightedString T = fromText(Table, "x:3 y:4");
  KastSpectrumKernel K({/*CutWeight=*/1});
  EXPECT_DOUBLE_EQ(K.evaluate(S, T), 0.0);
}

TEST(KastKernelTest, WeightsDifferPerOccurrence) {
  // The same literal sequence with different weights on each side
  // still matches; feature values use each side's own weights.
  auto Table = TokenTable::create();
  WeightedString S = fromText(Table, "a:10 b:10");
  WeightedString T = fromText(Table, "a:1 b:2");
  KastSpectrumKernel K({/*CutWeight=*/1});
  // Single shared feature "a b": 20 * 3.
  EXPECT_DOUBLE_EQ(K.evaluate(S, T), 60.0);
}

TEST(KastKernelTest, RepeatedSubstringAccumulates) {
  auto Table = TokenTable::create();
  // "a b" twice in S (weights 3 and 7), once in T (weight 5), with
  // per-side fillers blocking extension.
  WeightedString S = fromText(Table, "a:1 b:2 x:9 a:3 b:4");
  WeightedString T = fromText(Table, "y:9 a:2 b:3 z:9");
  KastSpectrumKernel K({/*CutWeight=*/2});
  // Features: "a b" -> S: 3 + 7, T: 5  => 50.
  EXPECT_DOUBLE_EQ(K.evaluate(S, T), 50.0);
}

// The Gram names a candidate by the partner state its maximal match
// reaches in the matching walk; that must be the state locate() finds
// for the match read back to front, and the walk must report exactly
// the dynamic program's matches.
TEST(KastKernelTest, MaximalMatchStatesLocateTheMatches) {
  Rng R(77);
  for (int Round = 0; Round < 20; ++Round) {
    std::vector<uint32_t> Subject, Partner;
    for (int I = 0; I < 40; ++I)
      Subject.push_back(static_cast<uint32_t>(R.uniformInt(0, 2)));
    for (int I = 0; I < 30; ++I)
      Partner.push_back(static_cast<uint32_t>(R.uniformInt(0, 2)));
    SuffixAutomaton RevPartner(reversed(Partner));
    std::vector<MaximalMatch> Matches;
    visitMaximalMatches(
        reversed(Subject), RevPartner,
        [&](size_t End, uint32_t Length, int32_t State) {
          const size_t Begin = Subject.size() - 1 - End;
          auto First = Subject.begin() + static_cast<ptrdiff_t>(Begin);
          EXPECT_EQ(State,
                    RevPartner.locate(std::make_reverse_iterator(First + Length),
                                      std::make_reverse_iterator(First)))
              << "round " << Round << " match at " << Begin;
          Matches.insert(Matches.begin(), {Begin, Begin + Length});
        });
    EXPECT_EQ(Matches, findMaximalMatchesDP(Subject, Partner));
  }
}

TEST(KastKernelTest, NameMentionsCut) {
  KastSpectrumKernel K({/*CutWeight=*/16});
  EXPECT_NE(K.name().find("16"), std::string::npos);
}

// Property sweep: on random weighted strings, under both cut policies,
// the kernel must be symmetric, produce the reference matcher's whole
// embedding (literals, weights, counts and their order), give the same
// value through cached precomputations, and normalize self-similarity
// to 1. The long low-alphabet rows make occurrences overlap and nest.
class KastKernelSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, CutPolicy>> {
};

TEST_P(KastKernelSweep, SymmetryAndMatcherEquivalence) {
  auto [Length, Alphabet, Cut, Policy] = GetParam();
  Rng R(Length * 7919 + Alphabet * 31 + Cut);
  auto Table = TokenTable::create();
  // The reference matcher is quadratic; long rows run fewer rounds.
  const int Rounds = Length > 100 ? 3 : 10;
  for (int Round = 0; Round < Rounds; ++Round) {
    WeightedString S(Table), T(Table);
    for (int I = 0; I < Length; ++I)
      S.append("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
               R.uniformInt(1, 9));
    for (int I = 0; I < Length; ++I)
      T.append("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
               R.uniformInt(1, 9));

    KastKernelOptions Fast{static_cast<uint64_t>(Cut), Policy};
    KastKernelOptions Slow = Fast;
    Slow.UseReferenceMatcher = true;
    KastSpectrumKernel KFast(Fast), KSlow(Slow);

    EXPECT_EQ(KFast.features(S, T), KSlow.features(S, T));
    double Kst = KFast.evaluate(S, T);
    EXPECT_DOUBLE_EQ(Kst, KFast.evaluate(T, S));
    EXPECT_EQ(Kst, KSlow.evaluate(S, T));

    std::unique_ptr<KernelPrecomputation> PrepS = KFast.precompute(S),
                                          PrepT = KFast.precompute(T);
    EXPECT_EQ(KFast.evaluatePrepared(S, PrepS.get(), T, PrepT.get()), Kst);
    EXPECT_EQ(KFast.evaluatePrepared(S, PrepS.get(), T, nullptr), Kst);
    EXPECT_EQ(KFast.evaluatePrepared(S, nullptr, T, PrepT.get()), Kst);
    if (S.totalWeight() >= static_cast<uint64_t>(Cut)) {
      EXPECT_NEAR(KFast.evaluateNormalized(S, S), 1.0, 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KastKernelSweep,
    ::testing::Combine(::testing::Values(3, 10, 40),
                       ::testing::Values(2, 4, 8),
                       ::testing::Values(1, 2, 8),
                       ::testing::Values(CutPolicy::PerOccurrence,
                                         CutPolicy::PerFeatureTotal)));

INSTANTIATE_TEST_SUITE_P(
    LongLowAlphabet, KastKernelSweep,
    ::testing::Combine(::testing::Values(300, 600),
                       ::testing::Values(2, 3),
                       ::testing::Values(2, 8),
                       ::testing::Values(CutPolicy::PerOccurrence,
                                         CutPolicy::PerFeatureTotal)));
