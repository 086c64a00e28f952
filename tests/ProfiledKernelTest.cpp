//===- tests/ProfiledKernelTest.cpp - profile/direct equivalence -----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The profiled-kernel fast path must be observationally identical to
// direct pairwise evaluation. The reference evaluators below rebuild
// the pre-profile tree-map semantics (aggregate every feature of both
// strings per pair, multiply shared aggregates), and the randomized
// sweeps assert profile(A).dot(profile(B)) matches them to 1e-9
// relative across alphabet sizes, lengths, weights and cut
// configurations. computeKernelMatrix's fast fills are checked against
// its pairwise fill the same way.
//
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/KernelMatrix.h"
#include "core/StringSerializer.h"
#include "kernels/BagOfWordsKernel.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <vector>

using namespace kast;

namespace {

WeightedString fromText(const std::shared_ptr<TokenTable> &Table,
                        const std::string &Text) {
  return parseWeightedString(Text, Table).take();
}

/// Random weighted string; with \p StructuralEvery > 0, roughly one in
/// that many tokens is a structural delimiter (for bag-of-words).
WeightedString randomString(const std::shared_ptr<TokenTable> &Table,
                            Rng &R, size_t Length, uint32_t Alphabet,
                            size_t StructuralEvery = 0) {
  WeightedString S(Table);
  for (size_t I = 0; I < Length; ++I) {
    if (StructuralEvery > 0 && R.uniformInt(1, StructuralEvery) == 1) {
      S.append(BlockLiteral, 1);
      continue;
    }
    S.append("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
             R.uniformInt(1, 16));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Reference evaluators: the pre-profile tree-map semantics.
//===----------------------------------------------------------------------===//

std::map<std::vector<uint32_t>, double>
referenceGramValues(const WeightedString &X, size_t Length,
                    const SpectrumOptions &Options) {
  std::map<std::vector<uint32_t>, double> Values;
  const std::vector<uint32_t> &Ids = X.literalIds();
  if (Length > Ids.size())
    return Values;
  for (size_t I = 0; I + Length <= Ids.size(); ++I) {
    double Contribution = 1.0;
    if (Options.Weighted) {
      uint64_t W = X.rangeWeight(I, I + Length);
      if (W < Options.CutWeight)
        continue;
      Contribution = static_cast<double>(W);
    }
    std::vector<uint32_t> Key(Ids.begin() + I, Ids.begin() + I + Length);
    Values[std::move(Key)] += Contribution;
  }
  return Values;
}

double referenceSpectrum(const WeightedString &A, const WeightedString &B,
                         const SpectrumOptions &Options) {
  double Sum = 0.0;
  for (size_t L = Options.MinLength; L <= Options.MaxLength; ++L) {
    auto InA = referenceGramValues(A, L, Options);
    auto InB = referenceGramValues(B, L, Options);
    double LengthSum = 0.0;
    for (const auto &[Key, Value] : InA) {
      auto It = InB.find(Key);
      if (It != InB.end())
        LengthSum += Value * It->second;
    }
    Sum += std::pow(Options.Lambda, 2.0 * static_cast<double>(L)) * LengthSum;
  }
  return Sum;
}

bool isStructural(const std::string &Literal) {
  return Literal == RootLiteral || Literal == HandleLiteral ||
         Literal == BlockLiteral || Literal == LevelUpLiteral;
}

std::map<std::vector<uint32_t>, double>
referenceWordValues(const WeightedString &X, bool Weighted) {
  std::map<std::vector<uint32_t>, double> Values;
  std::vector<uint32_t> Word;
  double Weight = 0.0;
  auto Flush = [&] {
    if (!Word.empty())
      Values[Word] += Weighted ? Weight : 1.0;
    Word.clear();
    Weight = 0.0;
  };
  for (size_t I = 0; I < X.size(); ++I) {
    if (isStructural(X.literal(I))) {
      Flush();
      continue;
    }
    Word.push_back(X.literalId(I));
    Weight += static_cast<double>(X.weight(I));
  }
  Flush();
  return Values;
}

double referenceBagOfWords(const WeightedString &A, const WeightedString &B,
                           bool Weighted) {
  auto InA = referenceWordValues(A, Weighted);
  auto InB = referenceWordValues(B, Weighted);
  double Sum = 0.0;
  for (const auto &[Key, Value] : InA) {
    auto It = InB.find(Key);
    if (It != InB.end())
      Sum += Value * It->second;
  }
  return Sum;
}

void expectRelNear(double Actual, double Expected, const std::string &What) {
  double Tolerance = 1e-9 * std::max(1.0, std::fabs(Expected));
  EXPECT_NEAR(Actual, Expected, Tolerance) << What;
}

//===----------------------------------------------------------------------===//
// Randomized profile/direct equivalence
//===----------------------------------------------------------------------===//

TEST(ProfiledKernelTest, SpectrumFamilyMatchesReferenceRandomized) {
  Rng R(20260730);
  size_t Pairs = 0;
  const uint32_t Alphabets[] = {2, 4, 8, 26};
  const uint64_t Cuts[] = {0, 2, 5};
  const double Lambdas[] = {0.5, 1.0, 1.25};
  for (uint32_t Alphabet : Alphabets) {
    auto Table = TokenTable::create();
    for (int Trial = 0; Trial < 16; ++Trial) {
      WeightedString A =
          randomString(Table, R, R.uniformInt(0, 40), Alphabet);
      WeightedString B =
          randomString(Table, R, R.uniformInt(0, 40), Alphabet);
      SpectrumOptions Options;
      Options.MinLength = R.uniformInt(1, 3);
      Options.MaxLength = Options.MinLength + R.uniformInt(0, 2);
      Options.Lambda = Lambdas[R.uniformInt(0, 2)];
      Options.Weighted = R.flip(0.5);
      Options.CutWeight = Cuts[R.uniformInt(0, 2)];
      SpectrumFamilyKernel Kernel(Options);

      double Direct = referenceSpectrum(A, B, Options);
      double Profiled = Kernel.profile(A).dot(Kernel.profile(B));
      expectRelNear(Profiled, Direct, Kernel.name());
      EXPECT_DOUBLE_EQ(Kernel.evaluate(A, B), Profiled) << Kernel.name();
      ++Pairs;
    }
  }
  // Concrete subclasses, including weighted/cut configurations.
  auto Table = TokenTable::create();
  for (int Trial = 0; Trial < 48; ++Trial) {
    WeightedString A = randomString(Table, R, R.uniformInt(0, 48), 6);
    WeightedString B = randomString(Table, R, R.uniformInt(0, 48), 6);
    bool Weighted = R.flip(0.5);
    uint64_t Cut = Cuts[R.uniformInt(0, 2)];

    KSpectrumKernel KSpec(R.uniformInt(1, 4), Weighted, Cut);
    expectRelNear(KSpec.profile(A).dot(KSpec.profile(B)),
                  referenceSpectrum(A, B, KSpec.options()), KSpec.name());

    BlendedSpectrumKernel Blended(R.uniformInt(1, 3),
                                  Lambdas[R.uniformInt(0, 2)], Weighted,
                                  Cut);
    expectRelNear(Blended.profile(A).dot(Blended.profile(B)),
                  referenceSpectrum(A, B, Blended.options()),
                  Blended.name());

    BagOfTokensKernel Bag(Weighted, Cut);
    expectRelNear(Bag.profile(A).dot(Bag.profile(B)),
                  referenceSpectrum(A, B, Bag.options()), Bag.name());
    Pairs += 3;
  }
  EXPECT_GE(Pairs, 200u);
}

TEST(ProfiledKernelTest, BagOfWordsMatchesReferenceRandomized) {
  Rng R(77001);
  auto Table = TokenTable::create();
  for (int Trial = 0; Trial < 64; ++Trial) {
    WeightedString A = randomString(Table, R, R.uniformInt(0, 40), 5,
                                    /*StructuralEvery=*/4);
    WeightedString B = randomString(Table, R, R.uniformInt(0, 40), 5,
                                    /*StructuralEvery=*/4);
    bool Weighted = R.flip(0.5);
    BagOfWordsKernel Kernel(Weighted);
    double Direct = referenceBagOfWords(A, B, Weighted);
    double Profiled = Kernel.profile(A).dot(Kernel.profile(B));
    expectRelNear(Profiled, Direct, Kernel.name());
    EXPECT_DOUBLE_EQ(Kernel.evaluate(A, B), Profiled);
  }
}

//===----------------------------------------------------------------------===//
// Edge cases
//===----------------------------------------------------------------------===//

TEST(ProfiledKernelTest, EmptyStringsProfileEmpty) {
  auto Table = TokenTable::create();
  WeightedString Empty(Table);
  WeightedString S = fromText(Table, "a b c");
  BlendedSpectrumKernel Blended(3, 0.5, true, 2);
  KSpectrumKernel KSpec(2);
  BagOfTokensKernel Bag;
  BagOfWordsKernel Words(true);
  for (const ProfiledStringKernel *Kernel :
       std::initializer_list<const ProfiledStringKernel *>{&Blended, &KSpec,
                                                           &Bag, &Words}) {
    EXPECT_TRUE(Kernel->profile(Empty).empty()) << Kernel->name();
    EXPECT_DOUBLE_EQ(Kernel->evaluate(Empty, S), 0.0) << Kernel->name();
    EXPECT_DOUBLE_EQ(Kernel->evaluate(Empty, Empty), 0.0) << Kernel->name();
  }
}

TEST(ProfiledKernelTest, CutAboveAllWeightsEmptiesProfile) {
  auto Table = TokenTable::create();
  // Max 2-gram weight is 3 + 4 = 7 < cut 100: everything filtered.
  WeightedString S = fromText(Table, "a:3 b:4 a:2");
  KSpectrumKernel Kernel(2, /*Weighted=*/true, /*CutWeight=*/100);
  EXPECT_TRUE(Kernel.profile(S).empty());
  EXPECT_DOUBLE_EQ(Kernel.evaluate(S, S), 0.0);
  // At the boundary the gram qualifies again.
  KSpectrumKernel Boundary(2, /*Weighted=*/true, /*CutWeight=*/7);
  EXPECT_DOUBLE_EQ(Boundary.evaluate(S, S), 49.0);
}

TEST(ProfiledKernelTest, ShorterThanMinLengthProfilesEmpty) {
  auto Table = TokenTable::create();
  WeightedString S = fromText(Table, "a b");
  KSpectrumKernel Kernel(5);
  EXPECT_TRUE(Kernel.profile(S).empty());
  EXPECT_DOUBLE_EQ(Kernel.evaluate(S, S), 0.0);
}

TEST(ProfiledKernelTest, WordSegmentationIsPartOfTheFeature) {
  auto Table = TokenTable::create();
  // One word {a b} vs two words {a}, {b}: no shared feature.
  WeightedString OneWord = fromText(Table, "a b");
  WeightedString TwoWords = fromText(Table, "a [BLOCK] b");
  BagOfWordsKernel Kernel;
  EXPECT_DOUBLE_EQ(Kernel.evaluate(OneWord, TwoWords), 0.0);
}

//===----------------------------------------------------------------------===//
// Gram matrix: fast path == generic path
//===----------------------------------------------------------------------===//

std::vector<WeightedString>
randomCorpus(const std::shared_ptr<TokenTable> &Table, Rng &R, size_t N) {
  std::vector<WeightedString> Corpus;
  for (size_t I = 0; I < N; ++I)
    Corpus.push_back(randomString(Table, R, R.uniformInt(1, 24), 5));
  return Corpus;
}

void expectSameMatrix(const Matrix &Fast, const Matrix &Generic,
                      const std::string &What) {
  ASSERT_EQ(Fast.rows(), Generic.rows()) << What;
  for (size_t I = 0; I < Fast.rows(); ++I)
    for (size_t J = 0; J < Fast.cols(); ++J)
      EXPECT_NEAR(Fast.at(I, J), Generic.at(I, J),
                  1e-9 * std::max(1.0, std::fabs(Generic.at(I, J))))
          << What << " at (" << I << ", " << J << ")";
}

TEST(ProfiledKernelTest, GramFastPathMatchesGenericPath) {
  Rng R(5150);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 12);

  const BlendedSpectrumKernel Blended(3, 1.0, /*Weighted=*/true,
                                      /*CutWeight=*/2);
  const KastSpectrumKernel Kast(
      {/*CutWeight=*/2, CutPolicy::PerOccurrence, false});

  for (const StringKernel *Kernel :
       std::initializer_list<const StringKernel *>{&Blended, &Kast}) {
    for (bool Normalize : {false, true}) {
      KernelMatrixOptions Fast;
      Fast.Normalize = Normalize;
      Fast.RepairPsd = true;
      Fast.Threads = 1;
      KernelMatrixOptions Generic = Fast;
      Generic.UsePrecompute = false;
      expectSameMatrix(computeKernelMatrix(*Kernel, Corpus, Fast),
                       computeKernelMatrix(*Kernel, Corpus, Generic),
                       Kernel->name());
    }
  }
}

TEST(ProfiledKernelTest, GramPairIndexInversionCoversAllCells) {
  // Off-diagonal zeros would betray a mis-inverted pair index; use a
  // kernel that is nonzero for every pair (bag of tokens over a shared
  // alphabet with every string containing token "t0"), on the pairwise
  // fill, which walks that index (a profiled kernel would otherwise
  // take the tiled arena fill).
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus;
  for (size_t I = 0; I < 9; ++I) {
    WeightedString S(Table);
    S.append("t0", 1);
    S.append("t" + std::to_string(I % 3), 2);
    Corpus.push_back(S);
  }
  BagOfTokensKernel Kernel;
  KernelMatrixOptions Options;
  Options.Normalize = false;
  Options.UsePrecompute = false;
  for (size_t Threads : {size_t(1), size_t(0)}) {
    Options.Threads = Threads;
    Matrix K = computeKernelMatrix(Kernel, Corpus, Options);
    for (size_t I = 0; I < K.rows(); ++I)
      for (size_t J = 0; J < K.cols(); ++J) {
        EXPECT_GT(K.at(I, J), 0.0) << I << "," << J;
        EXPECT_DOUBLE_EQ(K.at(I, J), K.at(J, I));
        EXPECT_DOUBLE_EQ(K.at(I, J), Kernel.evaluate(Corpus[I], Corpus[J]));
      }
  }
}

} // namespace
