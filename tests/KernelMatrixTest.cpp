//===- tests/KernelMatrixTest.cpp - incremental Gram growth ----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The KernelMatrix growth contract: appendRows must evaluate exactly
// the entries the new strings introduce (verified by an
// evaluation-count probe) and produce the same matrix as a one-shot
// build; the grouped Kast fill must reproduce the pairwise Gram bit for
// bit, including past 2^53 where it falls back to the ordered sum, its
// output on long parallel-trace strings is pinned by digest, and one
// multi-cut fill (computeKastGrams) must give each cut's Gram; the
// closed-form pair-index inversions must agree with loop-based
// references across the whole size range the float-root "nudge" is
// supposed to cover; normalization must keep an exactly unit diagonal
// even for zero-length strings.
//
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/KernelMatrix.h"
#include "core/Pipeline.h"
#include "core/StringSerializer.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"
#include "workloads/Mutator.h"
#include "workloads/ParallelTrace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>

using namespace kast;

namespace {

WeightedString randomString(const std::shared_ptr<TokenTable> &Table,
                            Rng &R, size_t Length, uint32_t Alphabet) {
  WeightedString S(Table);
  for (size_t I = 0; I < Length; ++I)
    S.append("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
             R.uniformInt(1, 16));
  return S;
}

std::vector<WeightedString>
randomCorpus(const std::shared_ptr<TokenTable> &Table, Rng &R, size_t N) {
  std::vector<WeightedString> Corpus;
  for (size_t I = 0; I < N; ++I)
    Corpus.push_back(randomString(Table, R, R.uniformInt(1, 24), 5));
  return Corpus;
}

/// Forwarding wrapper that counts pairwise evaluations — the probe the
/// appendRows contract is asserted with.
class CountingKernel : public StringKernel {
public:
  explicit CountingKernel(const StringKernel &Inner) : Inner(Inner) {}

  double evaluate(const WeightedString &A,
                  const WeightedString &B) const override {
    ++Evaluations;
    return Inner.evaluate(A, B);
  }
  std::string name() const override { return "counting(" + Inner.name() + ")"; }

  mutable std::atomic<size_t> Evaluations{0};

private:
  const StringKernel &Inner;
};

/// The same literal sequence as \p Base with fresh weights in
/// [1, MaxWeight] — a member of Base's group in the grouped Kast fill.
WeightedString reweighted(const WeightedString &Base, Rng &R,
                          uint64_t MaxWeight = 16) {
  WeightedString S(Base.table());
  for (size_t I = 0; I < Base.size(); ++I)
    S.append(Base.literalId(I), R.uniformInt(1, MaxWeight));
  return S;
}

/// Gram corpora by how often literal sequences repeat: Kind 0 draws
/// every string fresh, Kind 1 reweights four base sequences over and
/// over, Kind 2 mixes both. Every corpus also holds empty strings.
std::vector<WeightedString>
groupedCorpus(const std::shared_ptr<TokenTable> &Table, Rng &R, int Kind,
              size_t N) {
  std::vector<WeightedString> Bases;
  for (int B = 0; B < 4; ++B)
    Bases.push_back(randomString(Table, R, R.uniformInt(1, 24), 4));
  std::vector<WeightedString> Corpus;
  for (size_t I = 0; I < N; ++I) {
    if (I % 9 == 4)
      Corpus.push_back(WeightedString(Table));
    else if (Kind == 1 || (Kind == 2 && I % 2 == 0))
      Corpus.push_back(reweighted(R.pick(Bases), R));
    else
      Corpus.push_back(randomString(Table, R, R.uniformInt(1, 24), 4));
  }
  return Corpus;
}

/// The raw Gram from per-pair KastSpectrumKernel::evaluate, the
/// reference the grouped fill must reproduce bit for bit.
Matrix pairwiseReference(const StringKernel &Kernel,
                         const std::vector<WeightedString> &Strings) {
  const size_t N = Strings.size();
  Matrix K(N, N, 0.0);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I; J < N; ++J)
      K.at(I, J) = K.at(J, I) = Kernel.evaluate(Strings[I], Strings[J]);
  return K;
}

void expectBitwiseEqual(const Matrix &A, const Matrix &B) {
  ASSERT_EQ(A.rows(), B.rows());
  ASSERT_EQ(A.cols(), B.cols());
  if (std::memcmp(A.data().data(), B.data().data(),
                  A.data().size() * sizeof(double)) == 0)
    return;
  for (size_t P = 0; P < A.data().size(); ++P)
    if (std::memcmp(&A.data()[P], &B.data()[P], sizeof(double)) != 0) {
      ADD_FAILURE() << "first difference at (" << P / A.cols() << ", "
                    << P % A.cols() << "): " << A.data()[P] << " vs "
                    << B.data()[P];
      return;
    }
}

/// FNV-1a over the bytes of every value fed in.
struct Fnv1a {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  void doubles(const std::vector<double> &Values) {
    const auto *Bytes = reinterpret_cast<const unsigned char *>(Values.data());
    for (size_t I = 0; I < Values.size() * sizeof(double); ++I) {
      Hash ^= Bytes[I];
      Hash *= 0x100000001b3ULL;
    }
  }
};

/// A reduced `ranks` corpus: in each category, bases over 16 to 48
/// interleaved ranks plus mutants of each, converted with bytes. The
/// strings run to hundreds of tokens, share long runs and give deep
/// suffix-link chains.
std::vector<WeightedString> parallelTraceCorpus() {
  Rng R(1648);
  const Pipeline P = Pipeline::withBytes();
  const Category Categories[] = {Category::FlashIO, Category::RandomPosix,
                                 Category::NormalIO, Category::RandomAccess};
  const size_t RankCounts[][2] = {{16, 37}, {27, 48}, {48, 21}, {32, 16}};
  std::vector<WeightedString> Corpus;
  for (size_t C = 0; C < 4; ++C)
    for (size_t Ranks : RankCounts[C]) {
      const Trace Base = generateParallelTrace(Categories[C], Ranks, R);
      Corpus.push_back(P.convert(Base));
      for (int M = 0; M < 3; ++M)
        Corpus.push_back(P.convert(mutateTrace(Base, R)));
    }
  return Corpus;
}

void expectSameMatrix(const Matrix &A, const Matrix &B) {
  ASSERT_EQ(A.rows(), B.rows());
  ASSERT_EQ(A.cols(), B.cols());
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J)
      EXPECT_NEAR(A.at(I, J), B.at(I, J),
                  1e-12 * std::max(1.0, std::fabs(B.at(I, J))))
          << "(" << I << ", " << J << ")";
}

//===----------------------------------------------------------------------===//
// appendRows: exact evaluation counts, no rebuild of existing entries
//===----------------------------------------------------------------------===//

TEST(KernelMatrixTest, AppendRowsEvaluatesOnlyNewEntries) {
  const size_t N = 96, M = 32;
  Rng R(96320);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Base = randomCorpus(Table, R, N);
  std::vector<WeightedString> Extra = randomCorpus(Table, R, M);

  BlendedSpectrumKernel Inner(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  CountingKernel Probe(Inner);

  KernelMatrixOptions Options;
  Options.Threads = 1;
  KernelMatrix Gram(Probe, Options);

  Gram.appendRows(Base);
  EXPECT_EQ(Probe.Evaluations.load(), N + N * (N - 1) / 2);

  // Growing by M must evaluate exactly the new entries — M diagonal
  // values, the N×M rectangle, and the M(M-1)/2 new-pair triangle —
  // and none of the existing N×N block.
  Probe.Evaluations = 0;
  Gram.appendRows(Extra);
  EXPECT_EQ(Probe.Evaluations.load(), M + N * M + M * (M - 1) / 2);
  EXPECT_EQ(Gram.size(), N + M);

  // And the grown matrix must equal the one-shot build over all N+M.
  std::vector<WeightedString> All = Base;
  All.insert(All.end(), Extra.begin(), Extra.end());
  expectSameMatrix(Gram.raw(),
                   [&] {
                     KernelMatrixOptions RawOptions = Options;
                     RawOptions.Normalize = false;
                     return computeKernelMatrix(Inner, All, RawOptions);
                   }());
  expectSameMatrix(Gram.materialize(), computeKernelMatrix(Inner, All, Options));
}

TEST(KernelMatrixTest, AppendRowsInStagesMatchesOneShot) {
  Rng R(171717);
  auto Table = TokenTable::create();
  std::vector<WeightedString> All = randomCorpus(Table, R, 23);

  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  KernelMatrixOptions Options;
  Options.Threads = 0; // Exercise the parallel fill.

  KernelMatrix Gram(Kernel, Options);
  size_t Cuts[] = {0, 7, 7, 15, 16, 23};
  for (size_t C = 0; C + 1 < std::size(Cuts); ++C)
    Gram.appendRows({All.begin() + Cuts[C], All.begin() + Cuts[C + 1]});

  EXPECT_EQ(Gram.size(), All.size());
  KernelMatrix OneShot(Kernel, Options);
  OneShot.appendRows(All);
  expectBitwiseEqual(Gram.raw(), OneShot.raw());
  expectBitwiseEqual(Gram.materialize(), OneShot.materialize());
}

// Staged appends that revisit groups: the second batch brings new
// members of the first batch's literal sequences beside new sequences,
// and the third holds only duplicates of old rows (exact copies and
// reweighted ones), so every one of its group pairs has old members on
// both sides.
TEST(KernelMatrixTest, AppendRowsGrowsEarlierGroupsBitwise) {
  Rng R(4242);
  auto Table = TokenTable::create();
  std::vector<WeightedString> First = randomCorpus(Table, R, 8);
  std::vector<WeightedString> Second, Third;
  for (size_t I = 0; I < 6; ++I)
    Second.push_back(reweighted(First[I % First.size()], R));
  for (WeightedString &S : randomCorpus(Table, R, 4))
    Second.push_back(std::move(S));
  for (size_t I = 0; I < First.size(); I += 2) {
    Third.push_back(First[I]);
    Third.push_back(reweighted(Second[I], R));
  }
  std::vector<WeightedString> All = First;
  All.insert(All.end(), Second.begin(), Second.end());
  All.insert(All.end(), Third.begin(), Third.end());

  for (uint64_t Cut : {2u, 24u})
    for (size_t Threads : {1u, 0u}) {
      SCOPED_TRACE("cut " + std::to_string(Cut) + ", threads " +
                   std::to_string(Threads));
      KastSpectrumKernel Kernel({Cut});
      KernelMatrixOptions Options;
      Options.Threads = Threads;
      KernelMatrix Staged(Kernel, Options);
      Staged.appendRows(First);
      Staged.appendRows(Second);
      Staged.appendRows(Third);
      KernelMatrix OneShot(Kernel, Options);
      OneShot.appendRows(All);
      expectBitwiseEqual(Staged.raw(), OneShot.raw());
      expectBitwiseEqual(Staged.raw(), pairwiseReference(Kernel, All));
      for (size_t I = 0; I < All.size(); ++I)
        EXPECT_EQ(Staged.diagonal()[I], Staged.raw().at(I, I));
    }
}

//===----------------------------------------------------------------------===//
// The grouped Kast fill against the pairwise evaluations
//===----------------------------------------------------------------------===//

// The grouped fill finds candidates once per pair of literal sequences
// and scores member pairs by exact integer dots; the pairwise paths sort
// every pair's candidates and sum in double. Both must give the same
// bits, under both cut policies, with the cut below every string's
// total weight, between them and above all of them (where every entry
// is zero), serially and in parallel.
TEST(KernelMatrixTest, GroupedKastGramMatchesPairwiseBitwise) {
  for (int Kind = 0; Kind < 3; ++Kind) {
    Rng R(900 + Kind);
    auto Table = TokenTable::create();
    std::vector<WeightedString> Corpus = groupedCorpus(Table, R, Kind, 40);
    // At cut 12 the first string is lighter than the cut, yet under
    // PerFeatureTotal its two overlapping "a a" occurrences (8 + 7)
    // would qualify against the second's (8 + 8): it must stay ignored.
    Corpus.push_back(parseWeightedString("a:4 a:4 a:3", Table).take());
    Corpus.push_back(parseWeightedString("a:4 a:4 b:4 a:4 a:4", Table).take());
    uint64_t MaxTotal = 0;
    for (const WeightedString &S : Corpus)
      MaxTotal = std::max(MaxTotal, S.totalWeight());
    for (CutPolicy Policy :
         {CutPolicy::PerOccurrence, CutPolicy::PerFeatureTotal})
      for (uint64_t Cut : {uint64_t{1}, uint64_t{12}, MaxTotal / 2,
                           MaxTotal + 1}) {
        KastSpectrumKernel Kernel({Cut, Policy});
        const Matrix Reference = pairwiseReference(Kernel, Corpus);
        for (size_t Threads : {1u, 0u}) {
          SCOPED_TRACE("kind " + std::to_string(Kind) + ", cut " +
                       std::to_string(Cut) + ", policy " +
                       std::to_string(static_cast<int>(Policy)) +
                       ", threads " + std::to_string(Threads));
          KernelMatrixOptions Options;
          Options.Threads = Threads;
          Options.Normalize = false;
          KernelMatrix Grouped(Kernel, Options);
          Grouped.appendRows(Corpus);
          Options.UsePrecompute = false;
          KernelMatrix Pairwise(Kernel, Options);
          Pairwise.appendRows(Corpus);
          expectBitwiseEqual(Grouped.raw(), Reference);
          expectBitwiseEqual(Pairwise.raw(), Reference);
        }
      }
  }
}

// Token weights near 2^27 make feature products near 2^54, so the exact
// integer sum of an entry passes 2^53, where a double can no longer
// hold every partial sum and the summation order decides the bits. The
// grouped fill must notice and take the ordered sum for those entries.
TEST(KernelMatrixTest, GroupedKastGramFallsBackPast2To53) {
  __extension__ typedef unsigned __int128 Wide;
  Rng R(2053);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Bases;
  for (int B = 0; B < 3; ++B)
    Bases.push_back(randomString(Table, R, 12, 3));
  std::vector<WeightedString> Corpus;
  for (int I = 0; I < 12; ++I) {
    WeightedString S(Table);
    const WeightedString &Base = Bases[I % Bases.size()];
    for (size_t T = 0; T < Base.size(); ++T)
      S.append(Base.literalId(T), (uint64_t{1} << 27) + R.uniformInt(0, 4095));
    Corpus.push_back(std::move(S));
  }

  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  // The exact value of every entry, and how many of them reach 2^53 —
  // and how many of those a rounded exact sum would get wrong.
  size_t Past = 0, Misrounded = 0;
  for (size_t I = 0; I < Corpus.size(); ++I)
    for (size_t J = I; J < Corpus.size(); ++J) {
      Wide Exact = 0;
      for (const KastFeature &F : Kernel.features(Corpus[I], Corpus[J]))
        Exact += static_cast<Wide>(F.WeightInA) * F.WeightInB;
      if (Exact >= (Wide(1) << 53)) {
        ++Past;
        Misrounded += static_cast<double>(Exact) !=
                      Kernel.evaluate(Corpus[I], Corpus[J]);
      }
    }
  ASSERT_GT(Past, 0u);
  EXPECT_GT(Misrounded, 0u);

  for (size_t Threads : {1u, 0u}) {
    KernelMatrixOptions Options;
    Options.Threads = Threads;
    Options.Normalize = false;
    KernelMatrix Grouped(Kernel, Options);
    Grouped.appendRows(Corpus);
    expectBitwiseEqual(Grouped.raw(), pairwiseReference(Kernel, Corpus));
  }
}

// The Kast Gram of long strings, pinned by digest: the raw and the
// normalized matrix at cut 2 and 64 under PerOccurrence and at cut 2
// under PerFeatureTotal, serially and in parallel. The paper corpus's
// strings are a few dozen tokens long; these reach the long shared
// runs and deep suffix-link chains of a many-rank trace. The digest
// moves only if some entry's bits do.
TEST(KernelMatrixTest, ParallelTraceGramIsPinned) {
  const std::vector<WeightedString> Corpus = parallelTraceCorpus();
  size_t Tokens = 0;
  for (const WeightedString &S : Corpus)
    Tokens += S.size();
  ASSERT_GT(Tokens / Corpus.size(), 300u);

  const KastKernelOptions Configs[] = {{2, CutPolicy::PerOccurrence},
                                       {64, CutPolicy::PerOccurrence},
                                       {2, CutPolicy::PerFeatureTotal}};
  Fnv1a D;
  for (const KastKernelOptions &Config : Configs)
    for (size_t Threads : {1u, 0u}) {
      KastSpectrumKernel Kernel(Config);
      KernelMatrixOptions Options;
      Options.Threads = Threads;
      KernelMatrix Gram(Kernel, Options);
      Gram.appendRows(Corpus);
      D.doubles(Gram.raw().data());
      D.doubles(Gram.materialize().data());
    }
  EXPECT_EQ(D.Hash, 0xd1e746ef311d327dULL) << std::hex << D.Hash;
}

// One multi-cut fill must give, for every cut, the bits of a KernelMatrix
// at that cut alone: raw and materialized (normalized and PSD-repaired),
// one-shot and grown in stages. The cuts run from below every string's
// total weight to above all of them, so some rows drop out under each;
// the strings with weights near 2^27 reach 2^53 at the low cuts, where
// each cut falls back to its own ordered sum.
TEST(KernelMatrixTest, MultiCutGramMatchesPerCutBitwise) {
  Rng R(2718);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = groupedCorpus(Table, R, 2, 36);
  Corpus.push_back(parseWeightedString("a:4 a:4 a:3", Table).take());
  Corpus.push_back(parseWeightedString("a:4 a:4 b:4 a:4 a:4", Table).take());
  for (int B = 0; B < 3; ++B) {
    const WeightedString Base = randomString(Table, R, 12, 3);
    for (int I = 0; I < 2; ++I) {
      WeightedString S(Table);
      for (size_t T = 0; T < Base.size(); ++T)
        S.append(Base.literalId(T),
                 (uint64_t{1} << 27) + R.uniformInt(0, 4095));
      Corpus.push_back(std::move(S));
    }
  }
  uint64_t MaxTotal = 0;
  for (const WeightedString &S : Corpus)
    MaxTotal = std::max(MaxTotal, S.totalWeight());
  const uint64_t Cuts[] = {1, 2, 12, MaxTotal / 2, MaxTotal + 1};
  const size_t N = Corpus.size(), Stages[] = {0, 17, 17, 40, N};

  for (CutPolicy Policy : {CutPolicy::PerOccurrence, CutPolicy::PerFeatureTotal})
    for (size_t Threads : {1u, 0u}) {
      KernelMatrixOptions Raw, Repaired;
      Raw.Threads = Repaired.Threads = Threads;
      Raw.Normalize = false;
      Repaired.RepairPsd = true;
      const std::vector<Matrix> RawGrams =
          computeKastGrams(Corpus, Cuts, Policy, Raw);
      const std::vector<Matrix> RepairedGrams =
          computeKastGrams(Corpus, Cuts, Policy, Repaired);
      std::vector<Matrix> StagedGrams(std::size(Cuts), Matrix(N, N, 0.0));
      KastGramGroups Staged({std::begin(Cuts), std::end(Cuts)}, Policy);
      for (size_t S = 1; S < std::size(Stages); ++S)
        Staged.appendRows(std::span(Corpus).first(Stages[S]), StagedGrams,
                          Threads);
      ASSERT_EQ(RawGrams.size(), std::size(Cuts));
      ASSERT_EQ(RepairedGrams.size(), std::size(Cuts));
      for (size_t C = 0; C < std::size(Cuts); ++C) {
        SCOPED_TRACE("cut " + std::to_string(Cuts[C]) + ", policy " +
                     std::to_string(static_cast<int>(Policy)) + ", threads " +
                     std::to_string(Threads));
        KastSpectrumKernel Kernel({Cuts[C], Policy});
        KernelMatrix Single(Kernel, Repaired);
        Single.appendRows(Corpus);
        expectBitwiseEqual(RawGrams[C], Single.raw());
        expectBitwiseEqual(StagedGrams[C], Single.raw());
        expectBitwiseEqual(RepairedGrams[C], Single.materialize());
      }
    }
}

TEST(KernelMatrixTest, AppendRowsWithoutPrecompute) {
  Rng R(5);
  auto Table = TokenTable::create();
  std::vector<WeightedString> All = randomCorpus(Table, R, 10);

  BlendedSpectrumKernel Kernel(2);
  KernelMatrixOptions Options;
  Options.UsePrecompute = false;
  Options.Threads = 1;

  KernelMatrix Gram(Kernel, Options);
  Gram.appendRows({All.begin(), All.begin() + 6});
  Gram.appendRows({All.begin() + 6, All.end()});
  expectSameMatrix(Gram.materialize(), computeKernelMatrix(Kernel, All, Options));
}

//===----------------------------------------------------------------------===//
// Closed-form pair-index inversions vs loop-based references
//===----------------------------------------------------------------------===//

GramPair loopInvertTriangle(size_t P, size_t N) {
  size_t Start = 0;
  for (size_t I = 0; I + 1 < N; ++I) {
    size_t RowLength = N - I - 1;
    if (P < Start + RowLength)
      return {I, I + 1 + (P - Start)};
    Start += RowLength;
  }
  ADD_FAILURE() << "pair index " << P << " out of range for N=" << N;
  return {0, 0};
}

GramPair loopInvertAppend(size_t P, size_t OldN) {
  size_t Start = 0;
  for (size_t R = 0;; ++R) {
    size_t RowLength = OldN + R;
    if (P < Start + RowLength)
      return {OldN + R, P - Start};
    Start += RowLength;
  }
}

TEST(KernelMatrixTest, TriangleInversionExhaustiveSmall) {
  for (size_t N = 2; N <= 40; ++N)
    for (size_t P = 0; P < N * (N - 1) / 2; ++P)
      EXPECT_EQ(invertTrianglePairIndex(P, N), loopInvertTriangle(P, N))
          << "N=" << N << " P=" << P;
}

TEST(KernelMatrixTest, TriangleInversionRandomizedLarge) {
  Rng R(314159);
  for (int Trial = 0; Trial < 400; ++Trial) {
    size_t N = R.uniformInt(2, 10000);
    size_t NumPairs = N * (N - 1) / 2;
    size_t P = R.uniformInt(0, NumPairs - 1);
    EXPECT_EQ(invertTrianglePairIndex(P, N), loopInvertTriangle(P, N))
        << "N=" << N << " P=" << P;
    // Boundaries, where an off-by-one float root would land.
    EXPECT_EQ(invertTrianglePairIndex(0, N), loopInvertTriangle(0, N));
    EXPECT_EQ(invertTrianglePairIndex(NumPairs - 1, N),
              loopInvertTriangle(NumPairs - 1, N));
    size_t Row = R.uniformInt(0, N - 2);
    size_t RowStart = Row * (2 * N - Row - 1) / 2;
    EXPECT_EQ(invertTrianglePairIndex(RowStart, N),
              loopInvertTriangle(RowStart, N))
        << "N=" << N << " rowStart(" << Row << ")";
  }
}

TEST(KernelMatrixTest, AppendInversionExhaustiveSmall) {
  for (size_t OldN = 0; OldN <= 24; ++OldN)
    for (size_t M = 1; M <= 24; ++M) {
      size_t NumPairs = OldN * M + M * (M - 1) / 2;
      for (size_t P = 0; P < NumPairs; ++P)
        EXPECT_EQ(invertAppendPairIndex(P, OldN), loopInvertAppend(P, OldN))
            << "OldN=" << OldN << " P=" << P;
    }
}

TEST(KernelMatrixTest, AppendInversionRandomizedLarge) {
  Rng R(271828);
  for (int Trial = 0; Trial < 400; ++Trial) {
    size_t OldN = R.uniformInt(0, 10000);
    size_t M = R.uniformInt(1, 512);
    size_t NumPairs = OldN * M + M * (M - 1) / 2;
    size_t P = R.uniformInt(0, NumPairs - 1);
    EXPECT_EQ(invertAppendPairIndex(P, OldN), loopInvertAppend(P, OldN))
        << "OldN=" << OldN << " P=" << P;
    EXPECT_EQ(invertAppendPairIndex(0, OldN), loopInvertAppend(0, OldN));
    EXPECT_EQ(invertAppendPairIndex(NumPairs - 1, OldN),
              loopInvertAppend(NumPairs - 1, OldN));
  }
}

//===----------------------------------------------------------------------===//
// Normalization edge case: zero-length strings
//===----------------------------------------------------------------------===//

TEST(KernelMatrixTest, ZeroLengthStringNormalizesToExactUnitDiagonal) {
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus;
  Corpus.push_back(WeightedString(Table, "empty")); // k(x, x) = 0.
  Corpus.push_back(parseWeightedString("a b c", Table, "s1").take());
  Corpus.push_back(parseWeightedString("a b", Table, "s2").take());

  BlendedSpectrumKernel Kernel(3);
  KernelMatrixOptions Options;
  Options.Threads = 1;
  Matrix K = computeKernelMatrix(Kernel, Corpus, Options);

  for (size_t I = 0; I < K.rows(); ++I)
    EXPECT_EQ(K.at(I, I), 1.0) << "diagonal " << I;
  // The zero-self-kernel row is explicitly zero off the diagonal, in
  // both directions.
  for (size_t J = 1; J < K.cols(); ++J) {
    EXPECT_EQ(K.at(0, J), 0.0);
    EXPECT_EQ(K.at(J, 0), 0.0);
  }
  // Raw (unnormalized) keeps the honest zero self-kernel.
  Options.Normalize = false;
  Matrix Raw = computeKernelMatrix(Kernel, Corpus, Options);
  EXPECT_EQ(Raw.at(0, 0), 0.0);
}

} // namespace
