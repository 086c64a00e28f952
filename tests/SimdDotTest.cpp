//===- tests/SimdDotTest.cpp - vectorized dot-product kernels --------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// THE EXACTNESS CONTRACT, pinned differentially: every strategy behind
// simd::dotExact (blocked SIMD, galloping, the probe-table scan) must
// return the same *bits* as the reference scalar merge join for every
// input — size edges around the vector width, duplicates shared across
// sides, disjoint sets, skew ratios that cross the gallop threshold.
// Plus the quantized tier's guarantees: bit-identical dispatch, the
// Scale/2 * L1 error bound, QuantizedStore construction, and end-to-end
// top-k equality of budget-pruned retrieval against the exact scan on
// a clustered corpus.
//
//===----------------------------------------------------------------------===//

#include "core/ProfileStore.h"
#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"
#include "util/SimdDot.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <vector>

using namespace kast;

namespace {

struct Operand {
  std::vector<uint64_t> Hashes;
  std::vector<double> Values;

  size_t size() const { return Hashes.size(); }
};

/// A hash-sorted operand drawn from a shared universe so two operands
/// drawn from the same universe overlap. Universe slots are spread
/// across the full u64 range (like real feature hashes) by a
/// splitmix-style scramble, keeping the sorted order nontrivial.
Operand makeOperand(Rng &R, size_t Size, uint64_t UniverseSize,
                    uint64_t UniverseSalt = 0) {
  assert(Size <= UniverseSize && "can't draw more distinct slots than exist");
  Operand Op;
  if (Size == 0)
    return Op;
  // Sample distinct slots via a shuffle of [0, UniverseSize).
  std::vector<uint64_t> Slots(UniverseSize);
  for (uint64_t I = 0; I < UniverseSize; ++I)
    Slots[I] = I;
  R.shuffle(Slots);
  Slots.resize(Size);
  for (uint64_t &S : Slots) {
    // The salt occupies bits the slot never reaches, so operands drawn
    // with different salts are disjoint (the scramble is a bijection).
    uint64_t Z = S + (UniverseSalt << 32) + 0x9E3779B97F4A7C15ULL;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    S = Z ^ (Z >> 31);
  }
  std::sort(Slots.begin(), Slots.end());
  Op.Hashes = std::move(Slots);
  Op.Values.reserve(Size);
  for (size_t I = 0; I < Size; ++I)
    Op.Values.push_back(R.uniformReal() * 2.0 - 1.0);
  return Op;
}

uint64_t bits(double V) { return std::bit_cast<uint64_t>(V); }

/// EXPECT bit-equality of the dispatched kernel against the scalar
/// reference in both argument orders.
void expectExactMatchesScalar(const Operand &A, const Operand &B) {
  const double Ref = simd::dotScalar(A.Hashes.data(), A.Values.data(),
                                     A.size(), B.Hashes.data(),
                                     B.Values.data(), B.size());
  const double Got = simd::dotExact(A.Hashes.data(), A.Values.data(), A.size(),
                                    B.Hashes.data(), B.Values.data(), B.size());
  EXPECT_EQ(bits(Ref), bits(Got))
      << "dotExact diverges from dotScalar at sizes " << A.size() << "x"
      << B.size() << " on kernel " << simd::kernelName(simd::activeKernel());
  const double RefRev = simd::dotScalar(B.Hashes.data(), B.Values.data(),
                                        B.size(), A.Hashes.data(),
                                        A.Values.data(), A.size());
  const double GotRev = simd::dotExact(B.Hashes.data(), B.Values.data(),
                                       B.size(), A.Hashes.data(),
                                       A.Values.data(), A.size());
  EXPECT_EQ(bits(RefRev), bits(GotRev));
}

/// Sizes that straddle every block/lane boundary of the implemented
/// kernels (AVX2 blocks of 4, NEON blocks of 2) plus bulk sizes.
const size_t EdgeSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 256};

} // namespace

//===----------------------------------------------------------------------===//
// dotExact vs dotScalar
//===----------------------------------------------------------------------===//

TEST(SimdDotTest, ExactMatchesScalarAcrossSizeEdges) {
  Rng R(7);
  for (size_t ASize : EdgeSizes)
    for (size_t BSize : EdgeSizes) {
      const uint64_t Universe = std::max<uint64_t>(ASize + BSize, 2);
      Operand A = makeOperand(R, ASize, Universe);
      Operand B = makeOperand(R, BSize, Universe);
      expectExactMatchesScalar(A, B);
    }
}

TEST(SimdDotTest, ExactMatchesScalarOnIdenticalOperands) {
  Rng R(11);
  for (size_t Size : {1u, 4u, 5u, 9u, 128u}) {
    Operand A = makeOperand(R, Size, Size * 2);
    expectExactMatchesScalar(A, A); // every position matches
  }
}

TEST(SimdDotTest, ExactMatchesScalarOnDisjointAndAlienHashes) {
  Rng R(13);
  // Disjoint: same universe size, different salts — no slot collides
  // after scrambling (scramble is a bijection, salts differ).
  Operand A = makeOperand(R, 100, 200, /*UniverseSalt=*/1);
  Operand B = makeOperand(R, 100, 200, /*UniverseSalt=*/2);
  expectExactMatchesScalar(A, B);
  EXPECT_EQ(bits(simd::dotExact(A.Hashes.data(), A.Values.data(), A.size(),
                                B.Hashes.data(), B.Values.data(), B.size())),
            bits(+0.0));
  // Alien: one side's hashes from a tiny dense range the other side's
  // scrambled hashes never hit.
  Operand Alien;
  for (uint64_t H = 0; H < 50; ++H) {
    Alien.Hashes.push_back(H);
    Alien.Values.push_back(1.0);
  }
  expectExactMatchesScalar(A, Alien);
}

TEST(SimdDotTest, ExactMatchesScalarAcrossGallopThreshold) {
  Rng R(17);
  // Small-vs-large shapes on both sides of the gallop trigger
  // (ratio 16, floor 128), including exactly at it.
  const std::pair<size_t, size_t> Shapes[] = {
      {8, 100},  {8, 128},  {8, 129},  {8, 4096},
      {16, 255}, {16, 256}, {16, 257}, {1, 5000},
  };
  for (auto [Small, Large] : Shapes) {
    Operand A = makeOperand(R, Small, Small + Large);
    Operand B = makeOperand(R, Large, Small + Large);
    expectExactMatchesScalar(A, B);
  }
}

//===----------------------------------------------------------------------===//
// ExactScan (probe-table one-vs-many)
//===----------------------------------------------------------------------===//

TEST(SimdDotTest, ExactScanMatchesScalarAcrossShapes) {
  Rng R(19);
  simd::ExactScan Scan;
  for (size_t QSize : {0u, 1u, 15u, 16u, 17u, 64u, 300u}) {
    // Big enough for the largest stored side too — drawing more slots
    // than the universe holds would forge duplicate hashes, which the
    // strictly-increasing contract forbids.
    const uint64_t Universe = std::max<uint64_t>(QSize * 2, 512);
    Operand Q = makeOperand(R, QSize, Universe);
    Scan.assign(Q.Hashes.data(), Q.Values.data(), Q.size());
    for (size_t SSize : EdgeSizes) {
      Operand S = makeOperand(R, SSize, Universe);
      const double Ref =
          simd::dotScalar(Q.Hashes.data(), Q.Values.data(), Q.size(),
                          S.Hashes.data(), S.Values.data(), S.size());
      EXPECT_EQ(bits(Ref),
                bits(Scan.dot(S.Hashes.data(), S.Values.data(), S.size())))
          << "ExactScan diverges at " << QSize << "x" << SSize
          << " (table=" << Scan.usingTable() << ")";
    }
  }
}

TEST(SimdDotTest, ExactScanHandlesGallopDelegationShapes) {
  Rng R(23);
  // Stored side large enough to push the scan onto its gallop
  // delegation path; still bit-identical.
  Operand Q = makeOperand(R, 20, 8000);
  simd::ExactScan Scan;
  Scan.assign(Q.Hashes.data(), Q.Values.data(), Q.size());
  Operand S = makeOperand(R, 6000, 8000);
  const double Ref = simd::dotScalar(Q.Hashes.data(), Q.Values.data(),
                                     Q.size(), S.Hashes.data(),
                                     S.Values.data(), S.size());
  EXPECT_EQ(bits(Ref),
            bits(Scan.dot(S.Hashes.data(), S.Values.data(), S.size())));
}

TEST(SimdDotTest, ExactScanReassignReusesCapacity) {
  Rng R(29);
  simd::ExactScan Scan;
  for (int Round = 0; Round < 5; ++Round) {
    Operand Q = makeOperand(R, 50 + Round * 40, 1000);
    Scan.assign(Q.Hashes.data(), Q.Values.data(), Q.size());
    Operand S = makeOperand(R, 120, 1000);
    const double Ref = simd::dotScalar(Q.Hashes.data(), Q.Values.data(),
                                       Q.size(), S.Hashes.data(),
                                       S.Values.data(), S.size());
    EXPECT_EQ(bits(Ref),
              bits(Scan.dot(S.Hashes.data(), S.Values.data(), S.size())));
  }
}

//===----------------------------------------------------------------------===//
// Quantized tier
//===----------------------------------------------------------------------===//

TEST(SimdDotTest, QuantizedDispatchMatchesQuantizedScalar) {
  Rng R(31);
  for (size_t QSize : EdgeSizes)
    for (size_t SSize : {0u, 1u, 4u, 5u, 63u, 256u, 4096u}) {
      const uint64_t Universe = std::max<uint64_t>(QSize + SSize, 2);
      Operand Q = makeOperand(R, QSize, Universe);
      Operand SFull = makeOperand(R, SSize, Universe);
      std::vector<int8_t> S8(SSize);
      double MaxAbs = 0.0;
      for (double V : SFull.Values)
        MaxAbs = std::max(MaxAbs, std::abs(V));
      const double Scale = MaxAbs > 0.0 ? MaxAbs / 127.0 : 0.0;
      for (size_t I = 0; I < SSize; ++I)
        S8[I] = static_cast<int8_t>(std::lround(
            Scale > 0.0 ? SFull.Values[I] / Scale : 0.0));
      const double Ref = simd::dotQuantizedScalar(
          Q.Hashes.data(), Q.Values.data(), Q.size(), SFull.Hashes.data(),
          S8.data(), SSize, Scale);
      const double Got = simd::dotQuantized(Q.Hashes.data(), Q.Values.data(),
                                            Q.size(), SFull.Hashes.data(),
                                            S8.data(), SSize, Scale);
      EXPECT_EQ(bits(Ref), bits(Got))
          << "dotQuantized diverges at " << QSize << "x" << SSize;
    }
}

TEST(SimdDotTest, QuantizedStorePerProfileScaleAndRoundTripError) {
  Rng R(37);
  BlendedSpectrumKernel Kernel(3);
  auto Table = TokenTable::create();
  ProfileStore Store;
  for (int I = 0; I < 20; ++I) {
    WeightedString S(Table);
    for (int J = 0; J < 40; ++J)
      S.append("t" + std::to_string(R.uniformInt(0, 9)),
               R.uniformInt(1, 16));
    Store.append(Kernel.profile(S));
  }
  // An all-zero profile quantizes to scale 0 / all-zero codes.
  Store.append(KernelProfile());
  Store.buildQuantized();
  const QuantizedStore *Q = Store.quantized();
  ASSERT_NE(Q, nullptr);
  ASSERT_EQ(Q->size(), Store.size());
  for (size_t I = 0; I < Store.size(); ++I) {
    const ProfileView V = Store.view(I);
    const QuantizedStore::View QV = Q->view(I);
    ASSERT_EQ(QV.Size, V.Size);
    double MaxAbs = 0.0;
    for (size_t E = 0; E < V.Size; ++E)
      MaxAbs = std::max(MaxAbs, std::abs(V.Values[E]));
    EXPECT_DOUBLE_EQ(QV.Scale, MaxAbs > 0.0 ? MaxAbs / 127.0 : 0.0);
    // Per-element dequantization error is at most half a step.
    for (size_t E = 0; E < V.Size; ++E)
      EXPECT_LE(std::abs(V.Values[E] - QV.Scale * QV.Values[E]),
                QV.Scale / 2.0 + 1e-15);
  }
  // Appends invalidate the sidecar; rebuilding restores it.
  Store.append(KernelProfile());
  EXPECT_EQ(Store.quantized(), nullptr);
  Store.buildQuantized();
  EXPECT_EQ(Store.quantized()->size(), Store.size());
}

TEST(SimdDotTest, QuantizedDotRespectsL1ErrorBound) {
  Rng R(41);
  for (int Trial = 0; Trial < 20; ++Trial) {
    const size_t QSize = 50 + Trial * 10, SSize = 80 + Trial * 5;
    const uint64_t Universe = (QSize + SSize) / 2; // force heavy overlap
    Operand Q = makeOperand(R, std::min<size_t>(QSize, Universe), Universe);
    Operand S = makeOperand(R, std::min<size_t>(SSize, Universe), Universe);
    std::vector<int8_t> S8(S.size());
    double MaxAbs = 0.0;
    for (double V : S.Values)
      MaxAbs = std::max(MaxAbs, std::abs(V));
    const double Scale = MaxAbs > 0.0 ? MaxAbs / 127.0 : 0.0;
    for (size_t I = 0; I < S.size(); ++I)
      S8[I] = static_cast<int8_t>(
          std::lround(Scale > 0.0 ? S.Values[I] / Scale : 0.0));
    const double Exact =
        simd::dotScalar(Q.Hashes.data(), Q.Values.data(), Q.size(),
                        S.Hashes.data(), S.Values.data(), S.size());
    const double Approx = simd::dotQuantized(Q.Hashes.data(), Q.Values.data(),
                                             Q.size(), S.Hashes.data(),
                                             S8.data(), S.size(), Scale);
    double L1 = 0.0;
    for (double V : Q.Values)
      L1 += std::abs(V);
    // |exact - quantized| <= Scale/2 * sum over matches |q_i|
    //                     <= Scale/2 * L1(q).
    EXPECT_LE(std::abs(Exact - Approx), Scale / 2.0 * L1 + 1e-12);
  }
}

//===----------------------------------------------------------------------===//
// Dispatch and the KAST_FORCE_SCALAR knob
//===----------------------------------------------------------------------===//

TEST(SimdDotTest, ForceScalarEnvPinsDetection) {
  const char *Old = std::getenv("KAST_FORCE_SCALAR");
  const std::string Saved = Old ? Old : "";
  // Any non-empty value other than "0" forces the scalar kernel.
  setenv("KAST_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(simd::detectKernel(), simd::DotKernel::Scalar);
  setenv("KAST_FORCE_SCALAR", "yes", 1);
  EXPECT_EQ(simd::detectKernel(), simd::DotKernel::Scalar);
  // Unset, empty, and "0" leave hardware detection in charge.
  setenv("KAST_FORCE_SCALAR", "0", 1);
  const simd::DotKernel Zero = simd::detectKernel();
  setenv("KAST_FORCE_SCALAR", "", 1);
  EXPECT_EQ(simd::detectKernel(), Zero);
  unsetenv("KAST_FORCE_SCALAR");
  EXPECT_EQ(simd::detectKernel(), Zero);
  if (Old)
    setenv("KAST_FORCE_SCALAR", Saved.c_str(), 1);
  EXPECT_STREQ(simd::kernelName(simd::DotKernel::Scalar), "scalar");
  EXPECT_STREQ(simd::kernelName(simd::DotKernel::Avx2), "avx2");
  EXPECT_STREQ(simd::kernelName(simd::DotKernel::Neon), "neon");
}

//===----------------------------------------------------------------------===//
// End-to-end: quantized shortlist against the exact scan
//===----------------------------------------------------------------------===//

namespace {

/// Clustered corpus: BaseCount base strings, each entry a point
/// mutation of its base, so cosine neighborhoods are the sibling
/// groups — margins between in-group and out-group similarities are
/// wide, which is exactly where a budgeted shortlist must not change
/// the final top-k.
std::vector<WeightedString>
clusteredCorpus(const std::shared_ptr<TokenTable> &Table, size_t N,
                size_t BaseCount, Rng &R) {
  const size_t Length = 48;
  const uint32_t Alphabet = 10;
  std::vector<std::vector<std::pair<std::string, uint32_t>>> Bases(BaseCount);
  for (auto &Base : Bases)
    for (size_t I = 0; I < Length; ++I)
      Base.push_back({"t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
                      static_cast<uint32_t>(R.uniformInt(1, 16))});
  std::vector<WeightedString> Out;
  for (size_t I = 0; I < N; ++I) {
    auto Entry = Bases[I % BaseCount];
    for (auto &Tok : Entry)
      if (R.flip(0.25))
        Tok.first = "t" + std::to_string(R.uniformInt(0, Alphabet - 1));
    WeightedString S(Table);
    for (const auto &[Text, Weight] : Entry)
      S.append(Text, Weight);
    Out.push_back(std::move(S));
  }
  return Out;
}

/// A one-shard service over \p Strings, entry I named "c<I>".
IndexService oneShard(const ProfiledStringKernel &Kernel,
                      const std::vector<WeightedString> &Strings) {
  IndexService Service(Kernel.name(), {.Shards = 1});
  for (size_t I = 0; I < Strings.size(); ++I)
    Service.add("c" + std::to_string(I), "", Kernel.profile(Strings[I]));
  return Service;
}

/// Hit names and similarity bits must agree rank for rank.
void expectSameHits(const std::vector<ServiceHit> &Exact,
                    const std::vector<ServiceHit> &Approx) {
  ASSERT_EQ(Exact.size(), Approx.size());
  for (size_t I = 0; I < Exact.size(); ++I) {
    EXPECT_EQ(Exact[I].Name, Approx[I].Name) << "rank " << I;
    EXPECT_EQ(bits(Exact[I].Similarity), bits(Approx[I].Similarity))
        << "rank " << I;
  }
}

} // namespace

TEST(SimdDotTest, QuantizedShortlistTopKMatchesExactScan) {
  Rng R(43);
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel(3);
  const size_t N = 300;
  std::vector<WeightedString> Corpus = clusteredCorpus(Table, N + 10, 8, R);

  IndexService Index = oneShard(Kernel, {Corpus.begin(), Corpus.begin() + N});
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 8;
  // Nearly every profile shares some 3-gram with the query (alphabet
  // 10, no df-pruning), so a budget of 64 prunes hard — but it still
  // clears the ~38-profile sibling group the true top-k lives in by a
  // margin far wider than the quantization error.
  Opts.RerankBudget = 64;
  Opts.QuantizedShortlist = true;
  Index.rebuildRouting(Opts);
  ASSERT_NE(Index.toShardCaches()[0].Store.quantized(), nullptr);

  std::vector<KernelProfile> Queries;
  std::vector<const KernelProfile *> Borrowed;
  for (size_t QI = 0; QI < 10; ++QI)
    Queries.push_back(Kernel.profile(Corpus[N + QI]));
  for (const KernelProfile &Q : Queries)
    Borrowed.push_back(&Q);
  const std::vector<std::vector<ServiceHit>> Batched =
      Index.snapshot().queryBatch(Borrowed, 5, true, 2, /*Approx=*/true);
  for (size_t QI = 0; QI < Queries.size(); ++QI) {
    // All centroids probed: candidate recall is total, so the only
    // approximation left is the budgeted shortlist itself.
    const std::vector<ServiceHit> Approx = Index.queryApprox(
        Queries[QI], 5, /*Normalize=*/true, /*NProbe=*/0, 1);
    SCOPED_TRACE("query " + std::to_string(QI));
    expectSameHits(Batched[QI], Approx);
    // Survivors are re-ranked with the exact kernel, so matching
    // entries mean bit-identical similarities.
    expectSameHits(Index.query(Queries[QI], 5, true, 1), Approx);
  }
}

TEST(SimdDotTest, ExhaustiveModeStaysBitIdenticalWithQuantizedTierBuilt) {
  Rng R(47);
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel(3);
  std::vector<WeightedString> Corpus = clusteredCorpus(Table, 120, 6, R);
  IndexService Index =
      oneShard(Kernel, {Corpus.begin(), Corpus.begin() + 100});
  // Pure-defaults routing: no budget, no df-pruning — the documented
  // bit-identity mode. The quantized tier must not engage.
  Index.rebuildRouting({});
  std::vector<KernelProfile> Queries;
  std::vector<const KernelProfile *> Borrowed;
  for (size_t QI = 100; QI < 110; ++QI)
    Queries.push_back(Kernel.profile(Corpus[QI]));
  for (const KernelProfile &Q : Queries)
    Borrowed.push_back(&Q);
  const std::vector<std::vector<ServiceHit>> Batched =
      Index.snapshot().queryBatch(Borrowed, 7, true, 2, /*Approx=*/true);
  for (size_t QI = 0; QI < Queries.size(); ++QI) {
    const std::vector<ServiceHit> Exact = Index.query(Queries[QI], 7, true, 1);
    SCOPED_TRACE("query " + std::to_string(QI));
    expectSameHits(Exact, Index.queryApprox(Queries[QI], 7, true, 0, 1));
    expectSameHits(Exact, Batched[QI]);
  }
}
