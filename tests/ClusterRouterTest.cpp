//===- tests/ClusterRouterTest.cpp - k-means fit pinned to a reference ----===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// ClusterRouter::build scores each Lloyd round through an inverted
// centroid table and writes its centroid updates straight into arena
// arrays. Both are pure restructurings: every score must equal the
// merge-join dot bit for bit, and every centroid sum must add its
// members in the shuffled training order. This file keeps the
// straightforward Lloyd loop — one dot() per (profile, centroid) and
// an unordered_map per centroid update — as the reference, and pins
// the fit against it bit for bit: assignments, centroid hashes and
// centroid value bits. Corpora are trace-derived profiles (what the
// serving path fits on) plus hand-built stores whose hashes attack
// the table's addressing.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "index/ClusterRouter.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"
#include "workloads/Generators.h"
#include "workloads/Mutator.h"
#include "workloads/ParallelTrace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>

using namespace kast;

namespace {

//===----------------------------------------------------------------------===//
// Reference fit
//===----------------------------------------------------------------------===//

struct ReferenceFit {
  std::vector<uint32_t> Assignments;
  ProfileStore Centroids;
  /// (round, centroid) pairs where a centroid kept its previous value
  /// because it lost every member — lets tests prove they reach that
  /// branch.
  size_t KeptCentroids = 0;
};

uint32_t referenceNearest(const ProfileStore &Centroids,
                          const ProfileView &V) {
  uint32_t Best = 0;
  double BestSim = dot(Centroids.view(0), V);
  for (size_t C = 1; C < Centroids.size(); ++C) {
    double Sim = dot(Centroids.view(C), V);
    if (Sim > BestSim) {
      BestSim = Sim;
      Best = static_cast<uint32_t>(C);
    }
  }
  return Best;
}

ProfileStore referenceUpdate(const ProfileStore &Store,
                             const std::vector<size_t> &TrainIds,
                             const std::vector<uint32_t> &Assign,
                             const ProfileStore &Previous,
                             size_t &KeptCentroids) {
  const size_t NumCentroids = Previous.size();
  std::vector<std::unordered_map<uint64_t, double>> Sums(NumCentroids);
  std::vector<size_t> Members(NumCentroids, 0);
  for (size_t T = 0; T < TrainIds.size(); ++T) {
    const ProfileView V = Store.view(TrainIds[T]);
    if (V.Norm <= 0.0)
      continue;
    std::unordered_map<uint64_t, double> &Sum = Sums[Assign[T]];
    ++Members[Assign[T]];
    const double Scale = 1.0 / V.Norm;
    for (size_t E = 0; E < V.Size; ++E)
      Sum[V.Hashes[E]] += V.Values[E] * Scale;
  }

  std::vector<KernelProfile> Centroids(NumCentroids);
  for (size_t C = 0; C < NumCentroids; ++C) {
    if (Members[C] == 0) {
      Centroids[C] = Previous.materialize(C);
      ++KeptCentroids;
      continue;
    }
    std::vector<std::pair<uint64_t, double>> Entries(Sums[C].begin(),
                                                     Sums[C].end());
    std::sort(Entries.begin(), Entries.end());
    double SelfDot = 0.0;
    for (const auto &[Hash, Value] : Entries)
      SelfDot += Value * Value;
    const double Norm = std::sqrt(SelfDot);
    KernelProfile P;
    for (const auto &[Hash, Value] : Entries)
      P.add(Hash, Norm > 0.0 ? Value / Norm : Value);
    Centroids[C] = std::move(P);
  }
  ProfileStore Result;
  Result.appendAll(Centroids);
  return Result;
}

/// The seeding, sampling and Lloyd loop of ClusterRouter::build, with
/// the per-pair merge-join assignment and the hash-map update.
ReferenceFit referenceBuild(const ProfileStore &Store,
                            const ClusterRouterOptions &Options) {
  ReferenceFit Fit;
  const size_t N = Store.size();
  if (N == 0)
    return Fit;
  size_t C = Options.NumCentroids;
  if (C == 0)
    C = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(N))));
  C = std::min(std::max<size_t>(1, std::min(C, N)), size_t(4096));

  Rng R(Options.Seed);
  std::vector<size_t> Shuffled(N);
  for (size_t I = 0; I < N; ++I)
    Shuffled[I] = I;
  R.shuffle(Shuffled);
  size_t TrainCount = Options.TrainingSample == 0
                          ? N
                          : std::min(N, Options.TrainingSample);
  TrainCount = std::max(TrainCount, C);
  std::vector<size_t> TrainIds(Shuffled.begin(),
                               Shuffled.begin() + TrainCount);

  std::vector<KernelProfile> Seeds;
  for (size_t I = 0; I < TrainIds.size() && Seeds.size() < C; ++I)
    if (Store.view(TrainIds[I]).Norm > 0.0)
      Seeds.push_back(Store.materialize(TrainIds[I]));
  if (Seeds.empty())
    Seeds.push_back(KernelProfile());
  for (KernelProfile &Seed : Seeds) {
    KernelProfile Unit;
    double SelfDot = 0.0;
    for (const ProfileEntry &E : Seed.entries())
      SelfDot += E.Value * E.Value;
    const double Norm = std::sqrt(SelfDot);
    for (const ProfileEntry &E : Seed.entries())
      Unit.add(E.Hash, Norm > 0.0 ? E.Value / Norm : E.Value);
    Seed = std::move(Unit);
  }
  ProfileStore Centroids;
  Centroids.appendAll(Seeds);

  std::vector<uint32_t> TrainAssign(TrainIds.size(), 0);
  for (size_t Iter = 0; Iter < Options.MaxIterations; ++Iter) {
    std::vector<uint32_t> Next(TrainIds.size(), 0);
    for (size_t T = 0; T < TrainIds.size(); ++T)
      Next[T] = referenceNearest(Centroids, Store.view(TrainIds[T]));
    const bool Stable = Iter > 0 && Next == TrainAssign;
    TrainAssign = std::move(Next);
    if (Stable)
      break;
    Centroids = referenceUpdate(Store, TrainIds, TrainAssign, Centroids,
                                Fit.KeptCentroids);
  }

  Fit.Assignments.resize(N);
  for (size_t I = 0; I < N; ++I)
    Fit.Assignments[I] = referenceNearest(Centroids, Store.view(I));
  Fit.Centroids = std::move(Centroids);
  return Fit;
}

/// Assignments, centroid sizes, centroid hashes and centroid value bit
/// patterns (a double == would let -0.0 pass for +0.0).
void expectSameFit(const ClusterRouter &Router, const ReferenceFit &Ref,
                   const std::string &What) {
  ASSERT_EQ(Router.numProfiles(), Ref.Assignments.size()) << What;
  for (size_t I = 0; I < Ref.Assignments.size(); ++I)
    ASSERT_EQ(Router.assignments()[I], Ref.Assignments[I])
        << What << ": profile " << I;
  ASSERT_EQ(Router.numCentroids(), Ref.Centroids.size()) << What;
  for (size_t C = 0; C < Ref.Centroids.size(); ++C) {
    const ProfileView A = Router.centroids().view(C);
    const ProfileView B = Ref.Centroids.view(C);
    ASSERT_EQ(A.Size, B.Size) << What << ": centroid " << C;
    for (size_t E = 0; E < A.Size; ++E) {
      ASSERT_EQ(A.Hashes[E], B.Hashes[E])
          << What << ": centroid " << C << " entry " << E;
      ASSERT_EQ(std::bit_cast<uint64_t>(A.Values[E]),
                std::bit_cast<uint64_t>(B.Values[E]))
          << What << ": centroid " << C << " entry " << E;
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(A.Norm), std::bit_cast<uint64_t>(B.Norm))
        << What << ": centroid " << C;
  }
}

void expectMatchesReference(const ProfileStore &Store,
                            const ClusterRouterOptions &Options,
                            size_t Threads, const std::string &What) {
  const ReferenceFit Ref = referenceBuild(Store, Options);
  expectSameFit(ClusterRouter::build(Store, Options, Threads), Ref, What);
}

//===----------------------------------------------------------------------===//
// Corpora
//===----------------------------------------------------------------------===//

/// The serving path's kernel: blended spectrum, k = 3, weighted, cut 2.
const BlendedSpectrumKernel &serveKernel() {
  static const BlendedSpectrumKernel K(3, 1.0, /*Weighted=*/true,
                                       /*CutWeight=*/2);
  return K;
}

/// 768 profiles of mutated 1-4 rank parallel traces, four categories
/// with eight bases each — close to one serving shard's size and shape.
const std::vector<KernelProfile> &traceProfiles() {
  static const std::vector<KernelProfile> Profiles = [] {
    const Category Categories[] = {Category::FlashIO, Category::RandomPosix,
                                   Category::NormalIO,
                                   Category::RandomAccess};
    Rng R(0xC1A55E5ULL);
    std::vector<Trace> Bases;
    for (size_t B = 0; B < 8; ++B)
      for (Category C : Categories)
        Bases.push_back(generateParallelTrace(C, 1 + Bases.size() % 4, R));
    const Pipeline P = Pipeline::withBytes();
    std::vector<KernelProfile> Out;
    for (size_t I = 0; I < 768; ++I)
      Out.push_back(serveKernel().profile(
          P.convert(mutateTrace(Bases[I % Bases.size()], R))));
    return Out;
  }();
  return Profiles;
}

ProfileStore storeOf(const std::vector<KernelProfile> &Profiles) {
  ProfileStore Store;
  Store.appendAll(Profiles);
  return Store;
}

KernelProfile profileOf(const std::vector<uint64_t> &Hashes, Rng &R) {
  KernelProfile P;
  for (uint64_t H : Hashes)
    P.add(H, R.uniformReal() * 4.0 - 1.0);
  P.finalize();
  return P;
}

/// Hashes whose product with the 64-bit golden ratio (the Fibonacci
/// hashing multiplier) is K for K = 1, 2, ...: they share every top bit
/// after the multiply, so they collide in a multiply-shift table the
/// way top-bit-sharing hashes collide in a top-bits-addressed one.
std::vector<uint64_t> goldenCollisions(size_t Count) {
  constexpr uint64_t Golden = 0x9E3779B97F4A7C15ULL;
  uint64_t Inverse = Golden; // Newton: each step doubles the good bits.
  for (int I = 0; I < 6; ++I)
    Inverse *= 2 - Golden * Inverse;
  std::vector<uint64_t> Out;
  for (uint64_t K = 1; K <= Count; ++K)
    Out.push_back(K * Inverse);
  return Out;
}

//===----------------------------------------------------------------------===//
// Trace-derived corpus
//===----------------------------------------------------------------------===//

TEST(ClusterRouterTest, MatchesReferenceOnTraceCorpus) {
  const ProfileStore Store = storeOf(traceProfiles());
  ClusterRouterOptions Options; // C = ceil(sqrt(768)) = 28
  Options.TrainingSample = 512;
  const ReferenceFit Ref = referenceBuild(Store, Options);
  const ClusterRouter Router = ClusterRouter::build(Store, Options, 1);
  ASSERT_EQ(Router.numCentroids(), 28u);
  expectSameFit(Router, Ref, "trace corpus");

  // The fit's scorer and route()'s per-centroid dots agree: every
  // profile's own cluster is its first probe.
  for (size_t I = 0; I < Store.size(); ++I) {
    const std::vector<uint32_t> Top = Router.route(Store.materialize(I), 1);
    ASSERT_EQ(Top.size(), 1u);
    EXPECT_EQ(Top[0], Router.assignments()[I]) << "profile " << I;
  }
}

// The parallel assignment loops share one read-only table per round;
// under TSan, this and the other four-thread cases read it from
// several workers at once.
TEST(ClusterRouterTest, MatchesReferenceAtFourThreads) {
  const ProfileStore Store = storeOf(traceProfiles());
  ClusterRouterOptions Options;
  Options.TrainingSample = 600;
  Options.MaxIterations = 6;
  expectMatchesReference(Store, Options, 4, "four threads");
}

TEST(ClusterRouterTest, EmptyProfilesMixedIn) {
  std::vector<KernelProfile> Profiles;
  for (size_t I = 0; I < 512; ++I) {
    if (I % 5 == 2)
      Profiles.emplace_back();
    Profiles.push_back(traceProfiles()[I]);
  }
  const ProfileStore Store = storeOf(Profiles);
  ClusterRouterOptions Options;
  Options.TrainingSample = 400;
  expectMatchesReference(Store, Options, 1, "empties mixed in");
  expectMatchesReference(Store, Options, 4, "empties mixed in, 4 threads");
}

TEST(ClusterRouterTest, AllEmptyStoreFitsOneEmptyCentroid) {
  const ProfileStore Store = storeOf(std::vector<KernelProfile>(20));
  const ClusterRouter Router = ClusterRouter::build(Store, {}, 1);
  ASSERT_EQ(Router.numCentroids(), 1u);
  EXPECT_EQ(Router.centroids().view(0).Size, 0u);
  expectSameFit(Router, referenceBuild(Store, {}), "all empty");
}

TEST(ClusterRouterTest, SingleCentroid) {
  const std::vector<KernelProfile> &All = traceProfiles();
  const ProfileStore Store =
      storeOf(std::vector<KernelProfile>(All.begin(), All.begin() + 256));
  ClusterRouterOptions Options;
  Options.NumCentroids = 1;
  expectMatchesReference(Store, Options, 1, "C = 1");
}

TEST(ClusterRouterTest, CentroidsAtLeastNonEmptyProfiles) {
  // 12 non-empty profiles among 18: asking for 12 or 15 centroids seeds
  // every non-empty profile; asking for more than N clamps to N.
  std::vector<KernelProfile> Profiles;
  for (size_t I = 0; I < 12; ++I) {
    Profiles.push_back(traceProfiles()[I * 7]);
    if (I % 2 == 0)
      Profiles.emplace_back();
  }
  const ProfileStore Store = storeOf(Profiles);
  for (size_t C : {12u, 15u, 40u}) {
    ClusterRouterOptions Options;
    Options.NumCentroids = C;
    const ClusterRouter Router = ClusterRouter::build(Store, Options, 1);
    EXPECT_EQ(Router.numCentroids(), 12u) << "C = " << C;
    expectSameFit(Router, referenceBuild(Store, Options),
                  "C = " + std::to_string(C));
  }
}

TEST(ClusterRouterTest, ZeroAndOneIterations) {
  const ProfileStore Store = storeOf(traceProfiles());
  for (size_t Iterations : {0u, 1u}) {
    ClusterRouterOptions Options;
    Options.MaxIterations = Iterations;
    Options.TrainingSample = 300;
    expectMatchesReference(Store, Options, 1,
                           std::to_string(Iterations) + " iterations");
  }
}

TEST(ClusterRouterTest, CentroidThatLosesEveryMemberIsKept) {
  // Three distinct profiles, four copies each, six centroids: at least
  // three seeds duplicate a lower-id seed, score bit-identically, and
  // lose every member to it on the tie-break.
  std::vector<KernelProfile> Distinct;
  for (size_t I = 0; I < 3; ++I)
    Distinct.push_back(traceProfiles()[I * 11]);
  std::vector<KernelProfile> Profiles;
  for (size_t Copy = 0; Copy < 4; ++Copy)
    for (const KernelProfile &P : Distinct)
      Profiles.push_back(P);
  const ProfileStore Store = storeOf(Profiles);
  ClusterRouterOptions Options;
  Options.NumCentroids = 6;
  const ReferenceFit Ref = referenceBuild(Store, Options);
  EXPECT_GT(Ref.KeptCentroids, 0u);
  expectSameFit(ClusterRouter::build(Store, Options, 1), Ref,
                "duplicate seeds");
}

//===----------------------------------------------------------------------===//
// Adversarial hashes
//===----------------------------------------------------------------------===//

/// Profiles over a pool of hand-picked hashes: each draws a handful of
/// pool hashes, and every third also carries hashes private to it, so
/// profiles outside the training sample probe hashes no centroid
/// carries.
ProfileStore adversarialStore(const std::vector<uint64_t> &Pool, size_t N,
                              uint64_t Seed) {
  Rng R(Seed);
  std::vector<KernelProfile> Profiles;
  for (size_t I = 0; I < N; ++I) {
    std::vector<uint64_t> Hashes;
    const size_t Size = R.uniformInt(1, 12);
    for (size_t E = 0; E < Size; ++E)
      Hashes.push_back(Pool[R.uniformInt(0, Pool.size() - 1)]);
    if (I % 3 == 0)
      Hashes.push_back(0xF00D000000000000ULL + I);
    Profiles.push_back(profileOf(Hashes, R));
  }
  return storeOf(Profiles);
}

void expectAdversarialMatches(const std::vector<uint64_t> &Pool,
                              const std::string &What) {
  const ProfileStore Store = adversarialStore(Pool, 96, Pool.size());
  for (size_t Sample : {0u, 24u}) {
    for (size_t C : {0u, 5u}) {
      ClusterRouterOptions Options;
      Options.NumCentroids = C;
      Options.TrainingSample = Sample;
      const std::string Case = What + ", sample " + std::to_string(Sample) +
                               ", C " + std::to_string(C);
      expectMatchesReference(Store, Options, 1, Case);
      expectMatchesReference(Store, Options, 4, Case + ", 4 threads");
    }
  }
}

TEST(ClusterRouterTest, HashesSharingTopBits) {
  std::vector<uint64_t> Pool;
  for (uint64_t I = 0; I < 64; ++I)
    Pool.push_back((0xABCDEULL << 44) | (I * 0x1003));
  expectAdversarialMatches(Pool, "shared top bits");
}

TEST(ClusterRouterTest, SmallIntegerHashes) {
  // Hash 0 is included: it must not be mistaken for an empty slot.
  std::vector<uint64_t> Pool;
  for (uint64_t I = 0; I < 48; ++I)
    Pool.push_back(I);
  Pool.push_back(~0ULL);
  expectAdversarialMatches(Pool, "small integers");
}

TEST(ClusterRouterTest, HashesCollidingAfterMultiply) {
  expectAdversarialMatches(goldenCollisions(64), "golden collisions");
}

TEST(ClusterRouterTest, HashesNoCentroidCarries) {
  // A training sample of 8 of 22 profiles: the six all-private
  // profiles that stay outside it carry hashes no centroid does, score
  // zero against every centroid, and go to centroid 0 on the tie.
  Rng R(5);
  std::vector<KernelProfile> Profiles;
  for (uint64_t I = 0; I < 16; ++I)
    Profiles.push_back(profileOf({100 + I % 4, 200 + I % 3}, R));
  for (uint64_t I = 0; I < 6; ++I)
    Profiles.push_back(profileOf({0xDEAD0000ULL + 2 * I, 0xDEAD0001ULL + 2 * I}, R));
  const ProfileStore Store = storeOf(Profiles);
  ClusterRouterOptions Options;
  Options.NumCentroids = 3;
  Options.TrainingSample = 8;
  const ClusterRouter Router = ClusterRouter::build(Store, Options, 1);
  expectSameFit(Router, referenceBuild(Store, Options), "uncarried hashes");

  size_t Uncarried = 0;
  for (size_t I = 16; I < Store.size(); ++I) {
    const ProfileView V = Store.view(I);
    bool Carried = false;
    for (size_t C = 0; C < Router.numCentroids(); ++C) {
      const ProfileView Centroid = Router.centroids().view(C);
      for (size_t E = 0; E < V.Size; ++E)
        Carried |= std::binary_search(Centroid.Hashes,
                                      Centroid.Hashes + Centroid.Size,
                                      V.Hashes[E]);
    }
    if (!Carried) {
      ++Uncarried;
      EXPECT_EQ(Router.assignments()[I], 0u) << "profile " << I;
    }
  }
  EXPECT_GT(Uncarried, 0u);
}

TEST(ClusterRouterTest, SingleFeatureProfiles) {
  Rng R(9);
  const std::vector<uint64_t> Hashes = goldenCollisions(6);
  std::vector<KernelProfile> Profiles;
  for (size_t I = 0; I < 24; ++I)
    Profiles.push_back(profileOf({Hashes[I % 6]}, R));
  const ProfileStore Store = storeOf(Profiles);
  for (size_t C : {1u, 4u, 6u}) {
    ClusterRouterOptions Options;
    Options.NumCentroids = C;
    expectMatchesReference(Store, Options, 1,
                           "single feature, C " + std::to_string(C));
  }
}

TEST(ClusterRouterTest, TiesResolveOnAscendingHashSums) {
  // Q scores exactly 0 against centroid A = (2^-60, 0.5, -0.5, ...) when
  // the shared products are summed in ascending hash order (2^-60 is
  // lost against 0.5), but 2^-60 in any order that adds it last. B
  // shares nothing with Q and scores 0, so Q ties A and B and must go
  // to the lower id. A and B are the seeds (A has unit norm, so seeding
  // leaves its values exact); seeds that put B first are the cases an
  // out-of-order sum would flip.
  KernelProfile Q, A, B;
  for (uint64_t H : {11, 12, 13})
    Q.add(H, 1.0);
  A.add(11, std::ldexp(1.0, -60));
  for (auto [H, V] : {std::pair{12, 0.5}, {13, -0.5}, {15, 0.5}, {16, 0.5}})
    A.add(H, V);
  B.add(17, 1.0);
  for (KernelProfile *P : {&Q, &A, &B})
    P->finalize();
  const ProfileStore Store = storeOf({Q, A, B});

  size_t BFirst = 0;
  for (uint64_t Seed = 0; Seed < 16; ++Seed) {
    ClusterRouterOptions Options;
    Options.NumCentroids = 2;
    Options.MaxIterations = 0;
    Options.Seed = Seed;
    const ClusterRouter Router = ClusterRouter::build(Store, Options, 1);
    expectSameFit(Router, referenceBuild(Store, Options),
                  "seed " + std::to_string(Seed));
    BFirst += Router.centroids().view(0).Size == 1 &&
              Router.centroids().view(1).Size == 5;
  }
  EXPECT_GT(BFirst, 0u);
}

TEST(ClusterRouterTest, UpdateSumsStartFromPositiveZero) {
  // -2^-1074 * (1 / 4) rounds to -0.0: a feature whose only
  // contribution is that product sums to +0.0 + -0.0 = +0.0, and the
  // centroid must carry +0.0, not the -0.0 a sum seeded with its first
  // term would give.
  KernelProfile P;
  P.add(5, -std::numeric_limits<double>::denorm_min());
  P.add(9, 4.0);
  P.finalize();
  const ProfileStore Store = storeOf({P, P});
  ClusterRouterOptions Options;
  Options.NumCentroids = 1;
  Options.MaxIterations = 1;
  const ClusterRouter Router = ClusterRouter::build(Store, Options, 1);
  ASSERT_EQ(Router.centroids().view(0).Size, 2u);
  EXPECT_EQ(std::bit_cast<uint64_t>(Router.centroids().view(0).Values[0]),
            std::bit_cast<uint64_t>(0.0));
  expectSameFit(Router, referenceBuild(Store, Options), "signed zero");
}

} // namespace
