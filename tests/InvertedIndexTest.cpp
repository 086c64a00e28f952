//===- tests/InvertedIndexTest.cpp - differential recall harness -----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The correctness harness of the two-tier (cluster router + inverted
// posting lists) retrieval path, pinned against the exact O(N) scan as
// ground truth. The central contract: run *exhaustively* — every
// centroid probed, no df-pruning, no re-rank budget (the
// RoutingOptions defaults) — the approximate path must be
// bit-identical to the exact scan: same entries, same similarity bit
// patterns, same tie-break order. Under aggressive pruning the
// results may differ, but only within a measured recall envelope, and
// structural invariants (unrouted tail always found, tombstoned
// entries never resurface, snapshots immune to later routing
// rebuilds) must hold unconditionally.
//
//===----------------------------------------------------------------------===//

#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"
#include "workloads/DatasetBuilder.h"
#include "workloads/Generators.h"

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <set>

using namespace kast;

namespace {

WeightedString randomString(const std::shared_ptr<TokenTable> &Table, Rng &R,
                            size_t Length, uint32_t Alphabet) {
  WeightedString S(Table);
  for (size_t I = 0; I < Length; ++I)
    S.append("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
             R.uniformInt(1, 16));
  return S;
}

std::vector<WeightedString>
randomCorpus(const std::shared_ptr<TokenTable> &Table, Rng &R, size_t N,
             const std::string &Prefix) {
  std::vector<WeightedString> Corpus;
  for (size_t I = 0; I < N; ++I) {
    WeightedString S = randomString(Table, R, R.uniformInt(4, 32), 6);
    S.setName(Prefix + std::to_string(I));
    Corpus.push_back(std::move(S));
  }
  return Corpus;
}

BlendedSpectrumKernel testKernel() {
  return BlendedSpectrumKernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
}

/// A service over named profiles, remembering every entry's profile in
/// insertion order — with one shard, that order is the tie-break.
struct TrackedService {
  IndexService Service;
  std::vector<std::string> Names;
  std::vector<KernelProfile> Profiles;

  explicit TrackedService(const std::string &KernelName,
                  IndexServiceOptions Options = {.Shards = 1})
      : Service(KernelName, Options) {}

  void add(const std::string &Name, KernelProfile Profile,
           const std::string &Label = "") {
    Service.add(Name, Label, Profile);
    Names.push_back(Name);
    Profiles.push_back(std::move(Profile));
  }
  void addAll(const ProfiledStringKernel &Kernel,
              const std::vector<WeightedString> &Strings) {
    for (const WeightedString &S : Strings)
      add(S.name(), Kernel.profile(S));
  }
  size_t size() const { return Profiles.size(); }
};

/// The borrowed form IndexSnapshot::queryBatch takes.
std::vector<const KernelProfile *>
borrowed(const std::vector<KernelProfile> &Profiles) {
  std::vector<const KernelProfile *> Out;
  for (const KernelProfile &P : Profiles)
    Out.push_back(&P);
  return Out;
}

/// The routing \p Service would save: its one shard's exported arenas,
/// present while that shard is exactly its routed segment.
std::shared_ptr<const RoutingArenas>
exportedRouting(const IndexService &Service) {
  return Service.toShardCaches()[0].Routing;
}

/// Bit-identical, not just ==: similarity must carry the exact scan's
/// bit pattern (a double == would let -0.0 pass for +0.0).
void expectHitsBitIdentical(const std::vector<ServiceHit> &Approx,
                            const std::vector<ServiceHit> &Exact,
                            const std::string &What) {
  ASSERT_EQ(Approx.size(), Exact.size()) << What;
  for (size_t I = 0; I < Exact.size(); ++I) {
    EXPECT_EQ(Approx[I].Name, Exact[I].Name) << What << " rank " << I;
    EXPECT_EQ(Approx[I].Label, Exact[I].Label) << What << " rank " << I;
    EXPECT_EQ(std::bit_cast<uint64_t>(Approx[I].Similarity),
              std::bit_cast<uint64_t>(Exact[I].Similarity))
        << What << " rank " << I;
  }
}

double recallAgainst(const std::vector<ServiceHit> &Exact,
                     const std::vector<ServiceHit> &Approx) {
  if (Exact.empty())
    return 1.0;
  std::set<std::string> Truth;
  for (const ServiceHit &H : Exact)
    Truth.insert(H.Name);
  size_t Found = 0;
  for (const ServiceHit &H : Approx)
    Found += Truth.count(H.Name);
  return static_cast<double>(Found) / static_cast<double>(Truth.size());
}

//===----------------------------------------------------------------------===//
// Differential: exhaustive mode is the exact scan, bit for bit
//===----------------------------------------------------------------------===//

TEST(InvertedIndexTest, ExhaustiveModeIsBitIdenticalToExactScan) {
  Rng R(1107);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Strings = randomCorpus(Table, R, 48, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  TrackedService Index(Kernel.name());
  Index.addAll(Kernel, Strings);
  // Duplicate a third of the corpus under fresh names: exact ties are
  // now abundant and the (sim desc, position asc) order must survive
  // the candidate-generation detour.
  for (size_t I = 0; I < Strings.size(); I += 3)
    Index.add("dup" + std::to_string(I), Kernel.profile(Strings[I]));

  // RoutingOptions defaults *are* exhaustive mode: every centroid
  // probed, no df-pruning, no re-rank budget.
  RoutingOptions Exhaustive;
  Exhaustive.Cluster.NumCentroids = 7;
  IndexService &Service = Index.Service;
  Service.rebuildRouting(Exhaustive, /*Threads=*/1);
  ASSERT_TRUE(Service.routed());
  ASSERT_NE(exportedRouting(Service), nullptr);
  ASSERT_EQ(exportedRouting(Service)->Covered, Index.size());

  std::vector<KernelProfile> Queries;
  for (const WeightedString &Q : randomCorpus(Table, R, 12, "q"))
    Queries.push_back(Kernel.profile(Q));
  for (size_t I = 0; I < Index.size(); I += 7) // Self queries: exact ties.
    Queries.push_back(Index.Profiles[I]);
  Queries.push_back(KernelProfile()); // Empty query: everything scores 0.
  {
    // A query over a disjoint alphabet shares no feature with anyone:
    // every similarity is +0.0 and the result must be the pure
    // zero-fill order (insertion order).
    WeightedString Alien(Table);
    for (size_t I = 0; I < 8; ++I)
      Alien.append("z" + std::to_string(I), 3);
    Queries.push_back(Kernel.profile(Alien));
  }

  for (size_t Q = 0; Q < Queries.size(); ++Q) {
    for (size_t K : {size_t(1), size_t(5), Index.size(), Index.size() + 10}) {
      for (bool Normalize : {true, false}) {
        const std::string What = "query " + std::to_string(Q) + " k " +
                                 std::to_string(K) +
                                 (Normalize ? " cos" : " raw");
        expectHitsBitIdentical(
            Service.queryApprox(Queries[Q], K, Normalize, 0, 1),
            Service.query(Queries[Q], K, Normalize, 1), What);
      }
    }
  }
  // The batch call, routed against exact, on three worker chunks.
  const IndexSnapshot Snap = Service.snapshot();
  for (size_t K : {size_t(5), Index.size() + 10}) {
    const std::vector<std::vector<ServiceHit>> Exact =
        Snap.queryBatch(borrowed(Queries), K, true, 3);
    const std::vector<std::vector<ServiceHit>> Routed =
        Snap.queryBatch(borrowed(Queries), K, true, 3, /*Approx=*/true);
    for (size_t Q = 0; Q < Queries.size(); ++Q)
      expectHitsBitIdentical(Routed[Q], Exact[Q],
                             "batch query " + std::to_string(Q) + " k " +
                                 std::to_string(K));
  }
}

TEST(InvertedIndexTest, SingleCentroidExhaustiveStillBitIdentical) {
  Rng R(2214);
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel = testKernel();
  TrackedService Index(Kernel.name());
  Index.addAll(Kernel, randomCorpus(Table, R, 30, "c"));
  IndexService &Service = Index.Service;

  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 1;
  Service.rebuildRouting(Opts, 1);
  ASSERT_NE(exportedRouting(Service), nullptr);
  ASSERT_EQ(exportedRouting(Service)->Centroids.size(), 1u);

  std::vector<KernelProfile> Selves;
  for (size_t I = 0; I < Index.size(); I += 5) {
    Selves.push_back(Index.Profiles[I]);
    expectHitsBitIdentical(Service.queryApprox(Selves.back(), 6, true, 0, 1),
                           Service.query(Selves.back(), 6, true, 1),
                           "self " + std::to_string(I));
  }
  KernelProfile Held = Kernel.profile(randomCorpus(Table, R, 1, "h")[0]);
  expectHitsBitIdentical(Service.queryApprox(Held, 9, true, 0, 1),
                         Service.query(Held, 9, true, 1), "held-out");
  const std::vector<std::vector<ServiceHit>> Routed =
      Service.snapshot().queryBatch(borrowed(Selves), 6, true, 2,
                                    /*Approx=*/true);
  for (size_t Q = 0; Q < Selves.size(); ++Q)
    expectHitsBitIdentical(Routed[Q], Service.query(Selves[Q], 6, true, 1),
                           "batch self " + std::to_string(Q));
}

TEST(InvertedIndexTest, EdgeCasesReturnCleanly) {
  BlendedSpectrumKernel Kernel = testKernel();
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();

  // Routing an empty service fits nothing: queries fall through.
  IndexService Empty("k", {.Shards = 1});
  Empty.rebuildRouting({}, 1);
  EXPECT_FALSE(Empty.routed());
  EXPECT_TRUE(Empty.queryApprox(P, 3).empty());
  EXPECT_TRUE(Empty.queryApprox(P, 0).empty());
  EXPECT_TRUE(Empty.queryApprox(KernelProfile(), 4).empty());

  // An unrouted service answers queryApprox through the exact scan.
  IndexService Unrouted("k", {.Shards = 1});
  Unrouted.add("a", "", P);
  EXPECT_FALSE(Unrouted.routed());
  expectHitsBitIdentical(Unrouted.queryApprox(P, 2, true, 0, 1),
                         Unrouted.query(P, 2, true, 1), "unrouted fallback");

  // k == 0 and k > N on a routed service.
  Rng R(5150);
  auto Table = TokenTable::create();
  TrackedService Index(Kernel.name());
  Index.addAll(Kernel, randomCorpus(Table, R, 9, "c"));
  IndexService &Service = Index.Service;
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 3;
  Service.rebuildRouting(Opts, 1);
  const KernelProfile &Q = Index.Profiles[4];
  EXPECT_TRUE(Service.queryApprox(Q, 0).empty());
  expectHitsBitIdentical(Service.queryApprox(Q, 100, true, 0, 1),
                         Service.query(Q, 100, true, 1), "k beyond size");
  EXPECT_EQ(Service.queryApprox(Q, 100).size(), Index.size());

  // compact() really drops the routing.
  Service.compact(1);
  EXPECT_FALSE(Service.routed());
  EXPECT_EQ(Service.snapshot().routedShardCount(), 0u);
}

TEST(InvertedIndexTest, UnroutedTailIsAlwaysScannedExactly) {
  Rng R(3321);
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel = testKernel();
  // A small seal threshold spreads the tail over sealed segments and
  // the staging tail.
  TrackedService Index(Kernel.name(), {.Shards = 1, .SealThreshold = 4});
  Index.addAll(Kernel, randomCorpus(Table, R, 40, "c"));
  IndexService &Service = Index.Service;
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 5;
  Service.rebuildRouting(Opts, 1);
  const size_t Covered = Index.size();

  Index.addAll(Kernel, randomCorpus(Table, R, 10, "tail"));
  ASSERT_EQ(Service.snapshot().routedShardCount(), 1u);
  ASSERT_GT(Index.size(), Covered);

  // Exhaustive: still bit-identical with a tail present, one query at
  // a time and batched.
  std::vector<KernelProfile> Selves;
  for (size_t I = 0; I < Index.size(); I += 11) {
    Selves.push_back(Index.Profiles[I]);
    expectHitsBitIdentical(Service.queryApprox(Selves.back(), 7, true, 0, 1),
                           Service.query(Selves.back(), 7, true, 1),
                           "tail self " + std::to_string(I));
  }
  const std::vector<std::vector<ServiceHit>> Routed =
      Service.snapshot().queryBatch(borrowed(Selves), 7, true, 2,
                                    /*Approx=*/true);
  for (size_t Q = 0; Q < Selves.size(); ++Q)
    expectHitsBitIdentical(Routed[Q], Service.query(Selves[Q], 7, true, 1),
                           "batch tail self " + std::to_string(Q));

  // Aggressive pruning: a tail entry queried with itself must still be
  // rank 1 at cosine 1 — the tail bypasses every pruning knob.
  RoutingOptions Aggressive;
  Aggressive.Cluster.NumCentroids = 5;
  Aggressive.MaxDocFrequency = 0.2;
  Aggressive.RerankBudget = 4;
  Aggressive.DefaultNProbe = 1;
  Service.rebuildRouting(Aggressive, 1);
  const size_t Refit = Index.size();
  Index.addAll(Kernel, randomCorpus(Table, R, 6, "tail2"));
  for (size_t I = Refit; I < Index.size(); ++I) {
    std::vector<ServiceHit> Hits =
        Service.queryApprox(Index.Profiles[I], 1, true, 0, 1);
    ASSERT_EQ(Hits.size(), 1u);
    EXPECT_EQ(Hits[0].Name, Index.Names[I]);
    EXPECT_NEAR(Hits[0].Similarity, 1.0, 1e-12);
  }
}

//===----------------------------------------------------------------------===//
// Differential: aggressive pruning stays inside a recall envelope
//===----------------------------------------------------------------------===//

TEST(InvertedIndexTest, AggressivePruningKeepsRecall) {
  // A structured corpus (generator categories + mutated copies) is
  // what the router is for: near-duplicates land in the same cluster.
  CorpusOptions Shape;
  Shape.BaseA = 6;
  Shape.BaseB = 6;
  Shape.BaseC = 6;
  Shape.BaseD = 6;
  Shape.CopiesPerBase = 6;
  LabeledDataset Data = convertCorpus(Pipeline::withBytes(), generateCorpus(Shape));
  ASSERT_GE(Data.size(), 100u);
  BlendedSpectrumKernel Kernel = testKernel();

  TrackedService Index(Kernel.name());
  for (size_t I = 0; I < Data.size(); ++I)
    Index.add(Data.string(I).name(), Kernel.profile(Data.string(I)),
              Data.label(I));
  IndexService &Service = Index.Service;

  RoutingOptions Aggressive;
  Aggressive.Cluster.NumCentroids = 8;
  Aggressive.MaxDocFrequency = 0.25;
  Aggressive.RerankBudget = 48;
  Aggressive.DefaultNProbe = 2;
  Service.rebuildRouting(Aggressive, 1);

  double RecallSum = 0.0;
  size_t QueryCount = 0;
  for (size_t I = 0; I < Index.size(); I += 3) {
    const KernelProfile &Q = Index.Profiles[I];
    RecallSum += recallAgainst(Service.query(Q, 5, true, 1),
                               Service.queryApprox(Q, 5, true, 0, 1));
    ++QueryCount;
  }
  const double Recall = RecallSum / static_cast<double>(QueryCount);
  // Deterministic corpus + deterministic fit: this is a fixed number,
  // asserted with slack so kernel-side tweaks don't thrash the test.
  EXPECT_GE(Recall, 0.85) << "mean recall@5 " << Recall << " over "
                          << QueryCount << " queries";
}

//===----------------------------------------------------------------------===//
// Persistence: the image restores the tier bit-for-bit
//===----------------------------------------------------------------------===//

TEST(InvertedIndexTest, SaveLoadRoundTripsRoutingSidecar) {
  Rng R(7788);
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel = testKernel();
  TrackedService Index(Kernel.name());
  Index.addAll(Kernel, randomCorpus(Table, R, 36, "c"));
  IndexService &Service = Index.Service;
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 6;
  Opts.MaxDocFrequency = 0.5;
  Opts.RerankBudget = 16;
  Opts.DefaultNProbe = 3;
  Service.rebuildRouting(Opts, 1);
  const ProfileStoreCache Saved = Service.toShardCaches()[0];
  ASSERT_NE(Saved.Store.quantized(), nullptr);
  ASSERT_NE(Saved.Routing, nullptr);

  // One image: the routing arenas and the int8 sidecar ride inside it,
  // and loading them fits nothing and rebuilds nothing.
  const std::string Dir = testing::TempDir() + "/kast_routed_index";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(writeShardedProfileImages(Service.toShardCaches(), Dir).ok());
  const uint64_t Fits = kmeansFitCount();
  const uint64_t Rebuilds = postingRebuildCount();
  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir, Kernel.name());
  ASSERT_TRUE(Caches.hasValue()) << Caches.message();
  Expected<IndexService> Loaded = IndexService::fromShardCaches(Caches.take());
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  EXPECT_EQ(kmeansFitCount(), Fits);
  EXPECT_EQ(postingRebuildCount(), Rebuilds);
  ASSERT_TRUE(Loaded->routed());
  const ProfileStoreCache Restored = Loaded->toShardCaches()[0];
  ASSERT_NE(Restored.Store.quantized(), nullptr);
  EXPECT_EQ(Restored.Store.quantized()->values(),
            Saved.Store.quantized()->values());
  ASSERT_NE(Restored.Routing, nullptr);
  const RoutingArenas &A = *Restored.Routing;
  EXPECT_EQ(A.Covered, Saved.Routing->Covered);
  EXPECT_EQ(A.Centroids.size(), Saved.Routing->Centroids.size());
  EXPECT_EQ(A.Assignments, Saved.Routing->Assignments);
  EXPECT_EQ(A.MaxDocFrequency, Opts.MaxDocFrequency);
  EXPECT_EQ(A.RerankBudget, Opts.RerankBudget);
  EXPECT_EQ(A.DefaultNProbe, Opts.DefaultNProbe);

  // Same pruned-path answers (bitwise), same exhaustive and exact
  // answers.
  const size_t AllCentroids = A.Centroids.size();
  for (size_t I = 0; I < Index.size(); I += 5) {
    const KernelProfile &Q = Index.Profiles[I];
    expectHitsBitIdentical(Loaded->queryApprox(Q, 5, true, 0, 1),
                           Service.queryApprox(Q, 5, true, 0, 1),
                           "pruned reload " + std::to_string(I));
    expectHitsBitIdentical(Loaded->query(Q, 5, true, 1),
                           Service.query(Q, 5, true, 1),
                           "exact reload " + std::to_string(I));
    expectHitsBitIdentical(
        Loaded->queryApprox(Q, 5, true, /*NProbe=*/AllCentroids, 1),
        Service.queryApprox(Q, 5, true, AllCentroids, 1),
        "exhaustive reload " + std::to_string(I));
  }

  // Saving the service unrouted drops the routing sections with it.
  Service.compact(1);
  ASSERT_TRUE(writeShardedProfileImages(Service.toShardCaches(), Dir).ok());
  Expected<std::vector<ProfileStoreCache>> Plain =
      loadShardedProfileImages(Dir, Kernel.name());
  ASSERT_TRUE(Plain.hasValue()) << Plain.message();
  EXPECT_EQ((*Plain)[0].Routing, nullptr);
  Expected<IndexService> Unrouted = IndexService::fromShardCaches(Plain.take());
  ASSERT_TRUE(Unrouted.hasValue()) << Unrouted.message();
  EXPECT_FALSE(Unrouted->routed());
}

//===----------------------------------------------------------------------===//
// Service: routing under snapshot isolation
//===----------------------------------------------------------------------===//

TEST(InvertedIndexTest, ServiceExhaustiveApproxMatchesExact) {
  Rng R(9090);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 50, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  IndexService Service(Kernel.name(), {.Shards = 3});
  for (const WeightedString &S : Corpus)
    Service.add(S.name(), "", Kernel.profile(S));
  RoutingOptions Exhaustive;
  Exhaustive.Cluster.NumCentroids = 4;
  Service.rebuildRouting(Exhaustive, 1);
  ASSERT_TRUE(Service.routed());

  // Post-routing writes land in the unrouted tail; removals tombstone
  // inside the routed segment. Both paths must agree after that.
  std::vector<WeightedString> Extra = randomCorpus(Table, R, 8, "x");
  for (const WeightedString &S : Extra)
    Service.add(S.name(), "", Kernel.profile(S));
  ASSERT_EQ(Service.remove(Corpus[7].name()), 1u);
  ASSERT_EQ(Service.remove(Corpus[20].name()), 1u);

  std::vector<KernelProfile> Queries;
  for (const WeightedString &Q : randomCorpus(Table, R, 8, "q"))
    Queries.push_back(Kernel.profile(Q));
  Queries.push_back(Kernel.profile(Corpus[7]));  // Removed: must be absent.
  Queries.push_back(KernelProfile());
  std::vector<const KernelProfile *> Borrowed;
  for (const KernelProfile &Q : Queries)
    Borrowed.push_back(&Q);
  const IndexSnapshot Snap = Service.snapshot();
  for (size_t K : {size_t(1), size_t(6), size_t(200)}) {
    const std::vector<std::vector<ServiceHit>> Routed =
        Snap.queryBatch(Borrowed, K, true, 2, /*Approx=*/true);
    for (size_t Q = 0; Q < Queries.size(); ++Q) {
      const std::string What =
          "query " + std::to_string(Q) + " k " + std::to_string(K);
      const std::vector<ServiceHit> Exact =
          Service.query(Queries[Q], K, true, 1);
      expectHitsBitIdentical(
          Service.queryApprox(Queries[Q], K, true, /*NProbe=*/0, 1), Exact,
          What);
      expectHitsBitIdentical(Routed[Q], Exact, "batch " + What);
    }
  }
  // The tombstoned name never resurfaces, not even via zero-fill.
  for (const ServiceHit &H :
       Service.queryApprox(Kernel.profile(Corpus[7]), 200, true, 0, 1))
    EXPECT_NE(H.Name, Corpus[7].name());
}

TEST(InvertedIndexTest, SnapshotTakenMidIngestIsImmuneToRoutingRebuild) {
  Rng R(4242);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 40, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  IndexServiceOptions SvcOpts;
  SvcOpts.Shards = 2;
  SvcOpts.SealThreshold = 8;
  IndexService Service(Kernel.name(), SvcOpts);
  for (size_t I = 0; I < 25; ++I)
    Service.add(Corpus[I].name(), "", Kernel.profile(Corpus[I]));
  Service.rebuildRouting({}, 1);
  for (size_t I = 25; I < 32; ++I) // Mid-ingest: tail behind the routing.
    Service.add(Corpus[I].name(), "", Kernel.profile(Corpus[I]));

  IndexSnapshot Snap = Service.snapshot();
  KernelProfile Probe = Kernel.profile(Corpus[3]);
  std::vector<ServiceHit> ExactBefore = Snap.query(Probe, 10, true, 1);
  std::vector<ServiceHit> ApproxBefore = Snap.queryApprox(Probe, 10, true, 0, 1);
  // Exhaustive defaults: the snapshot's two paths already agree.
  expectHitsBitIdentical(ApproxBefore, ExactBefore, "snapshot pre-mutation");

  // Mutate the service hard: grow, remove, re-route, compact.
  for (size_t I = 32; I < Corpus.size(); ++I)
    Service.add(Corpus[I].name(), "", Kernel.profile(Corpus[I]));
  Service.remove(Corpus[3].name());
  RoutingOptions Aggressive;
  Aggressive.Cluster.NumCentroids = 3;
  Aggressive.MaxDocFrequency = 0.3;
  Aggressive.DefaultNProbe = 1;
  Service.rebuildRouting(Aggressive, 1);
  Service.compact(1);

  // The snapshot re-answers identically, both paths, bit for bit.
  expectHitsBitIdentical(Snap.query(Probe, 10, true, 1), ExactBefore,
                         "snapshot exact post-mutation");
  expectHitsBitIdentical(Snap.queryApprox(Probe, 10, true, 0, 1), ApproxBefore,
                         "snapshot approx post-mutation");

  // And the live service reflects the mutations: a compact() drops the
  // routing (fitted on replaced arenas), so approx falls back to exact
  // and the removed entry is gone.
  EXPECT_EQ(Service.snapshot().routedShardCount(), 0u);
  for (const ServiceHit &H : Service.queryApprox(Probe, 100, true, 0, 1))
    EXPECT_NE(H.Name, Corpus[3].name());
  expectHitsBitIdentical(Service.queryApprox(Probe, 10, true, 0, 1),
                         Service.query(Probe, 10, true, 1),
                         "post-compact fallback");
}

TEST(InvertedIndexTest, ServiceRoutingPersistsAcrossRestart) {
  Rng R(6161);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 44, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  IndexServiceOptions SvcOpts;
  SvcOpts.Shards = 3;
  IndexService Service(Kernel.name(), SvcOpts);
  for (const WeightedString &S : Corpus)
    Service.add(S.name(), "", Kernel.profile(S));
  RoutingOptions Opts;
  Opts.Cluster.NumCentroids = 4;
  Opts.MaxDocFrequency = 0.5;
  Opts.DefaultNProbe = 2;
  Service.rebuildRouting(Opts, 1);

  const std::string Dir = testing::TempDir() + "/kast_svc_routing";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(writeShardedProfileImages(Service.toShardCaches(), Dir).ok());

  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir);
  ASSERT_TRUE(Caches.hasValue()) << Caches.message();
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Caches.take(), SvcOpts);
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  EXPECT_EQ(Restored->snapshot().routedShardCount(), SvcOpts.Shards);

  for (size_t I = 0; I < Corpus.size(); I += 6) {
    KernelProfile Q = Kernel.profile(Corpus[I]);
    expectHitsBitIdentical(Restored->queryApprox(Q, 5, true, 0, 1),
                           Service.queryApprox(Q, 5, true, 0, 1),
                           "restored pruned " + std::to_string(I));
  }

  // Routing travels with the contents it was fitted on: after a remove
  // and a compaction (which drops the fit), the re-saved images carry
  // no routing, and the restart serves those shards exactly.
  ASSERT_GT(Restored->remove(Corpus[1].name()), 0u);
  Restored->compact(1);
  ASSERT_TRUE(
      writeShardedProfileImages(Restored->toShardCaches(), Dir).ok());
  Expected<std::vector<ProfileStoreCache>> Resaved =
      loadShardedProfileImages(Dir);
  ASSERT_TRUE(Resaved.hasValue()) << Resaved.message();
  for (const ProfileStoreCache &Cache : *Resaved)
    EXPECT_EQ(Cache.Routing, nullptr);
  Expected<IndexService> Unrouted =
      IndexService::fromShardCaches(Resaved.take(), SvcOpts);
  ASSERT_TRUE(Unrouted.hasValue()) << Unrouted.message();
  EXPECT_EQ(Unrouted->snapshot().routedShardCount(), 0u);
  for (size_t I = 0; I < Corpus.size(); I += 6) {
    KernelProfile Q = Kernel.profile(Corpus[I]);
    expectHitsBitIdentical(Unrouted->queryApprox(Q, 5, true, 0, 1),
                           Restored->query(Q, 5, true, 1),
                           "re-saved " + std::to_string(I));
  }
}

//===----------------------------------------------------------------------===//
// Router unit behavior
//===----------------------------------------------------------------------===//

TEST(InvertedIndexTest, RouterFitIsThreadCountInvariant) {
  Rng R(8181);
  auto Table = TokenTable::create();
  std::vector<WeightedString> Corpus = randomCorpus(Table, R, 64, "c");
  BlendedSpectrumKernel Kernel = testKernel();
  ProfileStore Store;
  for (const WeightedString &S : Corpus)
    Store.append(Kernel.profile(S));

  ClusterRouterOptions Opts;
  Opts.NumCentroids = 6;
  ClusterRouter Serial = ClusterRouter::build(Store, Opts, 1);
  ClusterRouter Parallel = ClusterRouter::build(Store, Opts, 4);
  EXPECT_EQ(Serial.assignments(), Parallel.assignments());
  ASSERT_EQ(Serial.numCentroids(), Parallel.numCentroids());
  for (size_t C = 0; C < Serial.numCentroids(); ++C) {
    const ProfileView A = Serial.centroids().view(C);
    const ProfileView B = Parallel.centroids().view(C);
    ASSERT_EQ(A.Size, B.Size) << "centroid " << C;
    for (size_t E = 0; E < A.Size; ++E) {
      EXPECT_EQ(A.Hashes[E], B.Hashes[E]) << "centroid " << C;
      EXPECT_EQ(std::bit_cast<uint64_t>(A.Values[E]),
                std::bit_cast<uint64_t>(B.Values[E]))
          << "centroid " << C;
    }
  }

  // Assignments are in range, and each profile's assigned centroid is
  // the one route() ranks first.
  for (size_t I = 0; I < Store.size(); ++I) {
    ASSERT_LT(Serial.assignments()[I], Serial.numCentroids());
    std::vector<uint32_t> Top = Serial.route(Store.materialize(I), 1);
    ASSERT_EQ(Top.size(), 1u);
    EXPECT_EQ(Top[0], Serial.assignments()[I]) << "profile " << I;
  }

  // route() clamps NProbe and returns every centroid for NProbe == 0.
  EXPECT_EQ(Serial.route(Store.materialize(0), 0).size(),
            Serial.numCentroids());
  EXPECT_EQ(Serial.route(Store.materialize(0), 100).size(),
            Serial.numCentroids());
}

} // namespace
