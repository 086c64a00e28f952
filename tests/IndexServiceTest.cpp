//===- tests/IndexServiceTest.cpp - concurrent serving layer ---------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The serving contract of index/IndexService: adds and removes publish
// atomically and agree with ProfileIndex ground truth, snapshots are
// immutable (they answer identically forever, through concurrent
// writes and compactions), sharded images restart a service bit-exactly,
// and the whole thing holds up under ASan/UBSan with writers and
// readers interleaving freely.
//
//===----------------------------------------------------------------------===//

#include "index/IndexService.h"
#include "index/ProfileIndex.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <filesystem>
#include <set>
#include <thread>

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

/// N profiles with unique names "<prefix><i>" and labels cycling
/// through "a"/"b"/"c".
struct NamedProfiles {
  std::vector<std::string> Names;
  std::vector<std::string> Labels;
  std::vector<KernelProfile> Profiles;
};

NamedProfiles makeProfiles(const ProfiledStringKernel &Kernel, size_t N,
                           const std::string &Prefix, uint64_t Seed) {
  Rng R(Seed);
  auto Table = TokenTable::create();
  NamedProfiles Out;
  const char *Cycle[] = {"a", "b", "c"};
  for (size_t I = 0; I < N; ++I) {
    Out.Names.push_back(Prefix + std::to_string(I));
    Out.Labels.push_back(Cycle[I % 3]);
    Out.Profiles.push_back(
        Kernel.profile(randomString(Table, R, R.uniformInt(4, 24), 6)));
  }
  return Out;
}

BlendedSpectrumKernel &kernel() {
  static BlendedSpectrumKernel K(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  return K;
}

/// The borrowed form IndexSnapshot::queryBatch takes.
std::vector<const KernelProfile *>
borrowed(const std::vector<KernelProfile> &Profiles) {
  std::vector<const KernelProfile *> Out;
  for (const KernelProfile &P : Profiles)
    Out.push_back(&P);
  return Out;
}

/// (name, similarity bit pattern) pairs of service hits, for
/// bit-identical ground-truth compares.
std::vector<std::pair<std::string, uint64_t>>
flatten(const std::vector<ServiceHit> &Hits) {
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (const ServiceHit &H : Hits)
    Out.push_back({H.Name, std::bit_cast<uint64_t>(H.Similarity)});
  return Out;
}

std::vector<std::pair<std::string, uint64_t>>
flatten(const ProfileIndex &Index, const std::vector<Neighbor> &Hits) {
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (const Neighbor &H : Hits)
    Out.push_back({Index.name(H.Index), std::bit_cast<uint64_t>(H.Similarity)});
  return Out;
}

KernelProfile makeProfile(const std::vector<ProfileEntry> &Entries) {
  KernelProfile P;
  for (const ProfileEntry &E : Entries)
    P.add(E.Hash, E.Value);
  P.finalize();
  return P;
}

//===----------------------------------------------------------------------===//
// Single-threaded correctness against ProfileIndex ground truth
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, AddsPublishImmediatelyAndMatchProfileIndex) {
  // Small shards and a tiny seal threshold so the test crosses every
  // structural boundary: staging tails, sealed segments, multi-shard
  // merges.
  IndexServiceOptions Options;
  Options.Shards = 3;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  ProfileIndex Truth(kernel().name());

  NamedProfiles P = makeProfiles(kernel(), 30, "s", 11);
  for (size_t I = 0; I < P.Profiles.size(); ++I) {
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
    Truth.add(P.Names[I], P.Labels[I], P.Profiles[I]);
    EXPECT_EQ(Service.size(), I + 1); // Visible as soon as add returns.
  }
  EXPECT_EQ(Service.kernelName(), kernel().name());
  EXPECT_EQ(Service.shardCount(), 3u);

  // Similarities are computed by the same merge-join over the same
  // bit patterns, so service hits must match the index hit-for-hit
  // (random profiles make cross-shard ties vanishingly unlikely).
  NamedProfiles Q = makeProfiles(kernel(), 8, "q", 12);
  for (bool Normalize : {true, false})
    for (const KernelProfile &Query : Q.Profiles)
      EXPECT_EQ(flatten(Service.query(Query, 5, Normalize, 1)),
                flatten(Truth, Truth.query(Query, 5, Normalize)));

  // Batched equals single, through one snapshot.
  IndexSnapshot Snap = Service.snapshot();
  std::vector<std::vector<ServiceHit>> Batch =
      Snap.queryBatch(borrowed(Q.Profiles), 4, true, 2);
  ASSERT_EQ(Batch.size(), Q.Profiles.size());
  for (size_t I = 0; I < Q.Profiles.size(); ++I)
    EXPECT_EQ(Batch[I], Snap.query(Q.Profiles[I], 4, true, 1));

  // Bounded selection at its edges, on one shard so positions are
  // insertion order and a ProfileIndex over the survivors is ground
  // truth: ties wider than K straddling seal boundaries and a
  // tombstone, a query scoring zero against everything, and K in
  // {0, 1, live, live + 3} — exact, then exhaustively routed with a
  // tombstone inside the routed segment and tied entries in the tail.
  IndexService One(kernel().name(), {.Shards = 1, .SealThreshold = 4});
  std::vector<std::pair<std::string, const KernelProfile *>> Added;
  std::set<std::string> Removed;
  const auto AddTo = [&](size_t I, const KernelProfile &Prof) {
    Added.push_back({"t" + std::to_string(I), &Prof});
    One.add(Added.back().first, "l", Prof);
  };
  for (size_t I = 0; I < 14; ++I) // Copies of s0 at 0, 3, 6, 9 and 12.
    AddTo(I, P.Profiles[I % 3 == 0 ? 0 : I]);
  const auto RemoveFrom = [&](const std::string &Name) {
    ASSERT_EQ(One.remove(Name), 1u);
    Removed.insert(Name);
  };
  RemoveFrom("t3");
  KernelProfile Alien = makeProfile({{1, 1.0}});
  const auto ExpectSurvivorsRanked = [&](const std::string &What) {
    ProfileIndex Survivors(kernel().name());
    for (const auto &[Name, Prof] : Added)
      if (!Removed.count(Name))
        Survivors.add(Name, "l", *Prof);
    const size_t Live = Survivors.size();
    const IndexSnapshot S = One.snapshot();
    for (size_t K : {size_t(0), size_t(1), size_t(3), Live, Live + 3})
      for (const KernelProfile *Query : {&P.Profiles[0], &Alien}) {
        const std::string At = What + " k " + std::to_string(K);
        const auto Want = flatten(Survivors, Survivors.query(*Query, K));
        ASSERT_EQ(Want.size(), std::min(K, Live)) << At;
        EXPECT_EQ(flatten(S.query(*Query, K, true, 1)), Want) << At;
        EXPECT_EQ(flatten(S.queryApprox(*Query, K, true, 0, 1)), Want) << At;
        for (bool Approx : {false, true})
          EXPECT_EQ(flatten(S.queryBatch({Query, Query}, K, true, 2,
                                         Approx)[1]),
                    Want)
              << At;
      }
  };
  ExpectSurvivorsRanked("exact");
  RoutingOptions Exhaustive;
  Exhaustive.Cluster.NumCentroids = 3;
  One.rebuildRouting(Exhaustive, 1);
  ASSERT_TRUE(One.routed());
  for (size_t I = 14; I < 17; ++I)
    AddTo(I, P.Profiles[0]);
  RemoveFrom("t6");
  ExpectSurvivorsRanked("routed");
}

TEST(IndexServiceTest, RemovedRoutedCandidateTakesNoRerankSlot) {
  // A removed entry the routed tier still finds must leave before the
  // re-rank budget is spent: with a budget of one, removing the best
  // candidate hands its slot to the runner-up rather than wasting it
  // and zero-padding a non-candidate in its place.
  IndexService Service("k", {.Shards = 1});
  Service.add("a", "", makeProfile({{1, 1.0}}));
  Service.add("b", "", makeProfile({{1, 0.5}, {3, 1.0}}));
  Service.add("c", "", makeProfile({{2, 1.0}}));
  RoutingOptions Budget;
  Budget.RerankBudget = 1;
  Service.rebuildRouting(Budget, 1);
  ASSERT_EQ(Service.remove("a"), 1u);
  const KernelProfile Query = makeProfile({{1, 1.0}});
  const std::vector<ServiceHit> Exact = Service.query(Query, 1, true, 1);
  ASSERT_EQ(Exact.size(), 1u);
  EXPECT_EQ(Exact[0].Name, "b");
  EXPECT_EQ(flatten(Service.queryApprox(Query, 1, true, 0, 1)),
            flatten(Exact));
}

TEST(IndexServiceTest, EdgeCasesReturnCleanly) {
  IndexService Service("k", {.Shards = 2, .SealThreshold = 2});
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();

  EXPECT_TRUE(Service.empty());
  EXPECT_TRUE(Service.query(P, 5).empty());
  EXPECT_EQ(Service.remove("missing"), 0u);
  Service.compact(1); // Compacting empty shards is a no-op, not a crash.
  EXPECT_TRUE(Service.snapshot().empty());

  Service.add("only", "l", P);
  EXPECT_TRUE(Service.query(P, 0).empty());          // K == 0.
  EXPECT_EQ(Service.query(P, 100).size(), 1u);       // K clamps to live.
  const KernelProfile Empty;
  std::vector<std::vector<ServiceHit>> Batch =
      Service.snapshot().queryBatch({&P, &Empty}, 3, true, 1);
  ASSERT_EQ(Batch.size(), 2u);
  EXPECT_EQ(Batch[0].size(), 1u);
  // An empty query has vanishing norm; cosine scores zero but the
  // entry is still returned.
  ASSERT_EQ(Batch[1].size(), 1u);
  EXPECT_EQ(Batch[1][0].Similarity, 0.0);

  EXPECT_EQ(IndexSnapshot::majorityLabel({}), "");
}

TEST(IndexServiceTest, MajorityLabelMatchesIndexContract) {
  // Same single-pass vote as ProfileIndex::majorityLabel: totals win,
  // count ties go to the nearer hit's label.
  std::vector<ServiceHit> Hits = {{"n0", "y", 0.9},
                                  {"n1", "x", 0.8},
                                  {"n2", "x", 0.7},
                                  {"n3", "y", 0.6}};
  EXPECT_EQ(IndexSnapshot::majorityLabel(Hits), "y");
  Hits.push_back({"n4", "x", 0.5});
  EXPECT_EQ(IndexSnapshot::majorityLabel(Hits), "x");
}

//===----------------------------------------------------------------------===//
// Removal, compaction, snapshot isolation
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, RemoveTombstonesAndSnapshotsStayIsolated) {
  IndexServiceOptions Options;
  Options.Shards = 2;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 16, "s", 21);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);

  const KernelProfile &Query = P.Profiles[5];
  IndexSnapshot Before = Service.snapshot();
  std::vector<ServiceHit> BeforeHits = Before.query(Query, 16, true, 1);
  ASSERT_EQ(BeforeHits.size(), 16u);
  // The query profile's own entry is the (cosine 1) top hit.
  EXPECT_EQ(BeforeHits[0].Name, "s5");

  EXPECT_EQ(Service.remove("s5"), 1u);
  EXPECT_EQ(Service.remove("s5"), 0u); // Already tombstoned.
  EXPECT_EQ(Service.size(), 15u);

  // Live queries no longer see the entry, at any K.
  for (const ServiceHit &H : Service.query(Query, 16, true, 1))
    EXPECT_NE(H.Name, "s5");
  // The pre-removal snapshot still answers exactly as before.
  EXPECT_EQ(Before.query(Query, 16, true, 1), BeforeHits);
  EXPECT_EQ(Before.size(), 16u);

  // Compaction drops tombstones without changing any answer...
  std::vector<ServiceHit> PreCompact = Service.query(Query, 15, true, 1);
  Service.compact(1);
  EXPECT_EQ(Service.size(), 15u);
  EXPECT_EQ(Service.query(Query, 15, true, 1), PreCompact);
  // ...and pre-compaction snapshots keep the old segments alive.
  EXPECT_EQ(Before.query(Query, 16, true, 1), BeforeHits);

  // Re-adding a removed name serves it again (a fresh entry, not a
  // resurrection of the tombstoned one).
  Service.add("s5", P.Labels[5], P.Profiles[5]);
  EXPECT_EQ(Service.size(), 16u);
  EXPECT_EQ(Service.query(Query, 1, true, 1)[0].Name, "s5");
}

//===----------------------------------------------------------------------===//
// Bulk import/export and the sharded-cache restart path
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, FromIndexServesTheWholeIndex) {
  NamedProfiles P = makeProfiles(kernel(), 20, "s", 31);
  ProfileIndex Index(kernel().name());
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Index.add(P.Names[I], P.Labels[I], P.Profiles[I]);

  IndexService Service =
      IndexService::fromIndex(Index, {.Shards = 4, .SealThreshold = 8});
  EXPECT_EQ(Service.size(), Index.size());
  EXPECT_EQ(Service.kernelName(), Index.kernelName());
  NamedProfiles Q = makeProfiles(kernel(), 6, "q", 32);
  for (const KernelProfile &Query : Q.Profiles)
    EXPECT_EQ(flatten(Service.query(Query, 5, true, 1)),
              flatten(Index, Index.query(Query, 5)));
}

TEST(IndexServiceTest, ShardCachesRestartTheServiceBitExactly) {
  IndexServiceOptions Options;
  Options.Shards = 3;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 18, "s", 41);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
  // Mix a removal in so the export path must drop tombstones.
  ASSERT_EQ(Service.remove("s7"), 1u);

  std::string Dir = testing::TempDir() + "/kast_service_restart";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(
      writeShardedProfileImages(Service.toShardCaches(), Dir).ok());

  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir, kernel().name());
  ASSERT_TRUE(Caches.hasValue()) << Caches.message();
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Caches.take());
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();

  EXPECT_EQ(Restored->size(), Service.size());
  EXPECT_EQ(Restored->shardCount(), Service.shardCount());
  EXPECT_EQ(Restored->kernelName(), Service.kernelName());
  NamedProfiles Q = makeProfiles(kernel(), 6, "q", 42);
  for (const KernelProfile &Query : Q.Profiles)
    EXPECT_EQ(Restored->query(Query, 6, true, 1),
              Service.query(Query, 6, true, 1));
  // Name-hash routing survived the round trip: remove still lands.
  EXPECT_EQ(Restored->remove("s3"), 1u);
  EXPECT_EQ(Restored->size(), Service.size() - 1);

  // Kernel-name mismatches fail at restore, not as wrong similarity.
  std::vector<ProfileStoreCache> Bad(2);
  Bad[0].KernelName = "one";
  Bad[1].KernelName = "two";
  EXPECT_FALSE(IndexService::fromShardCaches(std::move(Bad)).hasValue());
  EXPECT_FALSE(IndexService::fromShardCaches({}).hasValue());
}

TEST(IndexServiceTest, ForeignCacheLayoutsSweepAllShardsOnRemove) {
  // A hand-assembled layout can hold the same name in several shards,
  // off its hash route. Restore must detect that and remove() must
  // sweep every shard instead of trusting the home-shard invariant.
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();
  std::vector<ProfileStoreCache> Caches(2);
  for (size_t S = 0; S < 2; ++S) {
    Caches[S].KernelName = "k";
    Caches[S].Store.append(P);
    Caches[S].Names.push_back("dup"); // In both shards: one is off-route.
    Caches[S].Labels.push_back("l");
  }
  Expected<IndexService> Service =
      IndexService::fromShardCaches(std::move(Caches));
  ASSERT_TRUE(Service.hasValue()) << Service.message();
  EXPECT_EQ(Service->size(), 2u);
  EXPECT_EQ(Service->remove("dup"), 2u); // Both copies, both shards.
  EXPECT_EQ(Service->size(), 0u);
  // entryCount keeps counting the tombstoned entries until compact.
  EXPECT_EQ(Service->entryCount(), 2u);
  Service->compact(1);
  EXPECT_EQ(Service->entryCount(), 0u);
}

TEST(IndexServiceTest, ResavingFewerShardsSweepsStaleCacheFiles) {
  // Saving a 2-shard service into a directory that previously held 3
  // shards must not leave the old shard-002 behind, or the next
  // restart would serve the stale corpus alongside the new one.
  KernelProfile P;
  P.add(5, 2.0);
  P.finalize();
  auto MakeService = [&](size_t Shards, size_t Entries) {
    IndexService Service("k", {.Shards = Shards});
    for (size_t I = 0; I < Entries; ++I)
      Service.add("n" + std::to_string(I), "l", P);
    return Service;
  };
  std::string Dir = testing::TempDir() + "/kast_shard_resave";
  std::filesystem::remove_all(Dir);
  IndexService Wide = MakeService(3, 6);
  ASSERT_TRUE(writeShardedProfileImages(Wide.toShardCaches(), Dir).ok());
  IndexService Narrow = MakeService(2, 4);
  ASSERT_TRUE(writeShardedProfileImages(Narrow.toShardCaches(), Dir).ok());

  EXPECT_FALSE(std::filesystem::exists(Dir + "/shard-002.kfi"));
  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir, "k");
  ASSERT_TRUE(Caches.hasValue()) << Caches.message();
  ASSERT_EQ(Caches->size(), 2u);
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Caches.take());
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  EXPECT_EQ(Restored->size(), 4u);
}

//===----------------------------------------------------------------------===//
// Flat-image restart: mapped and buffered, routed and not
//===----------------------------------------------------------------------===//

TEST(IndexServiceTest, V3ImagesRestartTheServiceBitExactly) {
  IndexServiceOptions Options;
  Options.Shards = 3;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 18, "s", 61);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
  ASSERT_EQ(Service.remove("s5"), 1u);

  std::string Dir = testing::TempDir() + "/kast_restart_v3";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(writeShardedProfileImages(Service.toShardCaches(), Dir).ok());

  // The same images restored through the mapping and through the
  // buffered read.
  Expected<std::vector<ProfileStoreCache>> Mapped =
      loadShardedProfileImages(Dir, kernel().name());
  ASSERT_TRUE(Mapped.hasValue()) << Mapped.message();
  FlatImageReadOptions Buffered;
  Buffered.ForceBuffered = true;
  Expected<std::vector<ProfileStoreCache>> Heap =
      loadShardedProfileImages(Dir, kernel().name(), Buffered);
  ASSERT_TRUE(Heap.hasValue()) << Heap.message();

  Expected<IndexService> FromMap = IndexService::fromShardCaches(Mapped.take());
  ASSERT_TRUE(FromMap.hasValue()) << FromMap.message();
  Expected<IndexService> FromHeap = IndexService::fromShardCaches(Heap.take());
  ASSERT_TRUE(FromHeap.hasValue()) << FromHeap.message();

  // Both restored services answer bit-identically to the original.
  EXPECT_EQ(FromMap->size(), Service.size());
  EXPECT_EQ(FromHeap->size(), Service.size());
  NamedProfiles Q = makeProfiles(kernel(), 6, "q", 62);
  for (const KernelProfile &Query : Q.Profiles) {
    std::vector<ServiceHit> Truth = Service.query(Query, 6, true, 1);
    EXPECT_EQ(FromMap->query(Query, 6, true, 1), Truth);
    EXPECT_EQ(FromHeap->query(Query, 6, true, 1), Truth);
  }
}

TEST(IndexServiceTest, V3ImagesCarryRoutingAndSurviveWriters) {
  IndexServiceOptions Options;
  Options.Shards = 2;
  Options.SealThreshold = 4;
  IndexService Service(kernel().name(), Options);
  NamedProfiles P = makeProfiles(kernel(), 40, "s", 71);
  for (size_t I = 0; I < P.Profiles.size(); ++I)
    Service.add(P.Names[I], P.Labels[I], P.Profiles[I]);
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 4;
  Route.MaxDocFrequency = 0.6;
  Route.DefaultNProbe = 2;
  Route.RerankBudget = 12;
  Route.QuantizedShortlist = true;
  Service.rebuildRouting(Route, 1);
  ASSERT_EQ(Service.snapshot().routedShardCount(), Options.Shards);

  // The export carries the routing tier as flat arena views and the
  // quantized store, which the images embed.
  std::vector<ProfileStoreCache> Exported = Service.toShardCaches();
  for (const ProfileStoreCache &Cache : Exported) {
    ASSERT_NE(Cache.Routing, nullptr);
    EXPECT_EQ(Cache.Routing->Covered, Cache.Store.size());
    EXPECT_NE(Cache.Store.quantized(), nullptr);
  }
  std::string Dir = testing::TempDir() + "/kast_restart_routed_v3";
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(writeShardedProfileImages(Exported, Dir).ok());

  Expected<std::vector<ProfileStoreCache>> Images =
      loadShardedProfileImages(Dir, kernel().name());
  ASSERT_TRUE(Images.hasValue()) << Images.message();
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Images.take(), Options);
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  EXPECT_EQ(Restored->snapshot().routedShardCount(), Options.Shards);

  // Routed (pruned, quantized-shortlist) answers match the original
  // service bit for bit — router, postings, and int8 codes all came
  // through the image.
  NamedProfiles Q = makeProfiles(kernel(), 5, "q", 72);
  for (const KernelProfile &Query : Q.Profiles)
    EXPECT_EQ(Restored->queryApprox(Query, 5, true, 0, 1),
              Service.queryApprox(Query, 5, true, 0, 1));

  // Writers on the restored service must not disturb the mapped
  // segments: adds stage beside them, removes tombstone them, and a
  // pre-mutation snapshot keeps answering identically.
  IndexSnapshot Before = Restored->snapshot();
  std::vector<ServiceHit> Pinned = Before.query(Q.Profiles[0], 5, true, 1);
  NamedProfiles Extra = makeProfiles(kernel(), 8, "x", 73);
  for (size_t I = 0; I < Extra.Profiles.size(); ++I)
    Restored->add(Extra.Names[I], Extra.Labels[I], Extra.Profiles[I]);
  ASSERT_EQ(Restored->remove(P.Names[2]), 1u);
  EXPECT_EQ(Before.query(Q.Profiles[0], 5, true, 1), Pinned);
  EXPECT_EQ(Restored->size(), P.Profiles.size() + Extra.Profiles.size() - 1);

  // Compaction rebuilds owned arenas (promoting away from the mapped
  // image entirely) and the service still answers exactly.
  Restored->compact(1);
  for (const KernelProfile &Query : Q.Profiles) {
    std::vector<ServiceHit> Exact = Restored->query(Query, 5, true, 1);
    EXPECT_EQ(Restored->queryApprox(Query, 5, true, 0, 1), Exact);
  }
}

TEST(IndexServiceTest, PrefixRoutingRestoresTheShardUnrouted) {
  // Arenas covering only a prefix of a shard (what a ProfileIndex with
  // an unrouted tail saves) cannot route the shard's single segment:
  // it restores unrouted, and approximate queries scan it exactly.
  ProfileIndex Index(kernel().name());
  NamedProfiles P = makeProfiles(kernel(), 12, "s", 81);
  for (size_t I = 0; I < 10; ++I)
    Index.add(P.Names[I], P.Labels[I], P.Profiles[I]);
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 2;
  Index.buildRouting(Route, 1);
  for (size_t I = 10; I < P.Profiles.size(); ++I)
    Index.add(P.Names[I], P.Labels[I], P.Profiles[I]);
  const std::string Path = testing::TempDir() + "/kast_prefix_routed.kfi";
  ASSERT_TRUE(Index.save(Path).ok());
  Expected<ProfileStoreCache> Image = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  ASSERT_NE(Image->Routing, nullptr);
  EXPECT_EQ(Image->Routing->Covered, 10u);

  std::vector<ProfileStoreCache> Caches;
  Caches.push_back(Image.take());
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(std::move(Caches));
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  EXPECT_EQ(Restored->size(), P.Profiles.size());
  EXPECT_EQ(Restored->snapshot().routedShardCount(), 0u);
  NamedProfiles Q = makeProfiles(kernel(), 4, "q", 82);
  for (const KernelProfile &Query : Q.Profiles)
    EXPECT_EQ(Restored->queryApprox(Query, 5, true, 0, 1),
              Restored->query(Query, 5, true, 1));
}

TEST(IndexServiceTest, EmbeddedRoutingMismatchFailsRestore) {
  // Routing arenas paired with contents they were not fitted on
  // (here: a truncated copy of the shard) must fail loudly at restore.
  IndexService Service("k", {.Shards = 1});
  KernelProfile P;
  P.add(3, 1.0);
  P.finalize();
  for (size_t I = 0; I < 6; ++I)
    Service.add("n" + std::to_string(I), "l", P);
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 2;
  Service.rebuildRouting(Route, 1);
  std::vector<ProfileStoreCache> Exported = Service.toShardCaches();
  ASSERT_EQ(Exported.size(), 1u);
  ASSERT_NE(Exported[0].Routing, nullptr);

  // Drop one profile but keep the arenas.
  ProfileStoreCache Stale;
  Stale.KernelName = Exported[0].KernelName;
  Stale.Routing = Exported[0].Routing;
  for (size_t I = 0; I + 1 < Exported[0].Store.size(); ++I) {
    Stale.Store.appendFrom(Exported[0].Store, I);
    Stale.Names.push_back(Exported[0].Names[I]);
    Stale.Labels.push_back(Exported[0].Labels[I]);
  }
  Expected<IndexService> Bad = IndexService::fromShardCaches({Stale});
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.message().find("does not match"), std::string::npos)
      << Bad.message();
}

//===----------------------------------------------------------------------===//
// Concurrency stress: snapshot consistency under add/remove/query
//===----------------------------------------------------------------------===//

TEST(IndexServiceStressTest, SnapshotsStayConsistentUnderConcurrentWrites) {
  // Writers interleave adds and removes while readers continuously
  // snapshot and query. The contract under test: a snapshot answers
  // identically no matter when it is re-queried — mid-churn, from
  // another thread, or after the system quiesces. Runs under the
  // KAST_SANITIZE ASan/UBSan CI job like every other test, which is
  // where a torn publish or use-after-invalidate would surface.
  constexpr size_t Writers = 2;
  constexpr size_t Readers = 2;
  constexpr size_t PerWriter = 60;

  IndexServiceOptions Options;
  Options.Shards = 4;
  Options.SealThreshold = 8;
  IndexService Service(kernel().name(), Options);

  std::vector<NamedProfiles> WriterWork;
  for (size_t W = 0; W < Writers; ++W)
    WriterWork.push_back(
        makeProfiles(kernel(), PerWriter, "w" + std::to_string(W) + "-",
                     100 + W));
  NamedProfiles Q = makeProfiles(kernel(), 4, "q", 200);

  std::atomic<size_t> WritersDone{0};
  std::vector<std::thread> Threads;
  for (size_t W = 0; W < Writers; ++W) {
    Threads.emplace_back([&, W] {
      const NamedProfiles &Work = WriterWork[W];
      for (size_t I = 0; I < Work.Profiles.size(); ++I) {
        Service.add(Work.Names[I], Work.Labels[I], Work.Profiles[I]);
        // Every 7th entry is removed again a few adds later; every
        // 25th add triggers a compaction, so the readers race against
        // tombstoning and arena rebuilds too, not just appends.
        if (I % 7 == 6) {
          EXPECT_EQ(Service.remove(Work.Names[I - 3]), 1u);
        }
        if (I % 25 == 24)
          Service.compact(1);
      }
      WritersDone.fetch_add(1);
    });
  }

  struct Observation {
    IndexSnapshot Snap;
    size_t Size = 0;
    std::vector<std::vector<ServiceHit>> Results;
  };
  std::vector<std::vector<Observation>> Retained(Readers);
  for (size_t R = 0; R < Readers; ++R) {
    Threads.emplace_back([&, R] {
      size_t Iteration = 0;
      // At least one iteration even if the writers win the race to
      // finish, so every reader retains at least one observation.
      do {
        IndexSnapshot Snap = Service.snapshot();
        const size_t Size = Snap.size();
        std::vector<std::vector<ServiceHit>> First =
            Snap.queryBatch(borrowed(Q.Profiles), 5, true, 1);
        // Immediate re-query of the same snapshot: identical top-k,
        // identical size, whatever the writers are doing meanwhile.
        EXPECT_EQ(Snap.queryBatch(borrowed(Q.Profiles), 5, true, 1), First);
        EXPECT_EQ(Snap.size(), Size);
        for (const std::vector<ServiceHit> &Hits : First) {
          EXPECT_LE(Hits.size(), std::min<size_t>(5, Size));
          for (size_t H = 1; H < Hits.size(); ++H)
            EXPECT_GE(Hits[H - 1].Similarity, Hits[H].Similarity);
        }
        if (Iteration++ % 8 == 0)
          Retained[R].push_back({std::move(Snap), Size, std::move(First)});
      } while (WritersDone.load() < Writers);
    });
  }
  for (std::thread &T : Threads)
    T.join();

  // Quiesced re-query of every retained snapshot: the acceptance
  // criterion — what a reader observed mid-churn is exactly what the
  // snapshot still answers now that all writers are gone.
  size_t Checked = 0;
  for (const std::vector<Observation> &PerReader : Retained)
    for (const Observation &O : PerReader) {
      EXPECT_EQ(O.Snap.size(), O.Size);
      EXPECT_EQ(O.Snap.queryBatch(borrowed(Q.Profiles), 5, true, 1),
                O.Results);
      ++Checked;
    }
  EXPECT_GT(Checked, 0u);

  // Final ground truth: after the dust settles the service serves
  // exactly the survivors, bit-identically to a fresh ProfileIndex.
  ProfileIndex Truth(kernel().name());
  for (size_t W = 0; W < Writers; ++W) {
    const NamedProfiles &Work = WriterWork[W];
    for (size_t I = 0; I < Work.Profiles.size(); ++I) {
      const bool Removed = I % 7 == 3 && I + 3 < Work.Profiles.size() &&
                           (I + 3) % 7 == 6;
      if (!Removed)
        Truth.add(Work.Names[I], Work.Labels[I], Work.Profiles[I]);
    }
  }
  EXPECT_EQ(Service.size(), Truth.size());
  for (const KernelProfile &Query : Q.Profiles) {
    EXPECT_EQ(flatten(Service.query(Query, 5, true, 1)),
              flatten(Truth, Truth.query(Query, 5)));
  }
}

} // namespace
