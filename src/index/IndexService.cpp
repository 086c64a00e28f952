//===- index/IndexService.cpp - Snapshot-isolated profile serving ----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/IndexService.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <unordered_map>

using namespace kast;

//===----------------------------------------------------------------------===//
// Snapshot scoring and k-way merge
//===----------------------------------------------------------------------===//

namespace {

using detail::ShardHit;

/// Visits (segment, offset) of every live entry across parallel
/// segment/tombstone lists — the one definition of "live" shared by
/// compaction and cache export, so a tombstone-representation change
/// cannot leave the two walks disagreeing.
template <typename Fn>
void forEachLiveEntry(
    const std::vector<std::shared_ptr<const detail::IndexSegment>> &Segments,
    const std::vector<std::shared_ptr<const std::vector<uint8_t>>> &Tombs,
    Fn Visit) {
  for (size_t S = 0; S < Segments.size(); ++S) {
    const detail::IndexSegment &Seg = *Segments[S];
    const std::vector<uint8_t> *T = Tombs[S].get();
    for (size_t I = 0; I < Seg.size(); ++I)
      if (!T || !(*T)[I])
        Visit(Seg, I);
  }
}

/// K-way merge of per-shard top-k lists into the global top-K. Lists
/// are short (at most K each), so a linear scan over the S heads per
/// emitted hit beats heap bookkeeping; ties break toward the lower
/// shard index, then the earlier position (strictly-greater test keeps
/// the incumbent).
std::vector<ServiceHit>
mergeTopK(const std::vector<std::shared_ptr<const detail::IndexShard>> &Shards,
          const std::vector<std::vector<ShardHit>> &PerShard, size_t K) {
  std::vector<size_t> Heads(PerShard.size(), 0);
  std::vector<ServiceHit> Out;
  while (Out.size() < K) {
    size_t Best = PerShard.size();
    for (size_t S = 0; S < PerShard.size(); ++S) {
      if (Heads[S] >= PerShard[S].size())
        continue;
      if (Best == PerShard.size() ||
          PerShard[S][Heads[S]].Sim > PerShard[Best][Heads[Best]].Sim)
        Best = S;
    }
    if (Best == PerShard.size())
      break;
    const ShardHit &H = PerShard[Best][Heads[Best]++];
    const detail::IndexSegment &Seg = *Shards[Best]->Segments[H.Seg];
    // Hit materialization is where a mapped segment's lazy name/label
    // columns are finally decoded — only the K winners pay it.
    Out.push_back({std::string(Seg.Names[H.Off]),
                   std::string(Seg.Labels[H.Off]), H.Sim});
  }
  return Out;
}

} // namespace

size_t IndexSnapshot::size() const {
  size_t Live = 0;
  for (const std::shared_ptr<const detail::IndexShard> &S : Shards)
    Live += S->LiveCount;
  return Live;
}

size_t IndexSnapshot::entryCount() const {
  size_t Entries = 0;
  for (const std::shared_ptr<const detail::IndexShard> &S : Shards)
    Entries += S->EntryCount;
  return Entries;
}

std::vector<ServiceHit> IndexSnapshot::query(const KernelProfile &Query,
                                             size_t K, bool Normalize,
                                             size_t Threads) const {
  return queryBatch({&Query}, K, Normalize, Threads)[0];
}

std::vector<ServiceHit> IndexSnapshot::queryApprox(const KernelProfile &Query,
                                                   size_t K, bool Normalize,
                                                   size_t NProbe,
                                                   size_t Threads) const {
  return queryBatch({&Query}, K, Normalize, Threads, /*Approx=*/true,
                    NProbe)[0];
}

std::vector<std::vector<ServiceHit>>
IndexSnapshot::queryBatch(const std::vector<const KernelProfile *> &Queries,
                          size_t K, bool Normalize, size_t Threads,
                          bool Approx, size_t NProbe) const {
  // Each shard as the engine scores it. A routed query probes each
  // routed shard's first segment; every other segment — later seals,
  // the staging tail, every segment of an unrouted shard — is scanned
  // exactly. A shard with no live entry is skipped.
  std::vector<detail::ScoredShard> Scored(Shards.size());
  for (size_t S = 0; S < Shards.size(); ++S) {
    const detail::IndexShard &Shard = *Shards[S];
    if (Shard.LiveCount == 0)
      continue;
    for (size_t G = 0; G < Shard.Segments.size(); ++G)
      Scored[S].Segments.push_back(
          {&Shard.Segments[G]->Store, Shard.Tombstones[G].get()});
    Scored[S].Routing = Approx ? Shard.Routing.get() : nullptr;
  }
  std::vector<std::vector<ServiceHit>> Results(Queries.size());
  detail::scoreBatch(
      Scored, Queries, K, Normalize, NProbe, Threads,
      [&](size_t I, const std::vector<std::vector<ShardHit>> &PerShard) {
        Results[I] = mergeTopK(Shards, PerShard, K);
      });
  return Results;
}

size_t IndexSnapshot::routedShardCount() const {
  size_t Count = 0;
  for (const std::shared_ptr<const detail::IndexShard> &S : Shards)
    Count += S->Routing != nullptr;
  return Count;
}

std::string IndexSnapshot::majorityLabel(const std::vector<ServiceHit> &Hits) {
  // Counts are kept in first-seen order, so "earliest slot among the
  // maxima" is exactly "nearest first occurrence". The string_view
  // keys borrow from the hits, which outlive the vote.
  std::unordered_map<std::string_view, size_t> Slots;
  std::vector<std::pair<std::string_view, size_t>> Counts;
  for (const ServiceHit &H : Hits) {
    auto [It, Inserted] = Slots.try_emplace(H.Label, Counts.size());
    if (Inserted)
      Counts.push_back({H.Label, 0});
    ++Counts[It->second].second;
  }
  if (Counts.empty())
    return {};
  size_t Best = 0;
  for (size_t I = 1; I < Counts.size(); ++I)
    if (Counts[I].second > Counts[Best].second)
      Best = I;
  return std::string(Counts[Best].first);
}

//===----------------------------------------------------------------------===//
// Routing tier: fit, and conversion to and from flat arenas
//===----------------------------------------------------------------------===//

namespace {

using detail::IndexRouting;

/// The int8 shortlist store \p Options ask for over \p Store: the
/// store's own sidecar when it carries one, else a standalone build;
/// null when no budget prunes (every candidate then gets the exact dot).
std::shared_ptr<const QuantizedStore>
shortlistStore(const RoutingOptions &Options, const ProfileStore &Store) {
  if (Options.RerankBudget == 0 || !Options.QuantizedShortlist)
    return nullptr;
  if (std::shared_ptr<const QuantizedStore> Own = Store.quantizedShared())
    return Own;
  return std::make_shared<const QuantizedStore>(QuantizedStore::build(Store));
}

/// Fits the routing tier (index/ClusterRouter + index/InvertedIndex,
/// plus the int8 shortlist store when \p Options ask for one) over all
/// of \p Store. Deterministic for fixed options regardless of
/// \p Threads.
std::shared_ptr<const IndexRouting>
fitRouting(const ProfileStore &Store, const RoutingOptions &Options,
           size_t Threads) {
  auto R = std::make_shared<IndexRouting>();
  R->Options = Options;
  R->Router = ClusterRouter::build(Store, Options.Cluster, Threads);
  R->Inverted =
      InvertedIndex::build(Store, R->Router.assignments(),
                           R->Router.numCentroids(), Options.MaxDocFrequency);
  R->Quant = shortlistStore(Options, Store);
  return R;
}

/// The routing tier as the flat arenas core/FlatImage writes as its
/// version-4 sections. The arenas view \p R's structures and pin \p R
/// through their Backing.
std::shared_ptr<const RoutingArenas>
routingArenas(const std::shared_ptr<const IndexRouting> &R) {
  auto A = std::make_shared<RoutingArenas>();
  A->MaxDocFrequency = R->Options.MaxDocFrequency;
  A->RerankBudget = R->Options.RerankBudget;
  A->DefaultNProbe = R->Options.DefaultNProbe;
  A->QuantizedShortlist = R->Options.QuantizedShortlist;
  A->ClusterNumCentroids = R->Options.Cluster.NumCentroids;
  A->ClusterMaxIterations = R->Options.Cluster.MaxIterations;
  A->ClusterTrainingSample = R->Options.Cluster.TrainingSample;
  A->ClusterSeed = R->Options.Cluster.Seed;
  A->Covered = R->covered();
  A->PrunedFeatures = R->Inverted.prunedFeatureCount();
  A->Assignments = R->Router.assignments();
  // A cheap copy: mapped centroids share their views, owned ones are
  // small.
  A->Centroids = R->Router.centroids();
  A->FeatureHashes = R->Inverted.featureHashes();
  A->ClusterBegin = R->Inverted.clusterBegin();
  A->PostingBegin = R->Inverted.postingBegin();
  A->PostingIds = R->Inverted.postingIds();
  A->PostingValues = R->Inverted.postingValues();
  A->Backing = R;
  return A;
}

/// The inverse of routingArenas: a routing tier over all of \p Store
/// (which \p A must cover) that views \p A's arenas in place — no
/// k-means fit, no posting rebuild. The int8 shortlist store is
/// \p Store's sidecar when it carries one and the options ask for it;
/// otherwise it is built.
std::shared_ptr<const IndexRouting>
routingFromArenas(const std::shared_ptr<const RoutingArenas> &A,
                  const ProfileStore &Store) {
  assert(A->Covered == Store.size() && "routing must cover the segment");
  auto R = std::make_shared<IndexRouting>();
  R->Options.MaxDocFrequency = A->MaxDocFrequency;
  R->Options.RerankBudget = A->RerankBudget;
  R->Options.DefaultNProbe = A->DefaultNProbe;
  R->Options.QuantizedShortlist = A->QuantizedShortlist;
  R->Options.Cluster.NumCentroids = A->ClusterNumCentroids;
  R->Options.Cluster.MaxIterations = A->ClusterMaxIterations;
  R->Options.Cluster.TrainingSample = A->ClusterTrainingSample;
  R->Options.Cluster.Seed = A->ClusterSeed;
  // Holding the arenas struct keeps both its views and their backing
  // (a mapped image or a live routing tier) alive.
  std::shared_ptr<const void> Keep = A;
  R->Router = ClusterRouter::fromArenas(A->Centroids, A->Assignments, Keep);
  R->Inverted = InvertedIndex::fromArenas(
      A->Covered, A->PrunedFeatures, A->FeatureHashes, A->ClusterBegin,
      A->PostingBegin, A->PostingIds, A->PostingValues, Keep);
  R->Quant = shortlistStore(R->Options, Store);
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Service: construction and publication
//===----------------------------------------------------------------------===//

IndexService::IndexService(std::string KernelName, IndexServiceOptions Opts)
    : KernelName(std::move(KernelName)), Options(Opts) {
  Options.Shards = std::max<size_t>(1, Options.Shards);
  Options.SealThreshold = std::max<size_t>(1, Options.SealThreshold);
  Shards.reserve(Options.Shards);
  for (size_t I = 0; I < Options.Shards; ++I) {
    Shards.push_back(std::make_unique<ShardState>());
    Shards.back()->Published.store(std::make_shared<const detail::IndexShard>());
  }
}

size_t IndexService::shardOf(const std::string &Name) const {
  return std::hash<std::string>{}(Name) % Shards.size();
}

size_t IndexService::shardOf(std::string_view Name) const {
  return std::hash<std::string_view>{}(Name) % Shards.size();
}

void IndexService::publishLocked(ShardState &Shard, size_t SealThreshold) {
  ShardWriter &W = Shard.Writer;
  const auto anyTomb = [](const std::vector<uint8_t> &Tombs) {
    return std::find(Tombs.begin(), Tombs.end(), uint8_t(1)) != Tombs.end();
  };
  if (W.Staging.size() >= SealThreshold) {
    // Seal by *moving* the staging arena — the whole point of the
    // cheap ProfileStore move: no entry is copied again after this.
    W.SealedTombs.push_back(
        anyTomb(W.StagingTombs)
            ? std::make_shared<const std::vector<uint8_t>>(
                  std::move(W.StagingTombs))
            : nullptr);
    W.Sealed.push_back(
        std::make_shared<const detail::IndexSegment>(std::move(W.Staging)));
    W.Staging = {};
    W.StagingTombs.clear();
  }
  auto Published = std::make_shared<detail::IndexShard>();
  Published->Segments = W.Sealed;
  Published->Tombstones = W.SealedTombs;
  if (W.Staging.size() > 0) {
    // The mutable tail is copied into the published shard; the copy is
    // bounded by the seal threshold, so per-add publish cost stays
    // O(threshold) regardless of shard size.
    Published->Segments.push_back(
        std::make_shared<const detail::IndexSegment>(W.Staging));
    Published->Tombstones.push_back(
        anyTomb(W.StagingTombs)
            ? std::make_shared<const std::vector<uint8_t>>(W.StagingTombs)
            : nullptr);
  }
  Published->EntryCount = W.EntryCount;
  Published->LiveCount = W.LiveCount;
  // Routing rides copy-on-write: publishes share the fitted
  // structures.
  Published->Routing = W.Routing;
  Shard.Published.store(
      std::shared_ptr<const detail::IndexShard>(std::move(Published)));
}

IndexSnapshot IndexService::snapshot() const {
  IndexSnapshot Snap;
  Snap.Shards.reserve(Shards.size());
  for (const std::unique_ptr<ShardState> &S : Shards)
    Snap.Shards.push_back(S->Published.load());
  return Snap;
}

//===----------------------------------------------------------------------===//
// Service: writers
//===----------------------------------------------------------------------===//

void IndexService::add(std::string Name, std::string Label,
                       const KernelProfile &Profile) {
  ShardState &Shard = *Shards[shardOf(Name)];
  std::lock_guard<std::mutex> Lock(Shard.WriterMutex);
  ShardWriter &W = Shard.Writer;
  W.Staging.Store.append(Profile);
  W.Staging.Names.push_back(std::move(Name));
  W.Staging.Labels.push_back(std::move(Label));
  W.StagingTombs.push_back(0);
  ++W.LiveCount;
  ++W.EntryCount;
  publishLocked(Shard, Options.SealThreshold);
}

size_t IndexService::removeFromShard(ShardState &Shard,
                                     const std::string &Name,
                                     size_t SealThreshold) {
  std::lock_guard<std::mutex> Lock(Shard.WriterMutex);
  ShardWriter &W = Shard.Writer;
  size_t Removed = 0;
  for (size_t S = 0; S < W.Sealed.size(); ++S) {
    const detail::IndexSegment &Seg = *W.Sealed[S];
    // Sealed segments are shared with outstanding snapshots, so the
    // tombstone bitmap is copied on the first hit (copy-on-write) and
    // mutated privately; the segment arena itself is never touched.
    std::shared_ptr<std::vector<uint8_t>> Copy;
    for (size_t I = 0; I < Seg.size(); ++I) {
      if (Seg.Names[I] != Name)
        continue;
      const std::vector<uint8_t> *Current =
          Copy ? Copy.get() : W.SealedTombs[S].get();
      if (Current && (*Current)[I])
        continue;
      if (!Copy)
        Copy = W.SealedTombs[S]
                   ? std::make_shared<std::vector<uint8_t>>(*W.SealedTombs[S])
                   : std::make_shared<std::vector<uint8_t>>(Seg.size(), 0);
      (*Copy)[I] = 1;
      ++Removed;
    }
    if (Copy)
      W.SealedTombs[S] = std::move(Copy);
  }
  for (size_t I = 0; I < W.Staging.size(); ++I) {
    if (W.Staging.Names[I] == Name && !W.StagingTombs[I]) {
      W.StagingTombs[I] = 1;
      ++Removed;
    }
  }
  if (Removed) {
    W.LiveCount -= Removed;
    publishLocked(Shard, SealThreshold);
  }
  return Removed;
}

size_t IndexService::remove(const std::string &Name) {
  // add() routes by name hash, so under strict routing the home shard
  // is the only one that can hold the name. A foreign cache layout
  // (detected at restore) voids that invariant, and every shard must
  // be swept — accumulating, since the same name may sit in several.
  if (StrictRouting)
    return removeFromShard(*Shards[shardOf(Name)], Name,
                           Options.SealThreshold);
  size_t Removed = 0;
  for (const std::unique_ptr<ShardState> &Shard : Shards)
    Removed += removeFromShard(*Shard, Name, Options.SealThreshold);
  return Removed;
}

void IndexService::compactShardLocked(ShardWriter &W) {
  const auto forEachLive = [&](auto Fn) {
    forEachLiveEntry(W.Sealed, W.SealedTombs, Fn);
    for (size_t I = 0; I < W.Staging.size(); ++I)
      if (!W.StagingTombs[I])
        Fn(W.Staging, I);
  };
  size_t LiveEntries = 0;
  forEachLive([&](const detail::IndexSegment &Seg, size_t I) {
    LiveEntries += Seg.Store.view(I).Size;
  });
  detail::IndexSegment Merged;
  Merged.Store.reserve(W.LiveCount, LiveEntries);
  Merged.Names.reserve(W.LiveCount);
  Merged.Labels.reserve(W.LiveCount);
  forEachLive([&](const detail::IndexSegment &Seg, size_t I) {
    Merged.Store.appendFrom(Seg.Store, I);
    Merged.Names.push_back(Seg.Names[I]);
    Merged.Labels.push_back(Seg.Labels[I]);
  });
  W.Sealed.clear();
  W.SealedTombs.clear();
  W.EntryCount = W.LiveCount = Merged.size();
  if (Merged.size() > 0) {
    W.Sealed.push_back(
        std::make_shared<const detail::IndexSegment>(std::move(Merged)));
    W.SealedTombs.push_back(nullptr);
  }
  W.Staging = {};
  W.StagingTombs.clear();
  // The fit covered the pre-compaction arena; drop it rather than
  // serve a router whose ids no longer mean anything.
  W.Routing.reset();
}

void IndexService::compact(size_t Threads) {
  parallelFor(
      Shards.size(),
      [&](size_t ShardIdx) {
        ShardState &Shard = *Shards[ShardIdx];
        std::lock_guard<std::mutex> Lock(Shard.WriterMutex);
        compactShardLocked(Shard.Writer);
        publishLocked(Shard, Options.SealThreshold);
      },
      Threads);
}

void IndexService::rebuildRouting(const RoutingOptions &RoutingOpts,
                                  size_t Threads) {
  // Shards are processed sequentially so the k-means fit inside each
  // can use the thread budget without nesting parallel loops.
  for (const std::unique_ptr<ShardState> &ShardPtr : Shards) {
    ShardState &Shard = *ShardPtr;
    std::lock_guard<std::mutex> Lock(Shard.WriterMutex);
    ShardWriter &W = Shard.Writer;
    compactShardLocked(W);
    // Segment stores are shared-const, so the int8 sidecar is built
    // standalone and owned by the routing structure.
    if (!W.Sealed.empty())
      W.Routing = fitRouting(W.Sealed[0]->Store, RoutingOpts, Threads);
    publishLocked(Shard, Options.SealThreshold);
  }
}

//===----------------------------------------------------------------------===//
// Service: bulk import/export
//===----------------------------------------------------------------------===//

Expected<IndexService>
IndexService::fromShardCaches(std::vector<ProfileStoreCache> Caches,
                              IndexServiceOptions Opts) {
  using Result = Expected<IndexService>;
  if (Caches.empty())
    return Result::error("no shard caches to restore a service from");
  for (size_t S = 0; S < Caches.size(); ++S) {
    if (Caches[S].KernelName != Caches[0].KernelName)
      return Result::error("shard cache " + std::to_string(S) +
                           " was built by kernel '" + Caches[S].KernelName +
                           "', shard 0 by '" + Caches[0].KernelName + "'");
    if (Caches[S].Names.size() != Caches[S].Store.size() ||
        Caches[S].Labels.size() != Caches[S].Store.size())
      return Result::error("shard cache " + std::to_string(S) +
                           " has inconsistent name/label/profile counts");
  }
  Opts.Shards = Caches.size();
  IndexService Service(Caches[0].KernelName, Opts);
  for (size_t S = 0; S < Caches.size(); ++S) {
    ShardWriter &W = Service.Shards[S]->Writer;
    auto Seg = std::make_shared<detail::IndexSegment>();
    Seg->Store = std::move(Caches[S].Store);
    Seg->Names = std::move(Caches[S].Names);
    Seg->Labels = std::move(Caches[S].Labels);
    // Verify the add() routing invariant entry by entry: caches from
    // toShardCaches always satisfy it, but a hand-assembled layout may
    // hold off-route names, and remove() must know to sweep for them.
    // The string_view hash agrees with the string hash, so a mapped
    // name column is checked without materializing any string.
    for (size_t I = 0; I < Seg->Names.size(); ++I)
      if (Service.shardOf(Seg->Names[I]) != S)
        Service.StrictRouting = false;
    W.EntryCount = W.LiveCount = Seg->size();
    W.Sealed.push_back(Seg);
    W.SealedTombs.push_back(nullptr);
    // Routing arenas (an image's v4 sections, or a live export from
    // toShardCaches) restore the routed tier by view. Routing covers
    // one whole segment, so they must cover exactly this one.
    if (std::shared_ptr<const RoutingArenas> A = Caches[S].Routing) {
      if (A->Covered != Seg->size())
        return Result::error("shard cache " + std::to_string(S) +
                             "'s embedded routing does not match its "
                             "profile count");
      W.Routing = routingFromArenas(A, Seg->Store);
    }
    std::lock_guard<std::mutex> Lock(Service.Shards[S]->WriterMutex);
    publishLocked(*Service.Shards[S], Service.Options.SealThreshold);
  }
  return Service;
}

std::vector<ProfileStoreCache> IndexService::toShardCaches() const {
  // Export from the published snapshot: consistent per shard, and no
  // writer lock is held while the arenas are copied out.
  IndexSnapshot Snap = snapshot();
  std::vector<ProfileStoreCache> Caches(Snap.Shards.size());
  for (size_t S = 0; S < Snap.Shards.size(); ++S) {
    const detail::IndexShard &Shard = *Snap.Shards[S];
    ProfileStoreCache &Cache = Caches[S];
    Cache.KernelName = KernelName;
    size_t LiveEntries = 0;
    forEachLiveEntry(Shard.Segments, Shard.Tombstones,
                     [&](const detail::IndexSegment &Seg, size_t I) {
                       LiveEntries += Seg.Store.view(I).Size;
                     });
    Cache.Store.reserve(Shard.LiveCount, LiveEntries);
    Cache.Names.reserve(Shard.LiveCount);
    Cache.Labels.reserve(Shard.LiveCount);
    forEachLiveEntry(Shard.Segments, Shard.Tombstones,
                     [&](const detail::IndexSegment &Seg, size_t I) {
                       Cache.Store.appendFrom(Seg.Store, I);
                       Cache.Names.push_back(Seg.Names[I]);
                       Cache.Labels.push_back(Seg.Labels[I]);
                     });
    // A shard whose whole published state is its one routed segment
    // (no staging tail, no tombstones) exports bit-identically to that
    // segment, so the fitted router and the quantized shortlist store
    // stay valid for the exported arena: export the routing tier as
    // flat arena views (what core/FlatImage serializes as the v4 CSR
    // sections; they pin the live routing, so snapshots and
    // compactions cannot invalidate them) and hang the quantized
    // sidecar on the exported store, so fromShardCaches restores the
    // routed, quantized tier with no refit, no posting rebuild, and no
    // requantize. Any other shape
    // leaves Routing null — the router's assignments would not line
    // up with the exported profile numbering.
    const bool ExactRoutedCopy =
        Shard.Routing && Shard.Segments.size() == 1 && !Shard.Tombstones[0];
    if (ExactRoutedCopy) {
      Cache.Routing = routingArenas(Shard.Routing);
      if (Shard.Routing->Quant)
        Cache.Store.adoptQuantized(Shard.Routing->Quant);
    }
  }
  return Caches;
}
