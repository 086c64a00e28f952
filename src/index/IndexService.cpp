//===- index/IndexService.cpp - Snapshot-isolated profile serving ----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/IndexService.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <functional>

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

/// The shard's routing tier while it still applies — it covers the
/// first segment, the one it was fitted on — else null.
const detail::IndexRouting *routingOf(const detail::IndexShard &Shard) {
  return Shard.Routing && !Shard.Segments.empty() &&
                 Shard.Segments[0] == Shard.RoutedSegment
             ? Shard.Routing.get()
             : nullptr;
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
  // Each shard as the engine scores it. A routed query probes the
  // shards whose routing still applies; every other segment — later
  // seals, the staging tail, never-routed or compacted shards — is
  // scanned exactly. A shard with no live entry is skipped.
  std::vector<detail::ScoredShard> Scored(Shards.size());
  for (size_t S = 0; S < Shards.size(); ++S) {
    const detail::IndexShard &Shard = *Shards[S];
    if (Shard.LiveCount == 0)
      continue;
    for (size_t G = 0; G < Shard.Segments.size(); ++G)
      Scored[S].Segments.push_back(
          {&Shard.Segments[G]->Store, Shard.Tombstones[G].get()});
    Scored[S].Routing = Approx ? routingOf(Shard) : nullptr;
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
    Count += routingOf(*S) != nullptr;
  return Count;
}

std::string IndexSnapshot::majorityLabel(const std::vector<ServiceHit> &Hits) {
  return detail::majorityVote(
      Hits.size(), [&](size_t I) -> const std::string & { return Hits[I].Label; });
}

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
  // structures; readers decide applicability by segment identity.
  Published->Routing = W.Routing;
  Published->RoutedSegment = W.RoutedSegment;
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
  W.RoutedSegment.reset();
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
    if (!W.Sealed.empty()) {
      // Segment stores are shared-const, so the int8 sidecar is built
      // standalone and owned by the routing structure.
      W.Routing = detail::fitRouting(W.Sealed[0]->Store, RoutingOpts, Threads);
      W.RoutedSegment = W.Sealed[0];
    }
    publishLocked(Shard, Options.SealThreshold);
  }
}

//===----------------------------------------------------------------------===//
// Service: bulk import/export
//===----------------------------------------------------------------------===//

IndexService IndexService::fromIndex(const ProfileIndex &Index,
                                     IndexServiceOptions Opts) {
  IndexService Service(Index.kernelName(), Opts);
  // A fresh service has no concurrent readers or writers yet, so the
  // entries are staged shard by shard and published once per shard;
  // staging exceeding the seal threshold is moved (not copied) into a
  // sealed segment by publishLocked.
  for (size_t I = 0; I < Index.size(); ++I) {
    ShardWriter &W = Service.Shards[Service.shardOf(Index.name(I))]->Writer;
    W.Staging.Store.appendFrom(Index.store(), I);
    W.Staging.Names.push_back(Index.name(I));
    W.Staging.Labels.push_back(Index.label(I));
    W.StagingTombs.push_back(0);
    ++W.LiveCount;
    ++W.EntryCount;
  }
  for (const std::unique_ptr<ShardState> &Shard : Service.Shards) {
    std::lock_guard<std::mutex> Lock(Shard->WriterMutex);
    publishLocked(*Shard, Service.Options.SealThreshold);
  }
  return Service;
}

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
    // toShardCaches) restore the routed tier by view. They must cover
    // exactly this segment to route it; a covered prefix cannot, since
    // the routed segment is the whole first segment, so the shard then
    // serves unrouted.
    if (std::shared_ptr<const RoutingArenas> A = Caches[S].Routing) {
      if (A->Covered > Seg->size())
        return Result::error("shard cache " + std::to_string(S) +
                             "'s embedded routing does not match its "
                             "profile count");
      if (A->Covered == Seg->size()) {
        W.Routing = detail::routingFromArenas(A, Seg->Store);
        W.RoutedSegment = Seg;
      }
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
        Shard.Routing && Shard.Segments.size() == 1 &&
        Shard.Segments[0] == Shard.RoutedSegment && !Shard.Tombstones[0];
    if (ExactRoutedCopy) {
      Cache.Routing = detail::routingArenas(Shard.Routing);
      if (Shard.Routing->Quant)
        Cache.Store.adoptQuantized(Shard.Routing->Quant);
    }
  }
  return Caches;
}
