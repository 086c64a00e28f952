//===- index/IndexService.h - Snapshot-isolated profile serving -*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// KAST's one index type: top-k retrieval over kernel profiles, safe
/// to query while it grows. A core/ProfileStore arena is build-mostly
/// — an append may reallocate it and invalidates every outstanding
/// ProfileView — so queries and growth over one arena cannot overlap.
/// An IndexService makes that overlap safe with copy-on-write
/// snapshots over sharded, immutable state:
///
///   - Entries are routed to one of S shards by the hash of their
///     name. Each shard is published as an immutable IndexShard: a
///     list of sealed, shared segments (ProfileStore arena + names +
///     labels), per-segment tombstone bitmaps, and live/entry counts.
///
///   - Readers call snapshot(), which atomically loads each shard's
///     current shared_ptr<const IndexShard>. No lock is taken on the
///     query path, and the snapshot stays valid — and keeps answering
///     identically — no matter how many adds, removes, or compactions
///     land after it was taken; the shared_ptrs pin the old segments.
///
///   - Writers take a per-shard mutex, append into that shard's
///     *staging* segment (a mutable ProfileStore tail), and publish a
///     new IndexShard atomically. Publishing copies only the staging
///     tail (bounded by the seal threshold) and the segment pointer
///     list, never the sealed arenas. When staging reaches the seal
///     threshold it is moved — not copied — into a sealed segment.
///
///   - remove(name) tombstones entries instead of erasing them, so
///     published segments stay immutable; compact() rebuilds each
///     shard into one fresh arena without tombstones (old snapshots
///     keep the pre-compaction segments alive).
///
/// Each shard is ranked by the one retrieval engine
/// (index/ScoringEngine) and the per-shard top-k lists are k-way
/// merged; ordering is deterministic for a given snapshot (similarity
/// desc, then shard, then insertion position). A one-shard service
/// ({.Shards = 1}) therefore breaks ties by insertion order, which is
/// what callers that care about position order build on.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_INDEX_INDEXSERVICE_H
#define KAST_INDEX_INDEXSERVICE_H

#include "core/FlatImage.h"
#include "core/ProfileStore.h"
#include "core/StringColumn.h"
#include "index/ScoringEngine.h"
#include "util/Error.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace kast {

namespace detail {

/// One immutable run of entries published together: an arena plus the
/// parallel name/label columns. Shared (never mutated) once sealed.
/// The columns are core/StringColumn, so a segment restored from a
/// mapped flat image keeps its names as lazy views into the mapping —
/// no string is materialized until a query hit or a remove() actually
/// reads one.
struct IndexSegment {
  ProfileStore Store;
  StringColumn Names;
  StringColumn Labels;

  size_t size() const { return Store.size(); }
};

/// An immutable published view of one shard. Tombstones[I] parallels
/// Segments[I]; a null pointer means "no entry of this segment is
/// removed" (the common case — removal allocates the bitmap lazily).
struct IndexShard {
  std::vector<std::shared_ptr<const IndexSegment>> Segments;
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> Tombstones;
  size_t EntryCount = 0; ///< Entries across segments, tombstoned or not.
  size_t LiveCount = 0;  ///< Entries not tombstoned.

  /// The two-tier retrieval structures fitted over the shard's first
  /// segment, whole (index/ScoringEngine), carried copy-on-write:
  /// publishes share the pointer, so a snapshot keeps the routing it
  /// was taken with. Null when the shard is unrouted; compaction drops
  /// it, since it replaces the segment the fit covered. Segments after
  /// the first — later seals and the staging tail — are always scanned
  /// exactly.
  std::shared_ptr<const IndexRouting> Routing;
};

} // namespace detail

/// One retrieval hit from a service query. Name and label are copied
/// out of the snapshot, so hits stay valid after every snapshot and
/// the service itself are gone.
struct ServiceHit {
  std::string Name;
  std::string Label;
  double Similarity = 0.0;

  bool operator==(const ServiceHit &Rhs) const = default;
};

/// Shape knobs for an IndexService.
struct IndexServiceOptions {
  /// Number of shards. More shards mean finer write interleaving and
  /// wider query fan-out; entries are routed by name hash.
  size_t Shards = 8;
  /// A shard's staging tail is sealed into an immutable segment once
  /// it holds this many profiles; publishing an add copies at most
  /// this much staging state.
  size_t SealThreshold = 64;
};

/// An immutable, value-semantic view of the whole service at one
/// publish point. Querying a snapshot never takes a lock and always
/// returns the same answer for the same arguments, regardless of
/// concurrent writes to the owning service.
class IndexSnapshot {
public:
  /// Live (non-tombstoned) entries across all shards.
  size_t size() const;
  bool empty() const { return size() == 0; }

  /// All entries across all shards, tombstoned ones included — the
  /// scan cost a query actually pays. entryCount() - size() is the
  /// tombstone debt a compact() would reclaim.
  size_t entryCount() const;

  size_t shardCount() const { return Shards.size(); }

  /// The min(K, size()) live entries most similar to \p Query, most
  /// similar first. \p Normalize selects cosine similarity (vanishing
  /// norms score 0) over the raw dot. Ties break toward the lower
  /// shard, then the earlier insertion position — deterministic for a
  /// fixed snapshot. Shards are scored through parallelFor on
  /// \p Threads (0 = hardware concurrency) and their top-k lists
  /// k-way merged.
  std::vector<ServiceHit> query(const KernelProfile &Query, size_t K,
                                bool Normalize = true,
                                size_t Threads = 0) const;

  /// query() — or, with \p Approx, queryApprox() at \p NProbe — for a
  /// batch of borrowed profiles (null entries are not allowed): the
  /// admission seam the serving runtime executes through, so a batch
  /// gathered from many producers is scored without copying any
  /// profile. Queries are strided across worker chunks that each reuse
  /// one scoring scratch (and one candidate scratch per shard), and
  /// Results[I] is bit-identical to the single-query call on
  /// *Queries[I] on this snapshot.
  std::vector<std::vector<ServiceHit>>
  queryBatch(const std::vector<const KernelProfile *> &Queries, size_t K,
             bool Normalize = true, size_t Threads = 0, bool Approx = false,
             size_t NProbe = 0) const;

  /// query() through each routed shard's candidate-generation tier
  /// (see IndexService::rebuildRouting): the shard's first segment is
  /// probed via posting lists over the \p NProbe nearest centroids (0
  /// defers to the shard's RoutingOptions::DefaultNProbe, itself 0 =
  /// all), candidates are exact re-ranked, and every other segment —
  /// later seals, the staging tail, and every segment of unrouted
  /// shards — is scanned exactly. Run exhaustively (all centroids, no
  /// df-pruning, no re-rank budget) the result is bit-identical to
  /// query(), tie-break order included.
  std::vector<ServiceHit> queryApprox(const KernelProfile &Query, size_t K,
                                      bool Normalize = true,
                                      size_t NProbe = 0,
                                      size_t Threads = 0) const;

  /// Shards whose published state carries routing.
  size_t routedShardCount() const;

  /// Majority label among \p Hits (most similar first): the label with
  /// the highest count wins, and a count tie goes to the label whose
  /// first occurrence is nearest. One pass; empty for an empty hit
  /// list.
  static std::string majorityLabel(const std::vector<ServiceHit> &Hits);

private:
  friend class IndexService;

  std::vector<std::shared_ptr<const detail::IndexShard>> Shards;
};

/// Sharded, thread-safe serving layer over mutable profile retrieval.
///
/// Any number of reader threads may call snapshot()/query()/
/// queryApprox() concurrently with any number of writer threads calling
/// add()/remove()/compact(); writers serialize per shard, readers
/// never block. See the file comment for the publication scheme.
class IndexService {
public:
  /// An empty service tagged with the producing kernel's name.
  explicit IndexService(std::string KernelName,
                        IndexServiceOptions Options = {});

  /// Restarts a service from sharded images (core/FlatImage's
  /// loadShardedProfileImages): each cache becomes one shard, adopted
  /// wholesale by arena move. The shard count is taken from the cache
  /// list (Options.Shards is ignored); all caches must agree on the
  /// kernel name. Caches written by toShardCaches() restore the exact
  /// name-hash routing they were saved with; a layout with off-route
  /// entries still restores, but remove() downgrades to sweeping
  /// every shard (see remove()). A cache's routing arenas restore by
  /// view — no k-means fit, no posting rebuild — and must cover the
  /// whole shard; arenas covering any other count fail the restore.
  static Expected<IndexService>
  fromShardCaches(std::vector<ProfileStoreCache> Caches,
                  IndexServiceOptions Options = {});

  IndexService(IndexService &&) = default;
  IndexService &operator=(IndexService &&) = default;

  const std::string &kernelName() const { return KernelName; }
  size_t shardCount() const { return Shards.size(); }

  /// Live entries across the currently published shards.
  size_t size() const { return snapshot().size(); }
  bool empty() const { return size() == 0; }

  /// snapshot().entryCount(): live + tombstoned, i.e. scan cost.
  size_t entryCount() const { return snapshot().entryCount(); }

  /// Appends one profile and publishes it immediately: every snapshot
  /// taken after add() returns observes the new entry.
  void add(std::string Name, std::string Label,
           const KernelProfile &Profile);

  /// Tombstones every live entry named \p Name and publishes.
  /// \returns the number of entries removed (0 if the name is
  /// absent). When every entry is on its name-hash route — always
  /// true for services built through add(), and verified at
  /// restore for fromShardCaches — only the home shard is scanned;
  /// a foreign cache layout downgrades remove() to a sweep of every
  /// shard so off-route entries are still found.
  size_t remove(const std::string &Name);

  /// Rebuilds every shard's arena: live entries are copied into one
  /// fresh segment per shard, tombstones and staging are dropped, and
  /// the result is published. Old snapshots keep the pre-compaction
  /// segments alive and keep answering identically. Shards compact in
  /// parallel (\p Threads as in parallelFor). Routing is dropped (it
  /// was fitted on the replaced arenas); rebuildRouting() re-fits it.
  void compact(size_t Threads = 0);

  /// Compacts each shard and fits the two-tier retrieval structures
  /// (index/ClusterRouter + index/InvertedIndex) over its fresh
  /// arena, then publishes. Entries added afterwards land in the
  /// unrouted tail and are scanned exactly until the next rebuild;
  /// remove() keeps working through tombstones without disturbing the
  /// routing. Outstanding snapshots are untouched (copy-on-write).
  void rebuildRouting(const RoutingOptions &RoutingOpts = {},
                      size_t Threads = 0);

  /// True if any published shard currently carries routing.
  bool routed() const { return snapshot().routedShardCount() > 0; }

  /// The current published state; never blocks on writers.
  IndexSnapshot snapshot() const;

  /// snapshot().query(...) — for callers that don't reuse a snapshot.
  std::vector<ServiceHit> query(const KernelProfile &Query, size_t K,
                                bool Normalize = true,
                                size_t Threads = 0) const {
    return snapshot().query(Query, K, Normalize, Threads);
  }

  /// snapshot().queryApprox(...) — the candidate-generation tier.
  std::vector<ServiceHit> queryApprox(const KernelProfile &Query, size_t K,
                                      bool Normalize = true,
                                      size_t NProbe = 0,
                                      size_t Threads = 0) const {
    return snapshot().queryApprox(Query, K, Normalize, NProbe, Threads);
  }

  /// Exports the published state as one compacted ProfileStoreCache
  /// per shard (tombstoned entries dropped), ready for
  /// writeShardedProfileImages. A shard whose whole published state is
  /// its routed segment exports its routing arenas and int8 sidecar
  /// too.
  std::vector<ProfileStoreCache> toShardCaches() const;

private:
  /// Writer-side state of one shard, guarded by its mutex: the sealed
  /// segment list the next publish will reference, the mutable staging
  /// tail, and the authoritative tombstone bitmaps.
  struct ShardWriter {
    std::vector<std::shared_ptr<const detail::IndexSegment>> Sealed;
    std::vector<std::shared_ptr<const std::vector<uint8_t>>> SealedTombs;
    detail::IndexSegment Staging;
    std::vector<uint8_t> StagingTombs;
    size_t LiveCount = 0;
    size_t EntryCount = 0;
    /// Routing fitted over Sealed[0], whole; copied into every
    /// publish. See detail::IndexShard.
    std::shared_ptr<const detail::IndexRouting> Routing;
  };

  /// One shard: atomically published snapshot + mutex-guarded writer
  /// state. Held by unique_ptr so the service stays movable.
  struct ShardState {
    std::atomic<std::shared_ptr<const detail::IndexShard>> Published;
    std::mutex WriterMutex;
    ShardWriter Writer;
  };

  /// Name-hash shard routing. The string_view overload exists so
  /// mapped (lazily decoded) name columns can be routed without
  /// materializing strings; std::hash<std::string_view> is guaranteed
  /// to agree with std::hash<std::string> on equal character
  /// sequences, so both overloads route identically.
  size_t shardOf(const std::string &Name) const;
  size_t shardOf(std::string_view Name) const;
  /// Seals staging if it reached the threshold, then builds and
  /// publishes a new IndexShard from the writer state. Caller holds
  /// the shard's WriterMutex.
  static void publishLocked(ShardState &Shard, size_t SealThreshold);
  /// Merges a shard's live entries into one fresh sealed segment and
  /// drops tombstones, staging, and (stale by construction) routing.
  /// Caller holds the shard's WriterMutex and publishes afterwards.
  static void compactShardLocked(ShardWriter &W);
  /// Tombstones live entries named \p Name in one shard; returns the
  /// count. Caller holds nothing; takes the writer mutex itself.
  static size_t removeFromShard(ShardState &Shard, const std::string &Name,
                                size_t SealThreshold);

  std::string KernelName;
  IndexServiceOptions Options;
  /// True while every entry lives on its name-hash shard (the add()
  /// invariant). fromShardCaches clears it if a restored cache holds
  /// off-route entries, which downgrades remove() to a full sweep.
  bool StrictRouting = true;
  std::vector<std::unique_ptr<ShardState>> Shards;
};

} // namespace kast

#endif // KAST_INDEX_INDEXSERVICE_H
