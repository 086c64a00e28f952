//===- index/ScoringEngine.h - The one top-k retrieval engine ---*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single scoring engine behind every retrieval entry point —
/// query, queryApprox and queryBatch on IndexSnapshot, and query and
/// queryApprox on IndexService. A shard is an ordered list of segments
/// (an arena plus a tombstone bitmap) and, for a routed query, the
/// routing tier over the whole of its first segment. Hits rank by
/// similarity descending, then by position ascending, where a position
/// counts every entry across the shard's segments, removed or not:
///
///   - the routed segment contributes only the live candidates its
///     probed posting lists find. Beyond RerankBudget they are cut to a
///     shortlist by the int8 dot (or the accumulated partial score),
///     and the survivors are re-ranked with the exact dot;
///   - every entry of the later segments is scored exactly;
///   - while fewer than K hits score above zero, live non-candidates of
///     the routed segment pad the list at exactly +0.0 in position
///     order — what the exact scan computes for a profile sharing no
///     feature with the query.
///
/// Run exhaustively (all centroids, no df-pruning, no re-rank budget)
/// a routed ranking is therefore bit-identical to the exact one, tie
/// order included. Selection is bounded: a shard keeps at most K hits
/// and the shortlist at most RerankBudget, never one per live entry.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_INDEX_SCORINGENGINE_H
#define KAST_INDEX_SCORINGENGINE_H

#include "core/KernelProfile.h"
#include "core/ProfileStore.h"
#include "index/ClusterRouter.h"
#include "index/InvertedIndex.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace kast {
namespace detail {

/// The immutable routing tier over one whole arena (a shard's first
/// segment): the fitted coarse router, the posting lists rebuilt from
/// its assignments, and the options both were built with. Shared by
/// pointer so service snapshots alias one fitted structure; entries
/// added after the fit land in later segments and are always scanned
/// exactly.
struct IndexRouting {
  ClusterRouter Router;
  InvertedIndex Inverted;
  RoutingOptions Options;
  /// The int8 scan tier over the routed arena, built when the options
  /// ask for a quantized shortlist (RerankBudget > 0 &&
  /// QuantizedShortlist); null otherwise.
  std::shared_ptr<const QuantizedStore> Quant;

  size_t covered() const { return Router.numProfiles(); }
};

/// One segment as the engine scores it.
struct ScoredSegment {
  const ProfileStore *Store = nullptr;
  /// Entry I is removed iff (*Tombstones)[I]; null when none is.
  const std::vector<uint8_t> *Tombstones = nullptr;
};

/// One shard as the engine scores it: its segments in position order,
/// and the routing tier over all of Segments[0] (Routing->covered()
/// equals its size) — null for an exact query or an unrouted shard.
struct ScoredShard {
  std::vector<ScoredSegment> Segments;
  const IndexRouting *Routing = nullptr;
};

/// One hit inside a shard: its similarity, its position across the
/// shard's segments (the tie-break), and its segment and offset.
struct ShardHit {
  double Sim = 0.0;
  size_t Pos = 0;
  size_t Seg = 0;
  size_t Off = 0;
};

/// Receives query I's per-shard top-K lists, best first.
using EmitShardHits =
    std::function<void(size_t, const std::vector<std::vector<ShardHit>> &)>;

/// Ranks every query against every shard and hands each query's
/// per-shard lists to \p Emit. \p Normalize selects cosine similarity
/// (a vanishing norm scores 0) over the raw dot; \p NProbe (0: the
/// routing's DefaultNProbe, itself 0 = all) applies to routed shards.
/// A single query fans out over the shards on \p Threads workers (0 =
/// hardware concurrency, as in parallelFor); a batch strides its
/// queries across worker chunks, each reusing one flattened query, one
/// probe table and one candidate scratch per shard, so a query's
/// answer depends on neither the chunking nor the thread count. Emit
/// runs concurrently for distinct queries.
void scoreBatch(const std::vector<ScoredShard> &Shards,
                const std::vector<const KernelProfile *> &Queries, size_t K,
                bool Normalize, size_t NProbe, size_t Threads,
                const EmitShardHits &Emit);

} // namespace detail
} // namespace kast

#endif // KAST_INDEX_SCORINGENGINE_H
