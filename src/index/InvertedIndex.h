//===- index/InvertedIndex.h - Posting-list candidate generation -*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fine tier of sublinear retrieval: per-cluster posting lists
/// keyed by feature hash over a ProfileStore. Profiles are sparse
/// hashed-feature vectors, so a query need only touch profiles that
/// share at least one (surviving) feature with it — the classic
/// inverted-file answer to the O(N) scan.
///
///   - Postings are grouped by the owning profile's cluster
///     (index/ClusterRouter assignment), so a routed query probes only
///     the nearest nprobe centroids' segments.
///   - Features whose document frequency exceeds a threshold fraction
///     of the corpus are not indexed at all (df-pruning): a feature
///     shared by most profiles distinguishes nothing and its posting
///     list costs almost a full scan.
///   - Within one feature's posting run, postings are impact-ordered
///     (value descending), so heavy contributors accumulate first and
///     any posting budget keeps the candidates that matter.
///
/// Candidate generation only *finds and pre-scores* survivors; final
/// scores always come from the exact merge-join dot over the full
/// profiles (the re-rank step of index/ScoringEngine), so the
/// approximate tier can be bit-identical to the exact scan when run
/// exhaustively (all centroids probed, no df-pruning, no re-rank
/// budget) — the contract the differential tests pin.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_INDEX_INVERTEDINDEX_H
#define KAST_INDEX_INVERTEDINDEX_H

#include "core/KernelProfile.h"
#include "core/ProfileStore.h"
#include "index/ClusterRouter.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace kast {

/// Process-wide count of posting-list builds (InvertedIndex::build
/// calls) since start. A rebuild-free routed restore must leave this
/// untouched — the restart canary and tests assert on deltas.
uint64_t postingRebuildCount();

/// Knobs of the approximate retrieval tier: how the router is fitted,
/// how aggressively postings are pruned, and how queries probe.
struct RoutingOptions {
  /// k-means shape for the coarse router.
  ClusterRouterOptions Cluster;
  /// Features present in more than this fraction of the covered
  /// profiles are not indexed (their posting lists are dropped). 1.0
  /// disables pruning; candidates then cover every profile sharing
  /// any feature with the query.
  double MaxDocFrequency = 1.0;
  /// Cap on candidates surviving to the exact re-rank, selected by
  /// accumulated partial score (impact-ordered posting accumulation).
  /// 0 re-ranks every candidate — required for bit-identity with the
  /// exact scan.
  size_t RerankBudget = 0;
  /// Centroids probed when the query does not say: 0 probes all.
  size_t DefaultNProbe = 0;
  /// When a RerankBudget is set, select the shortlist by scoring every
  /// candidate with the int8 quantized dot (core/ProfileStore's
  /// QuantizedStore sidecar) instead of the accumulated partial score.
  /// The quantized score sees *all* of a candidate's features — the
  /// partial accumulator only sees features surviving df-pruning in
  /// probed clusters — so the shortlist ranks closer to the exact
  /// order at a fraction of the exact dot's cost. Survivors are still
  /// re-ranked with the exact f64 kernel; this knob only changes which
  /// candidates make the shortlist. Ignored when RerankBudget == 0
  /// (nothing is pruned, so there is nothing to select).
  bool QuantizedShortlist = true;
};

/// Reusable per-thread query scratch: an epoch-versioned candidate
/// mark plus the partial-score accumulator. Versioning (instead of a
/// clear per query) makes reuse across a batch O(candidates), and —
/// the determinism contract — leaves no state behind that could leak
/// into the next query on the same worker: an id is a candidate iff
/// its epoch equals the current one, and Acc[id] is written before it
/// is ever read within one epoch.
struct InvertedScratch {
  /// Starts a new query over \p N profiles.
  void begin(size_t N) {
    if (Epoch.size() != N) {
      Epoch.assign(N, 0);
      Acc.assign(N, 0.0);
      Current = 0;
    }
    ++Current;
    if (Current == 0) { // Epoch wrap: invalidate everything once.
      std::fill(Epoch.begin(), Epoch.end(), 0u);
      Current = 1;
    }
    Candidates.clear();
  }

  bool marked(size_t Id) const { return Epoch[Id] == Current; }

  std::vector<uint32_t> Epoch;
  uint32_t Current = 0;
  /// Candidate ids in first-touch order; valid for the current epoch.
  std::vector<uint32_t> Candidates;
  /// Accumulated partial score per candidate id (query value × posting
  /// value over matched, surviving features).
  std::vector<double> Acc;
  /// Centroid-scoring scratch for ClusterRouter::route, reused across
  /// a batch so the per-query sweep allocates nothing once warm.
  std::vector<std::pair<double, uint32_t>> RouteScored;
  /// Probed centroid ids from the last route() call.
  std::vector<uint32_t> Probes;
};

/// Cluster-segmented, df-pruned, impact-ordered posting lists over one
/// ProfileStore.
class InvertedIndex {
public:
  InvertedIndex() = default;

  /// Builds posting lists over \p Store from \p Assignments (one
  /// cluster id per profile, values < \p NumClusters). Features with
  /// document frequency above MaxDocFrequency × covered are pruned;
  /// pruning never drops a feature held by a single profile. The
  /// build is a pure function of its arguments, so rebuilding from the
  /// same assignments reproduces the original exactly.
  static InvertedIndex build(const ProfileStore &Store,
                             ArrayView<uint32_t> Assignments,
                             size_t NumClusters,
                             double MaxDocFrequency = 1.0);

  /// Non-owning construction over pre-validated flat arenas (a v4
  /// image's posting CSR sections): no rebuild, no copy — the index
  /// views the five arrays for as long as \p Backing keeps them alive.
  /// The caller (the flat-image reader) has already validated the CSR
  /// shape (ClusterBegin/PostingBegin monotonic, final elements equal
  /// to the array totals); posting ids are additionally clamped at
  /// query time, so even a deep-validation-skipping open cannot write
  /// out of scratch bounds. Like ClusterRouter, an index is immutable
  /// after construction — replacement, not promotion, is the mutation
  /// path.
  static InvertedIndex fromArenas(size_t Covered, size_t PrunedFeatures,
                                  ArrayView<uint64_t> FeatureHashes,
                                  ArrayView<uint64_t> ClusterBegin,
                                  ArrayView<uint64_t> PostingBegin,
                                  ArrayView<uint32_t> PostingIds,
                                  ArrayView<double> PostingValues,
                                  std::shared_ptr<const void> Backing);

  /// True while the posting arrays view externally owned memory.
  bool isMapped() const { return Backing != nullptr; }

  size_t numProfiles() const { return NumProfiles; }
  size_t numClusters() const {
    return ClusterBegin.empty() ? 0 : ClusterBegin.size() - 1;
  }
  /// Total postings stored (after pruning).
  size_t postingCount() const { return PostingIds.size(); }
  /// Distinct features dropped by the df threshold.
  size_t prunedFeatureCount() const { return PrunedFeatures; }

  // The flat arenas, for serialization (core/FlatImage sections) —
  // views into this index, valid while it lives.
  ArrayView<uint64_t> featureHashes() const { return FeatureHashes; }
  ArrayView<uint64_t> clusterBegin() const { return ClusterBegin; }
  ArrayView<uint64_t> postingBegin() const { return PostingBegin; }
  ArrayView<uint32_t> postingIds() const { return PostingIds; }
  ArrayView<double> postingValues() const { return PostingValues; }

  /// Marks every profile of the probed clusters sharing a surviving
  /// feature with the flattened \p Query into \p S (first-touch order)
  /// and accumulates its partial score. \p Probes are cluster ids (from
  /// ClusterRouter::route); out-of-range ids are ignored. The caller
  /// must have called S.begin(numProfiles()).
  void collectCandidates(const FlatProfile &Query,
                         const std::vector<uint32_t> &Probes,
                         InvertedScratch &S) const;

private:
  /// Re-aims the active views at the owned vectors (after build or a
  /// deep copy).
  void syncOwned();
  void copyFrom(const InvertedIndex &Other);
  void moveFrom(InvertedIndex &Other);

  size_t NumProfiles = 0;
  size_t PrunedFeatures = 0;
  // The canonical representation is one contiguous CSR arena per
  // array, addressed through the non-owning views below — the same
  // dual-mode layout ProfileStore uses. Built indices own their
  // storage in the *Owned vectors; mapped indices (fromArenas) view an
  // external image kept alive by Backing and leave the vectors empty.
  std::vector<uint64_t> FeatureHashesOwned;
  std::vector<uint64_t> ClusterBeginOwned;
  std::vector<uint64_t> PostingBeginOwned;
  std::vector<uint32_t> PostingIdsOwned;
  std::vector<double> PostingValuesOwned;
  /// Distinct surviving feature hashes, cluster-major, sorted within
  /// each cluster (merge-joinable against a finalized query).
  ArrayView<uint64_t> FeatureHashes;
  /// CSR: cluster C's features span FeatureHashes[ClusterBegin[C],
  /// ClusterBegin[C+1]).
  ArrayView<uint64_t> ClusterBegin;
  /// CSR: feature F's postings span [PostingBegin[F],
  /// PostingBegin[F+1]) of PostingIds/PostingValues.
  ArrayView<uint64_t> PostingBegin;
  ArrayView<uint32_t> PostingIds;
  ArrayView<double> PostingValues;
  /// Non-null iff the views aim at an external arena.
  std::shared_ptr<const void> Backing;

public:
  // Views must follow the storage on copy/move (memberwise defaults
  // would alias the source's vectors), mirroring QuantizedStore.
  InvertedIndex(const InvertedIndex &Other) { copyFrom(Other); }
  InvertedIndex &operator=(const InvertedIndex &Other) {
    if (this != &Other)
      copyFrom(Other);
    return *this;
  }
  InvertedIndex(InvertedIndex &&Other) noexcept { moveFrom(Other); }
  InvertedIndex &operator=(InvertedIndex &&Other) noexcept {
    if (this != &Other)
      moveFrom(Other);
    return *this;
  }
};

} // namespace kast

#endif // KAST_INDEX_INVERTEDINDEX_H
