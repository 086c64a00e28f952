//===- index/ClusterRouter.h - Coarse k-means query routing ----*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coarse tier of sublinear retrieval: a spherical k-means
/// clustering over a ProfileStore that routes queries to the few
/// centroids they resemble, so the inverted tier (index/InvertedIndex)
/// probes only those centroids' posting segments instead of the whole
/// corpus.
///
/// Centroids are themselves sparse profiles — the dense accumulation
/// of their members' unit-normalized sparse vectors, re-normalized and
/// stored in a small ProfileStore — so query routing reuses the
/// existing merge-join kernel dot, the fit's assignment passes score
/// through an inverted centroid table whose every score is
/// bit-identical to that dot, and a fitted router persists as the
/// centroid and assignment sections of a core/FlatImage.
///
/// Everything is a pure function of (store, options): seeding draws
/// from util/Rng with a fixed seed, ties in assignment and routing
/// break toward the lower centroid id, and the optional training
/// sample is a deterministic shuffle. Rebuilding a router over the
/// same arena therefore reproduces the same assignments bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_INDEX_CLUSTERROUTER_H
#define KAST_INDEX_CLUSTERROUTER_H

#include "core/ProfileStore.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace kast {

/// Process-wide count of k-means fits (ClusterRouter::build calls)
/// since start. A rebuild-free restore must leave this untouched —
/// the routed-restart canary asserts exactly that.
uint64_t kmeansFitCount();

/// Shape knobs for ClusterRouter::build.
struct ClusterRouterOptions {
  /// Number of centroids; 0 picks ceil(sqrt(N)) clamped to [1, 4096].
  size_t NumCentroids = 0;
  /// k-means refinement passes over the training set. Assignments
  /// usually stabilize in a handful of rounds; training stops early
  /// once they do.
  size_t MaxIterations = 8;
  /// Profiles used to fit the centroids; 0 trains on the whole store.
  /// A bounded sample (deterministically drawn) keeps fit cost flat as
  /// the corpus grows; the final assignment pass always covers every
  /// profile.
  size_t TrainingSample = 0;
  /// Seed for the deterministic sampling and seeding shuffles.
  uint64_t Seed = 0x5EEDC0DEULL;
};

/// A fitted k-means routing structure: per-profile centroid
/// assignments plus the centroids as unit-norm sparse profiles.
class ClusterRouter {
public:
  ClusterRouter() = default;

  /// Fits \p Options.NumCentroids spherical k-means centroids over
  /// \p Store and assigns every profile to its most similar centroid.
  /// Deterministic for fixed options regardless of \p Threads (the
  /// parallel loops are pure per item). An empty store yields an
  /// empty router (numCentroids() == 0).
  static ClusterRouter build(const ProfileStore &Store,
                             ClusterRouterOptions Options = {},
                             size_t Threads = 0);

  /// Non-owning construction over pre-validated flat arenas (a v4
  /// image's centroid + assignment sections): no fit, no copy — the
  /// router views \p Assignments and the mapped \p Centroids for as
  /// long as \p Backing keeps them alive. The caller (the flat-image
  /// reader) has already range-checked every assignment against the
  /// centroid count. A router is immutable after construction, so
  /// unlike ProfileStore there is no promotion path; replacing the
  /// routing (rebuildRouting/compact) builds a fresh owned router.
  static ClusterRouter fromArenas(ProfileStore Centroids,
                                  ArrayView<uint32_t> Assignments,
                                  std::shared_ptr<const void> Backing);

  /// True while assignments() views externally owned memory.
  bool isMapped() const { return Backing != nullptr; }

  size_t numCentroids() const { return Centroids.size(); }
  size_t numProfiles() const { return NumAssigned; }
  bool empty() const { return NumAssigned == 0; }

  /// Assignments[I] is the centroid id of profile I, in [0,
  /// numCentroids()).
  ArrayView<uint32_t> assignments() const {
    return {AssignmentsP, NumAssigned};
  }

  /// The unit-normalized centroid vectors.
  const ProfileStore &centroids() const { return Centroids; }

  /// The min(NProbe, numCentroids()) centroid ids most similar to
  /// \p Query (cosine over the unit centroids), most similar first;
  /// ties break toward the lower id. NProbe == 0 probes every
  /// centroid — the exhaustive mode differential tests pin against
  /// the exact scan.
  std::vector<uint32_t> route(const KernelProfile &Query,
                              size_t NProbe) const;

  /// route() for a flattened query with caller-owned scratch: the
  /// centroid sweep scores through \p Scored (reused across a batch,
  /// so a warm query allocates nothing) and the vectorized exact dot
  /// (util/SimdDot) instead of N separate merge joins over interleaved
  /// entries. Probe ids land in \p Probes, most similar first —
  /// identical to route()'s, since the flattened dot is bit-identical.
  void route(const FlatProfile &Query, size_t NProbe,
             std::vector<std::pair<double, uint32_t>> &Scored,
             std::vector<uint32_t> &Probes) const;

  // Assignments live in AssignmentsOwned (built routers) or in an
  // external arena through Backing (mapped routers); either way the
  // active storage is (AssignmentsP, NumAssigned), so copies and moves
  // must re-aim the pointer — memberwise defaults would leave it at
  // the source's vector.
  ClusterRouter(const ClusterRouter &Other) { copyFrom(Other); }
  ClusterRouter &operator=(const ClusterRouter &Other) {
    if (this != &Other)
      copyFrom(Other);
    return *this;
  }
  ClusterRouter(ClusterRouter &&Other) noexcept { moveFrom(Other); }
  ClusterRouter &operator=(ClusterRouter &&Other) noexcept {
    if (this != &Other)
      moveFrom(Other);
    return *this;
  }

private:
  /// Re-aims the active pointer at the owned vector.
  void syncOwned() {
    AssignmentsP = AssignmentsOwned.data();
    NumAssigned = AssignmentsOwned.size();
  }
  void copyFrom(const ClusterRouter &Other) {
    Centroids = Other.Centroids;
    Backing = Other.Backing;
    if (Other.Backing) {
      // Mapped: share the views (O(1), like ProfileStore's mapped
      // copies).
      AssignmentsOwned.clear();
      AssignmentsP = Other.AssignmentsP;
      NumAssigned = Other.NumAssigned;
    } else {
      AssignmentsOwned = Other.AssignmentsOwned;
      syncOwned();
    }
  }
  void moveFrom(ClusterRouter &Other) {
    Centroids = std::move(Other.Centroids);
    Backing = std::move(Other.Backing);
    if (Backing) {
      AssignmentsOwned.clear();
      AssignmentsP = Other.AssignmentsP;
      NumAssigned = Other.NumAssigned;
    } else {
      AssignmentsOwned = std::move(Other.AssignmentsOwned);
      syncOwned();
    }
    Other.AssignmentsOwned.clear();
    Other.AssignmentsP = nullptr;
    Other.NumAssigned = 0;
    Other.Backing.reset();
  }

  ProfileStore Centroids;
  std::vector<uint32_t> AssignmentsOwned;
  const uint32_t *AssignmentsP = nullptr;
  size_t NumAssigned = 0;
  /// Non-null iff the assignment view aims at an external arena.
  std::shared_ptr<const void> Backing;
};

} // namespace kast

#endif // KAST_INDEX_CLUSTERROUTER_H
