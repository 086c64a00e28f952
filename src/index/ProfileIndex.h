//===- index/ProfileIndex.h - Profile nearest-neighbor index ---*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Retrieval over cached kernel profiles — the paper's "access patterns
/// as fingerprints" claim served directly. A ProfileIndex holds N
/// prepared profiles in a core/ProfileStore arena (one flat
/// structure-of-arrays, not N heap vectors) with names, labels and
/// cached self-norms, and answers top-k nearest-neighbor queries
/// through the one retrieval engine (index/ScoringEngine), which sees
/// the index as a single tombstone-free segment. No Gram matrix is
/// built: one query costs O(N · dot) instead of the O(N² · dot) a
/// full-matrix detour would, the scan streams one contiguous hash
/// array instead of chasing N pointers, and selection keeps K hits,
/// not N.
///
/// Indexes round-trip through one flat image (core/FlatImage) with
/// their routing tier and int8 sidecar embedded, so a served corpus
/// profiles each trace exactly once — build, save(), and every later
/// process load()s (by mapping, with no k-means fit and no posting
/// rebuild) and queries without touching a kernel.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_INDEX_PROFILEINDEX_H
#define KAST_INDEX_PROFILEINDEX_H

#include "core/FlatImage.h"
#include "core/ProfileStore.h"
#include "core/StringKernel.h"
#include "index/ScoringEngine.h"
#include "util/Error.h"

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace kast {

namespace detail {

/// Fits the routing tier (index/ClusterRouter + index/InvertedIndex,
/// plus the int8 shortlist store when \p Options ask for one) over all
/// of \p Store. Deterministic for fixed options regardless of
/// \p Threads.
std::shared_ptr<const IndexRouting>
fitRouting(const ProfileStore &Store, const RoutingOptions &Options,
           size_t Threads);

/// The routing tier as the flat arenas core/FlatImage writes as its
/// version-4 sections. The arenas view \p R's structures and pin \p R
/// through their Backing.
std::shared_ptr<const RoutingArenas>
routingArenas(const std::shared_ptr<const IndexRouting> &R);

/// The inverse of routingArenas: a routing tier over the first
/// A->Covered profiles of \p Store (at most Store.size()) that views
/// \p A's arenas in place — no k-means fit, no posting rebuild. The
/// int8 shortlist store is \p Store's sidecar when it carries one and
/// the options ask for it; otherwise it is built.
std::shared_ptr<const IndexRouting>
routingFromArenas(const std::shared_ptr<const RoutingArenas> &A,
                  const ProfileStore &Store);

/// Single-pass majority vote over \p Count labels addressed
/// most-similar-first by \p LabelAt (an index → const std::string&
/// callable). The winner is the label with the highest total count;
/// ties break toward the label whose first occurrence is nearest —
/// the contract ProfileIndex::majorityLabel and
/// IndexSnapshot::majorityLabel both document. O(Count) expected,
/// replacing the O(Count²) rescan-per-neighbor counting.
template <typename LabelAtFn>
std::string majorityVote(size_t Count, LabelAtFn LabelAt) {
  // Counts are kept in first-seen order, so "earliest slot among the
  // maxima" is exactly "nearest first occurrence". The string_view
  // keys borrow from the caller's label storage, which outlives the
  // vote.
  std::unordered_map<std::string_view, size_t> Slots;
  std::vector<std::pair<std::string_view, size_t>> Counts;
  for (size_t I = 0; I < Count; ++I) {
    const std::string &Label = LabelAt(I);
    auto [It, Inserted] = Slots.try_emplace(Label, Counts.size());
    if (Inserted)
      Counts.push_back({Label, 0});
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

} // namespace detail

/// One retrieval hit: the index entry and its similarity to the query.
struct Neighbor {
  size_t Index = 0;
  double Similarity = 0.0;

  bool operator==(const Neighbor &Rhs) const = default;
};

/// Top-k nearest-neighbor index over prepared kernel profiles.
class ProfileIndex {
public:
  ProfileIndex() = default;

  /// An empty index tagged with the producing kernel's name.
  explicit ProfileIndex(std::string KernelName)
      : KernelName(std::move(KernelName)) {}

  /// Profiles every string with \p Kernel (in parallel) and indexes
  /// the results. \p Labels may be empty (unlabeled corpus) or must
  /// match \p Strings in length.
  static ProfileIndex build(const ProfiledStringKernel &Kernel,
                            const std::vector<WeightedString> &Strings,
                            const std::vector<std::string> &Labels = {},
                            size_t Threads = 0);

  /// Appends one finalized profile (copied into the arena).
  void add(std::string Name, std::string Label,
           const KernelProfile &Profile);

  size_t size() const { return Store.size(); }
  bool empty() const { return Store.empty(); }

  const std::string &kernelName() const { return KernelName; }
  const std::string &name(size_t I) const { return Names[I]; }
  const std::string &label(size_t I) const { return Labels[I]; }

  /// The arena view of entry \p I; invalidated by the next add().
  ProfileView view(size_t I) const { return Store.view(I); }

  /// Entry \p I copied back out as a staging-type KernelProfile (e.g.
  /// to re-query the index with one of its own entries).
  KernelProfile profile(size_t I) const { return Store.materialize(I); }

  /// The arena backing the index.
  const ProfileStore &store() const { return Store; }

  /// sqrt(dot(p, p)) of entry \p I, cached at insertion.
  double norm(size_t I) const { return Store.norm(I); }

  /// The min(K, size()) entries most similar to \p Query, most similar
  /// first; ties break toward the smaller index for determinism.
  /// \p Normalize selects cosine similarity (entries or queries with
  /// vanishing norm score 0) over the raw profile dot. K == 0 and an
  /// empty index both return an empty list. Scored by the one engine
  /// (index/ScoringEngine) as a single tombstone-free segment.
  std::vector<Neighbor> query(const KernelProfile &Query, size_t K,
                              bool Normalize = true) const;

  /// query() — or, with \p Approx, queryApprox() at \p NProbe — for a
  /// batch: queries are strided across worker chunks that each reuse
  /// one scoring scratch, and Results[I] is bit-identical to the
  /// single-query call on Queries[I] for every \p Threads.
  std::vector<std::vector<Neighbor>>
  queryBatch(const std::vector<KernelProfile> &Queries, size_t K,
             bool Normalize = true, size_t Threads = 0, bool Approx = false,
             size_t NProbe = 0) const;

  /// Fits the two-tier retrieval structures (index/ClusterRouter +
  /// index/InvertedIndex) over the current contents. Entries added
  /// later form an unrouted tail that queryApprox always scans
  /// exactly; rebuild to fold them in. Deterministic for fixed
  /// options regardless of \p Threads.
  void buildRouting(const RoutingOptions &Options = {}, size_t Threads = 0);

  /// Drops the routing tier; queryApprox falls back to the exact scan.
  void clearRouting();

  bool routed() const { return Routing != nullptr; }

  /// Entries covered by the routing fit (the prefix [0, routedCount());
  /// everything at or beyond it is the unrouted tail). 0 when unrouted.
  size_t routedCount() const { return Routing ? Routing->covered() : 0; }

  /// The fitted coarse router, or nullptr when unrouted.
  const ClusterRouter *router() const {
    return Routing ? &Routing->Router : nullptr;
  }

  /// The routing options the tier was built with, or nullptr.
  const RoutingOptions *routingOptions() const {
    return Routing ? &Routing->Options : nullptr;
  }

  /// query() through the candidate-generation tier: probes the
  /// \p NProbe nearest centroids' posting segments (0 defers to
  /// RoutingOptions::DefaultNProbe, itself 0 = all centroids), exact
  /// re-ranks the candidates with the merge-join dot, and pads with
  /// non-candidates at similarity exactly 0.0 in id order when fewer
  /// than K candidates score above zero. Run exhaustively (all
  /// centroids, MaxDocFrequency 1.0, RerankBudget 0) the result is
  /// bit-identical to query(), including tie-break order. Falls back
  /// to query() when unrouted.
  std::vector<Neighbor> queryApprox(const KernelProfile &Query, size_t K,
                                    bool Normalize = true,
                                    size_t NProbe = 0) const;

  /// Majority label among \p Neighbors; ties break toward the label of
  /// the nearer neighbor. Empty for an empty neighbor list.
  std::string majorityLabel(const std::vector<Neighbor> &Neighbors) const;

  /// Round-trip through one flat image: save writes the arena, the
  /// int8 sidecar whenever the routing's shortlist ranks by it (also
  /// after an add() dropped the store's copy, so load never
  /// re-quantizes), and the routing tier (covering the routed prefix)
  /// straight from memory, staging the file beside
  /// \p Path and renaming it into place — so saving back to the path
  /// the index was loaded from is safe. load maps the image and views
  /// the routing arenas in place: a loaded index answers query() and
  /// queryApprox() bit-identically to the saved one.
  Status save(const std::string &Path) const;
  static Expected<ProfileIndex> load(const std::string &Path);

private:
  std::string KernelName;
  std::vector<std::string> Names;
  std::vector<std::string> Labels;
  ProfileStore Store;
  std::shared_ptr<const detail::IndexRouting> Routing;
};

} // namespace kast

#endif // KAST_INDEX_PROFILEINDEX_H
