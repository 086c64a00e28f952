//===- index/InvertedIndex.cpp - Posting-list candidate generation --------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/InvertedIndex.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <unordered_map>

namespace kast {

namespace {

struct Posting {
  uint64_t Hash;
  double Value;
  uint32_t Id;
};

/// Bumped once per build() — the "did a restore secretly rebuild the
/// posting lists?" probe the restart canary and tests read.
std::atomic<uint64_t> PostingRebuilds{0};

} // namespace

uint64_t postingRebuildCount() {
  return PostingRebuilds.load(std::memory_order_relaxed);
}

void InvertedIndex::syncOwned() {
  FeatureHashes = FeatureHashesOwned;
  ClusterBegin = ClusterBeginOwned;
  PostingBegin = PostingBeginOwned;
  PostingIds = PostingIdsOwned;
  PostingValues = PostingValuesOwned;
  Backing.reset();
}

void InvertedIndex::copyFrom(const InvertedIndex &Other) {
  NumProfiles = Other.NumProfiles;
  PrunedFeatures = Other.PrunedFeatures;
  if (Other.Backing) {
    // Mapped: share the views (O(1), like ProfileStore's mapped
    // copies).
    FeatureHashesOwned.clear();
    ClusterBeginOwned.clear();
    PostingBeginOwned.clear();
    PostingIdsOwned.clear();
    PostingValuesOwned.clear();
    FeatureHashes = Other.FeatureHashes;
    ClusterBegin = Other.ClusterBegin;
    PostingBegin = Other.PostingBegin;
    PostingIds = Other.PostingIds;
    PostingValues = Other.PostingValues;
    Backing = Other.Backing;
  } else {
    FeatureHashesOwned = Other.FeatureHashesOwned;
    ClusterBeginOwned = Other.ClusterBeginOwned;
    PostingBeginOwned = Other.PostingBeginOwned;
    PostingIdsOwned = Other.PostingIdsOwned;
    PostingValuesOwned = Other.PostingValuesOwned;
    syncOwned();
  }
}

void InvertedIndex::moveFrom(InvertedIndex &Other) {
  NumProfiles = Other.NumProfiles;
  PrunedFeatures = Other.PrunedFeatures;
  Backing = std::move(Other.Backing);
  if (Backing) {
    FeatureHashesOwned.clear();
    ClusterBeginOwned.clear();
    PostingBeginOwned.clear();
    PostingIdsOwned.clear();
    PostingValuesOwned.clear();
    FeatureHashes = Other.FeatureHashes;
    ClusterBegin = Other.ClusterBegin;
    PostingBegin = Other.PostingBegin;
    PostingIds = Other.PostingIds;
    PostingValues = Other.PostingValues;
  } else {
    FeatureHashesOwned = std::move(Other.FeatureHashesOwned);
    ClusterBeginOwned = std::move(Other.ClusterBeginOwned);
    PostingBeginOwned = std::move(Other.PostingBeginOwned);
    PostingIdsOwned = std::move(Other.PostingIdsOwned);
    PostingValuesOwned = std::move(Other.PostingValuesOwned);
    syncOwned();
  }
  Other.NumProfiles = 0;
  Other.PrunedFeatures = 0;
  Other.FeatureHashesOwned.clear();
  Other.ClusterBeginOwned.clear();
  Other.PostingBeginOwned.clear();
  Other.PostingIdsOwned.clear();
  Other.PostingValuesOwned.clear();
  Other.FeatureHashes = {};
  Other.ClusterBegin = {};
  Other.PostingBegin = {};
  Other.PostingIds = {};
  Other.PostingValues = {};
  Other.Backing.reset();
}

InvertedIndex InvertedIndex::fromArenas(size_t Covered, size_t PrunedFeatures,
                                        ArrayView<uint64_t> FeatureHashes,
                                        ArrayView<uint64_t> ClusterBegin,
                                        ArrayView<uint64_t> PostingBegin,
                                        ArrayView<uint32_t> PostingIds,
                                        ArrayView<double> PostingValues,
                                        std::shared_ptr<const void> Backing) {
  InvertedIndex Index;
  Index.NumProfiles = Covered;
  Index.PrunedFeatures = PrunedFeatures;
  Index.FeatureHashes = FeatureHashes;
  Index.ClusterBegin = ClusterBegin;
  Index.PostingBegin = PostingBegin;
  Index.PostingIds = PostingIds;
  Index.PostingValues = PostingValues;
  Index.Backing = std::move(Backing);
  return Index;
}

InvertedIndex InvertedIndex::build(const ProfileStore &Store,
                                   ArrayView<uint32_t> Assignments,
                                   size_t NumClusters, double MaxDocFrequency) {
  assert(Assignments.size() == Store.size() &&
         "one assignment per profile of the store");
  PostingRebuilds.fetch_add(1, std::memory_order_relaxed);
  InvertedIndex Index;
  const size_t N = Assignments.size();
  Index.NumProfiles = N;
  Index.ClusterBeginOwned.assign(NumClusters + 1, 0);
  Index.PostingBeginOwned.assign(1, 0);
  Index.syncOwned();
  if (N == 0 || NumClusters == 0)
    return Index;

  // Document frequency per feature. Profiles are finalized (hashes
  // strictly ascending within a profile), so every occurrence is a
  // distinct document.
  std::unordered_map<uint64_t, uint32_t> Df;
  Df.reserve(std::min(Store.entryCount(), size_t(1) << 22));
  for (size_t I = 0; I < N; ++I) {
    const ProfileView V = Store.view(I);
    for (size_t E = 0; E < V.Size; ++E)
      ++Df[V.Hashes[E]];
  }
  // A feature survives iff its df stays within the threshold; a df of
  // 1 always survives (a feature unique to one profile is the most
  // selective evidence there is).
  const size_t DfLimit =
      MaxDocFrequency >= 1.0
          ? N
          : std::max<size_t>(
                1, static_cast<size_t>(std::floor(MaxDocFrequency *
                                                  static_cast<double>(N))));
  for (const auto &[Hash, Count] : Df)
    if (Count > DfLimit)
      ++Index.PrunedFeatures;

  // Group member profiles by cluster, preserving id order.
  std::vector<std::vector<uint32_t>> Members(NumClusters);
  for (size_t I = 0; I < N; ++I) {
    assert(Assignments[I] < NumClusters && "assignment out of range");
    Members[Assignments[I]].push_back(static_cast<uint32_t>(I));
  }

  std::vector<Posting> Postings;
  for (size_t C = 0; C < NumClusters; ++C) {
    Postings.clear();
    for (uint32_t Id : Members[C]) {
      const ProfileView V = Store.view(Id);
      for (size_t E = 0; E < V.Size; ++E)
        if (Df[V.Hashes[E]] <= DfLimit)
          Postings.push_back({V.Hashes[E], V.Values[E], Id});
    }
    // Feature-major; within a feature impact-ordered (value
    // descending, then lower id) so heavy contributors come first.
    std::sort(Postings.begin(), Postings.end(),
              [](const Posting &L, const Posting &R) {
                if (L.Hash != R.Hash)
                  return L.Hash < R.Hash;
                if (L.Value != R.Value)
                  return L.Value > R.Value;
                return L.Id < R.Id;
              });
    for (size_t P = 0; P < Postings.size(); ++P) {
      if (P == 0 || Postings[P].Hash != Postings[P - 1].Hash) {
        Index.FeatureHashesOwned.push_back(Postings[P].Hash);
        Index.PostingBeginOwned.push_back(Index.PostingIdsOwned.size());
      }
      Index.PostingIdsOwned.push_back(Postings[P].Id);
      Index.PostingValuesOwned.push_back(Postings[P].Value);
      Index.PostingBeginOwned.back() = Index.PostingIdsOwned.size();
    }
    Index.ClusterBeginOwned[C + 1] = Index.FeatureHashesOwned.size();
  }
  Index.syncOwned();
  return Index;
}

void InvertedIndex::collectCandidates(const FlatProfile &Query,
                                      const std::vector<uint32_t> &Probes,
                                      InvertedScratch &S) const {
  assert(S.Epoch.size() == NumProfiles && "call S.begin(numProfiles()) first");
  const size_t QuerySize = Query.size();
  if (QuerySize == 0)
    return;
  for (uint32_t C : Probes) {
    if (C + 1 >= ClusterBegin.size())
      continue;
    size_t F = ClusterBegin[C];
    const size_t FEnd = ClusterBegin[C + 1];
    size_t Q = 0;
    // Merge-join the query's (sorted) feature hashes against this
    // cluster's (sorted) surviving features.
    while (Q < QuerySize && F < FEnd) {
      const uint64_t QHash = Query.Hashes[Q];
      const uint64_t FHash = FeatureHashes[F];
      if (QHash < FHash) {
        ++Q;
      } else if (FHash < QHash) {
        ++F;
      } else {
        const double QValue = Query.Values[Q];
        for (size_t P = PostingBegin[F]; P < PostingBegin[F + 1]; ++P) {
          const uint32_t Id = PostingIds[P];
          // A mapped arena that skipped deep validation could carry a
          // corrupt id; never let it index past the scratch arrays.
          if (Id >= NumProfiles)
            continue;
          if (!S.marked(Id)) {
            S.Epoch[Id] = S.Current;
            S.Acc[Id] = 0.0;
            S.Candidates.push_back(Id);
          }
          S.Acc[Id] += QValue * PostingValues[P];
        }
        ++Q;
        ++F;
      }
    }
  }
}

} // namespace kast
