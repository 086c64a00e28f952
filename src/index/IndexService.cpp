//===- index/IndexService.cpp - Snapshot-isolated profile serving ----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/IndexService.h"
#include "util/SimdDot.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <thread>

using namespace kast;

//===----------------------------------------------------------------------===//
// Snapshot scoring and k-way merge
//===----------------------------------------------------------------------===//

namespace {

/// One scored candidate inside a shard. Pos is the flattened insertion
/// position across the shard's segments — the deterministic tie-break
/// within a shard (older entries win ties, mirroring ProfileIndex's
/// smaller-index rule).
struct ShardHit {
  double Sim = 0.0;
  size_t Pos = 0;
  size_t Seg = 0;
  size_t Off = 0;
};

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

/// Scores every live entry of \p Shard against the flattened \p Query
/// into \p Scratch (caller-owned so batches reuse the allocation) and
/// leaves the shard's top-K, best first, in \p TopK. Callers flatten
/// each query once (IndexSnapshot::query / queryBatch) so every
/// shard's scan streams the dense arrays through the vectorized dot.
void scoreShard(const detail::IndexShard &Shard, const FlatProfile &Query,
                size_t K, bool Normalize, double QNorm,
                simd::ExactScan &Scan, std::vector<ShardHit> &Scratch,
                std::vector<ShardHit> &TopK) {
  TopK.clear();
  if (K == 0 || Shard.LiveCount == 0)
    return;
  Scan.assign(Query.Hashes.data(), Query.Values.data(), Query.size());
  Scratch.clear();
  size_t Pos = 0;
  for (size_t S = 0; S < Shard.Segments.size(); ++S) {
    const detail::IndexSegment &Seg = *Shard.Segments[S];
    const std::vector<uint8_t> *Tombs = Shard.Tombstones[S].get();
    for (size_t I = 0; I < Seg.size(); ++I, ++Pos) {
      if (Tombs && (*Tombs)[I])
        continue;
      const ProfileView V = Seg.Store.view(I);
      double Sim = Scan.dot(V.Hashes, V.Values, V.Size);
      if (Normalize) {
        double Denominator = QNorm * V.Norm;
        Sim = Denominator > 0.0 ? Sim / Denominator : 0.0;
      }
      Scratch.push_back({Sim, Pos, S, I});
    }
  }
  const size_t Take = std::min(K, Scratch.size());
  std::partial_sort(Scratch.begin(), Scratch.begin() + Take, Scratch.end(),
                    [](const ShardHit &L, const ShardHit &R) {
                      if (L.Sim != R.Sim)
                        return L.Sim > R.Sim;
                      return L.Pos < R.Pos;
                    });
  TopK.assign(Scratch.begin(), Scratch.begin() + Take);
}

/// scoreShard through the shard's candidate-generation tier. The
/// routed first segment contributes only posting-list candidates
/// (exact re-ranked, so a survivor's similarity is bit-identical to
/// the exact scan's); every later segment — sealed after the fit, or
/// the staging tail — is scanned exactly. When fewer than K hits
/// score above zero, live unmarked entries of the routed segment pad
/// the tail at similarity exactly +0.0 in position order, which is
/// what the exact scan computes for a profile sharing no feature with
/// the query — the bit-identity argument of ProfileIndex's
/// approxQueryInto, with Pos as the tie-break. Shards without
/// applicable routing (never routed, or compacted since) fall back to
/// scoreShard.
void scoreShardApprox(const detail::IndexShard &Shard,
                      const FlatProfile &Query, size_t K, bool Normalize,
                      double QNorm, size_t NProbe, InvertedScratch &IS,
                      simd::ExactScan &Scan, std::vector<ShardHit> &Scratch,
                      std::vector<ShardHit> &TopK) {
  const bool Routed = Shard.Routing && !Shard.Segments.empty() &&
                      Shard.Segments[0] == Shard.RoutedSegment;
  if (!Routed) {
    scoreShard(Shard, Query, K, Normalize, QNorm, Scan, Scratch, TopK);
    return;
  }
  TopK.clear();
  if (K == 0 || Shard.LiveCount == 0)
    return;
  const detail::IndexRouting &R = *Shard.Routing;
  const detail::IndexSegment &Seg0 = *Shard.Segments[0];
  const std::vector<uint8_t> *Tombs0 = Shard.Tombstones[0].get();
  const size_t Covered = R.covered();
  assert(Covered == Seg0.size() && "routing must cover the first segment");

  const size_t Probe = NProbe != 0 ? NProbe : R.Options.DefaultNProbe;
  R.Router.route(Query, Probe, IS.RouteScored, IS.Probes);
  IS.begin(Covered);
  R.Inverted.collectCandidates(Query, IS.Probes, IS);
  // Shortlist selection mirrors ProfileIndex's approxQueryInto: the
  // quantized dot over the full candidate profile when the sidecar
  // exists, the accumulated partial score otherwise. Tombstoned
  // candidates are filtered below either way, so scoring them here
  // only costs a few wasted int8 dots.
  const size_t Budget = R.Options.RerankBudget;
  if (Budget > 0 && IS.Candidates.size() > Budget) {
    if (const QuantizedStore *Quant = R.Quant.get()) {
      for (uint32_t Id : IS.Candidates) {
        const ProfileView V = Seg0.Store.view(Id);
        const QuantizedStore::View QV = Quant->view(Id);
        double Sim =
            simd::dotQuantized(Query.Hashes.data(), Query.Values.data(),
                               Query.size(), V.Hashes, QV.Values, QV.Size,
                               QV.Scale);
        if (Normalize)
          Sim = V.Norm > 0.0 ? Sim / V.Norm : 0.0;
        IS.Acc[Id] = Sim;
      }
    }
    std::partial_sort(IS.Candidates.begin(), IS.Candidates.begin() + Budget,
                      IS.Candidates.end(), [&](uint32_t L, uint32_t R2) {
                        if (IS.Acc[L] != IS.Acc[R2])
                          return IS.Acc[L] > IS.Acc[R2];
                        return L < R2;
                      });
    IS.Candidates.resize(Budget);
  }

  Scan.assign(Query.Hashes.data(), Query.Values.data(), Query.size());
  const auto Score = [&](const ProfileView &V) {
    double Sim = Scan.dot(V.Hashes, V.Values, V.Size);
    if (Normalize) {
      double Denominator = QNorm * V.Norm;
      Sim = Denominator > 0.0 ? Sim / Denominator : 0.0;
    }
    return Sim;
  };
  Scratch.clear();
  for (uint32_t Id : IS.Candidates) {
    if (Tombs0 && (*Tombs0)[Id])
      continue;
    Scratch.push_back({Score(Seg0.Store.view(Id)), Id, 0, Id});
  }
  size_t Pos = Seg0.size();
  for (size_t S = 1; S < Shard.Segments.size(); ++S) {
    const detail::IndexSegment &Seg = *Shard.Segments[S];
    const std::vector<uint8_t> *Tombs = Shard.Tombstones[S].get();
    for (size_t I = 0; I < Seg.size(); ++I, ++Pos) {
      if (Tombs && (*Tombs)[I])
        continue;
      Scratch.push_back({Score(Seg.Store.view(I)), Pos, S, I});
    }
  }
  const size_t Take = std::min(K, Scratch.size());
  std::partial_sort(Scratch.begin(), Scratch.begin() + Take, Scratch.end(),
                    [](const ShardHit &L, const ShardHit &R2) {
                      if (L.Sim != R2.Sim)
                        return L.Sim > R2.Sim;
                      return L.Pos < R2.Pos;
                    });
  if (Take == K && Scratch[K - 1].Sim > 0.0) {
    TopK.assign(Scratch.begin(), Scratch.begin() + Take);
    return;
  }

  // Merge the ranked survivors with the zero stream: live, unmarked
  // entries of the routed segment, ascending position, exactly +0.0.
  size_t Zero = 0;
  const auto AdvanceZero = [&] {
    while (Zero < Covered &&
           (IS.marked(Zero) || (Tombs0 && (*Tombs0)[Zero])))
      ++Zero;
  };
  AdvanceZero();
  size_t Next = 0;
  while (TopK.size() < K) {
    const bool HaveScored = Next < Take;
    const bool HaveZero = Zero < Covered;
    if (!HaveScored && !HaveZero)
      break;
    bool TakeScored;
    if (!HaveZero) {
      TakeScored = true;
    } else if (!HaveScored) {
      TakeScored = false;
    } else {
      const ShardHit &H = Scratch[Next];
      TakeScored = H.Sim > 0.0 || (H.Sim == 0.0 && H.Pos < Zero);
    }
    if (TakeScored) {
      TopK.push_back(Scratch[Next++]);
    } else {
      TopK.push_back({0.0, Zero, 0, Zero});
      ++Zero;
      AdvanceZero();
    }
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
  if (K == 0 || Shards.empty())
    return {};
  // Flattened once; the per-shard workers share it read-only.
  const FlatProfile Flat(Query);
  const double QNorm = Normalize ? Flat.Norm : 1.0;
  std::vector<std::vector<ShardHit>> PerShard(Shards.size());
  parallelFor(
      Shards.size(),
      [&](size_t S) {
        simd::ExactScan Scan;
        std::vector<ShardHit> Scratch;
        scoreShard(*Shards[S], Flat, K, Normalize, QNorm, Scan, Scratch,
                   PerShard[S]);
      },
      Threads);
  return mergeTopK(Shards, PerShard, K);
}

std::vector<std::vector<ServiceHit>>
IndexSnapshot::queryBatch(const std::vector<KernelProfile> &Queries, size_t K,
                          bool Normalize, size_t Threads) const {
  std::vector<const KernelProfile *> Borrowed(Queries.size());
  for (size_t I = 0; I < Queries.size(); ++I)
    Borrowed[I] = &Queries[I];
  return queryBatch(Borrowed, K, Normalize, Threads);
}

std::vector<std::vector<ServiceHit>>
IndexSnapshot::queryBatch(const std::vector<const KernelProfile *> &Queries,
                          size_t K, bool Normalize, size_t Threads) const {
  std::vector<std::vector<ServiceHit>> Results(Queries.size());
  if (Shards.empty())
    return Results;
  // Same striding scheme as ProfileIndex::queryBatch: each chunk owns
  // one scoring scratch and one set of per-shard top-k lists, reused
  // for every query the chunk scores.
  const size_t Workers =
      Threads != 0 ? Threads
                   : std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t Chunks = std::min(Queries.size(), Workers);
  parallelFor(
      Chunks,
      [&](size_t Chunk) {
        FlatProfile Flat;
        simd::ExactScan Scan;
        std::vector<ShardHit> Scratch;
        std::vector<std::vector<ShardHit>> PerShard(Shards.size());
        for (size_t I = Chunk; I < Queries.size(); I += Chunks) {
          Flat.assign(*Queries[I]);
          const double QNorm = Normalize ? Flat.Norm : 1.0;
          for (size_t S = 0; S < Shards.size(); ++S)
            scoreShard(*Shards[S], Flat, K, Normalize, QNorm, Scan, Scratch,
                       PerShard[S]);
          Results[I] = mergeTopK(Shards, PerShard, K);
        }
      },
      Threads);
  return Results;
}

std::vector<std::vector<ServiceHit>> IndexSnapshot::queryBatchApprox(
    const std::vector<KernelProfile> &Queries, size_t K, bool Normalize,
    size_t NProbe, size_t Threads) const {
  std::vector<const KernelProfile *> Borrowed(Queries.size());
  for (size_t I = 0; I < Queries.size(); ++I)
    Borrowed[I] = &Queries[I];
  return queryBatchApprox(Borrowed, K, Normalize, NProbe, Threads);
}

std::vector<std::vector<ServiceHit>> IndexSnapshot::queryBatchApprox(
    const std::vector<const KernelProfile *> &Queries, size_t K,
    bool Normalize, size_t NProbe, size_t Threads) const {
  std::vector<std::vector<ServiceHit>> Results(Queries.size());
  if (Shards.empty())
    return Results;
  const size_t Workers =
      Threads != 0 ? Threads
                   : std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t Chunks = std::min(Queries.size(), Workers);
  parallelFor(
      Chunks,
      [&](size_t Chunk) {
        FlatProfile Flat;
        simd::ExactScan Scan;
        std::vector<ShardHit> Scratch;
        std::vector<std::vector<ShardHit>> PerShard(Shards.size());
        // One InvertedScratch per shard, kept across the whole chunk:
        // InvertedScratch::begin() only reallocates when the covered
        // size changes, and a shard's routed segment size is fixed
        // within a snapshot, so queries after the first pay an epoch
        // bump instead of allocating and zeroing ~N doubles per shard.
        // This amortization is what makes batched admission beat
        // call-per-query serving.
        std::vector<InvertedScratch> IS(Shards.size());
        for (size_t I = Chunk; I < Queries.size(); I += Chunks) {
          Flat.assign(*Queries[I]);
          const double QNorm = Normalize ? Flat.Norm : 1.0;
          for (size_t S = 0; S < Shards.size(); ++S)
            scoreShardApprox(*Shards[S], Flat, K, Normalize, QNorm, NProbe,
                             IS[S], Scan, Scratch, PerShard[S]);
          Results[I] = mergeTopK(Shards, PerShard, K);
        }
      },
      Threads);
  return Results;
}

std::vector<ServiceHit> IndexSnapshot::queryApprox(const KernelProfile &Query,
                                                   size_t K, bool Normalize,
                                                   size_t NProbe,
                                                   size_t Threads) const {
  if (K == 0 || Shards.empty())
    return {};
  const FlatProfile Flat(Query);
  const double QNorm = Normalize ? Flat.Norm : 1.0;
  std::vector<std::vector<ShardHit>> PerShard(Shards.size());
  parallelFor(
      Shards.size(),
      [&](size_t S) {
        InvertedScratch IS;
        simd::ExactScan Scan;
        std::vector<ShardHit> Scratch;
        scoreShardApprox(*Shards[S], Flat, K, Normalize, QNorm, NProbe, IS,
                         Scan, Scratch, PerShard[S]);
      },
      Threads);
  return mergeTopK(Shards, PerShard, K);
}

size_t IndexSnapshot::routedShardCount() const {
  size_t Count = 0;
  for (const std::shared_ptr<const detail::IndexShard> &S : Shards)
    if (S->Routing && !S->Segments.empty() &&
        S->Segments[0] == S->RoutedSegment)
      ++Count;
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
      auto R = std::make_shared<detail::IndexRouting>();
      R->Options = RoutingOpts;
      const ProfileStore &Store = W.Sealed[0]->Store;
      R->Router = ClusterRouter::build(Store, RoutingOpts.Cluster, Threads);
      R->Inverted =
          InvertedIndex::build(Store, R->Router.assignments(),
                               R->Router.numCentroids(),
                               RoutingOpts.MaxDocFrequency);
      // Segment stores are shared-const, so the sidecar is built
      // standalone and owned by the routing structure.
      if (RoutingOpts.RerankBudget > 0 && RoutingOpts.QuantizedShortlist)
        R->Quant =
            std::make_shared<const QuantizedStore>(QuantizedStore::build(Store));
      W.Routing = std::move(R);
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
