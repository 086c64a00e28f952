//===- index/ScoringEngine.cpp - The one top-k retrieval engine ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/ScoringEngine.h"
#include "util/SimdDot.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <thread>

using namespace kast;
using namespace kast::detail;

namespace {

/// The one ranking: higher similarity first, then the earlier
/// position. Positions are unique within a shard, so the order is
/// total and any bounded selection under it is deterministic.
bool ranksBefore(const ShardHit &L, const ShardHit &R) {
  if (L.Sim != R.Sim)
    return L.Sim > R.Sim;
  return L.Pos < R.Pos;
}

/// Offers \p H to \p Heap, which keeps the best \p Limit hits offered
/// so far with the worst of them on top. \returns whether H was kept.
bool offer(std::vector<ShardHit> &Heap, size_t Limit, const ShardHit &H) {
  if (Heap.size() < Limit) {
    Heap.push_back(H);
    std::push_heap(Heap.begin(), Heap.end(), ranksBefore);
    return true;
  }
  if (Heap.empty() || !ranksBefore(H, Heap.front()))
    return false;
  std::pop_heap(Heap.begin(), Heap.end(), ranksBefore);
  Heap.back() = H;
  std::push_heap(Heap.begin(), Heap.end(), ranksBefore);
  return true;
}

/// Candidate scratch of one shard, reused across a chunk's queries.
struct ShardScratch {
  InvertedScratch Inverted;
  std::vector<ShardHit> Shortlist;
};

/// Ranks \p Query (already assigned to \p Scan) against one shard into
/// \p TopK, best first.
void scoreShard(const ScoredShard &Shard, const FlatProfile &Query, size_t K,
                bool Normalize, size_t NProbe, simd::ExactScan &Scan,
                ShardScratch &Scratch, std::vector<ShardHit> &TopK) {
  TopK.clear();
  if (K == 0 || Shard.Segments.empty())
    return;
  const double QNorm = Normalize ? Query.Norm : 1.0;
  const auto Exact = [&](const ProfileView &V) {
    double Sim = Scan.dot(V.Hashes, V.Values, V.Size);
    if (Normalize) {
      const double Denominator = QNorm * V.Norm;
      Sim = Denominator > 0.0 ? Sim / Denominator : 0.0;
    }
    return Sim;
  };
  const auto Live = [](const ScoredSegment &Seg, size_t I) {
    return !Seg.Tombstones || !(*Seg.Tombstones)[I];
  };
  const ScoredSegment &First = Shard.Segments[0];
  const IndexRouting *R = Shard.Routing;
  InvertedScratch &IS = Scratch.Inverted;
  if (R) {
    assert(R->covered() == First.Store->size() &&
           "routing covers the first segment, whole");
    R->Router.route(Query, NProbe != 0 ? NProbe : R->Options.DefaultNProbe,
                    IS.RouteScored, IS.Probes);
    IS.begin(First.Store->size());
    R->Inverted.collectCandidates(Query, IS.Probes, IS);
    // Removed candidates leave before the shortlist, so none takes a
    // budget slot; they stay marked, so none is zero-padded either.
    if (First.Tombstones)
      std::erase_if(IS.Candidates,
                    [&](uint32_t Id) { return !Live(First, Id); });
    // Budget-prune before paying for exact dots. With the int8 sidecar
    // the shortlist ranks by the quantized dot over each candidate's
    // full profile (off by at most Scale/2 · L1(q), see
    // QuantizedStore); otherwise by the accumulated partial score,
    // which only saw features surviving df-pruning in probed clusters.
    // The query norm is a common positive factor, so dividing by the
    // candidate's norm alone already ranks by cosine. Candidates cut
    // here stay marked: they are neither re-ranked nor zero-padded.
    const size_t Budget = R->Options.RerankBudget;
    if (Budget > 0 && IS.Candidates.size() > Budget) {
      Scratch.Shortlist.clear();
      for (uint32_t Id : IS.Candidates) {
        double Approx = IS.Acc[Id];
        if (const QuantizedStore *Quant = R->Quant.get()) {
          const ProfileView V = First.Store->view(Id);
          const QuantizedStore::View QV = Quant->view(Id);
          Approx = simd::dotQuantized(Query.Hashes.data(), Query.Values.data(),
                                      Query.size(), V.Hashes, QV.Values,
                                      QV.Size, QV.Scale);
          if (Normalize)
            Approx = V.Norm > 0.0 ? Approx / V.Norm : 0.0;
        }
        offer(Scratch.Shortlist, Budget, {Approx, Id});
      }
      IS.Candidates.clear();
      for (const ShardHit &H : Scratch.Shortlist)
        IS.Candidates.push_back(static_cast<uint32_t>(H.Pos));
    }
    for (uint32_t Id : IS.Candidates)
      offer(TopK, K, {Exact(First.Store->view(Id)), Id, 0, Id});
  }

  // Every segment the routing does not cover is scanned exactly.
  for (size_t S = R ? 1 : 0, Pos = R ? First.Store->size() : 0;
       S < Shard.Segments.size(); Pos += Shard.Segments[S++].Store->size()) {
    const ScoredSegment &Seg = Shard.Segments[S];
    for (size_t I = 0; I < Seg.Store->size(); ++I)
      if (Live(Seg, I))
        offer(TopK, K, {Exact(Seg.Store->view(I)), Pos + I, S, I});
  }

  // The zero stream: live, unmarked routed entries in position order at
  // exactly +0.0. Once one is turned away, every later one would be.
  if (R && (TopK.size() < K || TopK.front().Sim <= 0.0))
    for (size_t Z = 0; Z < First.Store->size(); ++Z)
      if (!IS.marked(Z) && Live(First, Z) && !offer(TopK, K, {0.0, Z, 0, Z}))
        break;
  std::sort_heap(TopK.begin(), TopK.end(), ranksBefore);
}

} // namespace

void detail::scoreBatch(const std::vector<ScoredShard> &Shards,
                        const std::vector<const KernelProfile *> &Queries,
                        size_t K, bool Normalize, size_t NProbe,
                        size_t Threads, const EmitShardHits &Emit) {
  if (Queries.size() == 1) {
    // One query: flattened once, its shards scored in parallel.
    const FlatProfile Flat(*Queries[0]);
    std::vector<std::vector<ShardHit>> PerShard(Shards.size());
    parallelFor(
        Shards.size(),
        [&](size_t S) {
          simd::ExactScan Scan;
          Scan.assign(Flat.Hashes.data(), Flat.Values.data(), Flat.size());
          ShardScratch Scratch;
          scoreShard(Shards[S], Flat, K, Normalize, NProbe, Scan, Scratch,
                     PerShard[S]);
        },
        Threads);
    Emit(0, PerShard);
    return;
  }
  // A batch strides its queries across worker-count chunks. Each chunk
  // keeps its scratch for every query it scores; the scratch is
  // call-scoped (a thread_local would pin index-sized buffers to caller
  // threads for the process lifetime). A shard's candidate scratch
  // reallocates only when its routed size changes, which it never does
  // within one call, so a warm query pays an epoch bump instead of
  // allocating and zeroing one slot per routed entry. Query cost is
  // uniform, so striding balances fine.
  const size_t Workers =
      Threads != 0 ? Threads
                   : std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t Chunks = std::min(Queries.size(), Workers);
  parallelFor(
      Chunks,
      [&](size_t Chunk) {
        FlatProfile Flat;
        simd::ExactScan Scan;
        std::vector<ShardScratch> Scratch(Shards.size());
        std::vector<std::vector<ShardHit>> PerShard(Shards.size());
        for (size_t I = Chunk; I < Queries.size(); I += Chunks) {
          Flat.assign(*Queries[I]);
          Scan.assign(Flat.Hashes.data(), Flat.Values.data(), Flat.size());
          for (size_t S = 0; S < Shards.size(); ++S)
            scoreShard(Shards[S], Flat, K, Normalize, NProbe, Scan,
                       Scratch[S], PerShard[S]);
          Emit(I, PerShard);
        }
      },
      Threads);
}
