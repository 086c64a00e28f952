//===- index/ProfileIndex.cpp - Profile nearest-neighbor index -------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/ProfileIndex.h"
#include "util/SimdDot.h"
#include "util/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>

using namespace kast;

ProfileIndex ProfileIndex::build(const ProfiledStringKernel &Kernel,
                                 const std::vector<WeightedString> &Strings,
                                 const std::vector<std::string> &Labels,
                                 size_t Threads) {
  assert((Labels.empty() || Labels.size() == Strings.size()) &&
         "label count mismatch");
  std::vector<KernelProfile> Profiles(Strings.size());
  parallelFor(
      Strings.size(),
      [&](size_t I) { Profiles[I] = Kernel.profile(Strings[I]); }, Threads);

  ProfileIndex Index(Kernel.name());
  Index.Store.appendAll(Profiles);
  for (size_t I = 0; I < Strings.size(); ++I) {
    Index.Names.push_back(Strings[I].name());
    Index.Labels.push_back(Labels.empty() ? "" : Labels[I]);
  }
  return Index;
}

void ProfileIndex::add(std::string Name, std::string Label,
                       const KernelProfile &Profile) {
  Store.append(Profile);
  Names.push_back(std::move(Name));
  Labels.push_back(std::move(Label));
}

/// The shared single-query kernel: flattens the query once (the dense
/// shape util/SimdDot streams), scores every entry into \p All
/// (resized, never reallocated once warm), then partial-sorts the top
/// K out. Callers own both scratches so batched queries can reuse
/// them. Flat.Norm is bit-identical to Query.norm(), and the
/// vectorized dot is bit-identical to the entry merge join, so
/// flattening changes nothing but the layout.
static std::vector<Neighbor> queryInto(const ProfileStore &Store,
                                       const KernelProfile &Query, size_t K,
                                       bool Normalize, FlatProfile &Flat,
                                       simd::ExactScan &Scan,
                                       std::vector<Neighbor> &All) {
  if (K == 0 || Store.empty())
    return {};
  const size_t N = Store.size();
  All.resize(N);
  Flat.assign(Query);
  Scan.assign(Flat.Hashes.data(), Flat.Values.data(), Flat.size());
  const double QueryNorm = Normalize ? Flat.Norm : 1.0;
  for (size_t I = 0; I < N; ++I) {
    const ProfileView V = Store.view(I);
    double Sim = Scan.dot(V.Hashes, V.Values, V.Size);
    if (Normalize) {
      double Denominator = QueryNorm * V.Norm;
      Sim = Denominator > 0.0 ? Sim / Denominator : 0.0;
    }
    All[I] = {I, Sim};
  }
  const size_t Take = std::min(K, N);
  std::partial_sort(All.begin(), All.begin() + Take, All.end(),
                    [](const Neighbor &L, const Neighbor &R) {
                      if (L.Similarity != R.Similarity)
                        return L.Similarity > R.Similarity;
                      return L.Index < R.Index;
                    });
  return {All.begin(), All.begin() + Take};
}

std::vector<Neighbor> ProfileIndex::query(const KernelProfile &Query,
                                          size_t K, bool Normalize) const {
  FlatProfile Flat;
  simd::ExactScan Scan;
  std::vector<Neighbor> Scratch;
  return queryInto(Store, Query, K, Normalize, Flat, Scan, Scratch);
}

std::vector<std::vector<Neighbor>>
ProfileIndex::queryBatch(const std::vector<KernelProfile> &Queries, size_t K,
                         bool Normalize, size_t Threads) const {
  std::vector<std::vector<Neighbor>> Results(Queries.size());
  // Queries are strided across worker-count chunks so each chunk
  // allocates its O(N) candidate buffer once and reuses it for every
  // query it scores; the scratch is call-scoped (a thread_local would
  // pin index-sized buffers to caller threads for the process
  // lifetime). Query cost is uniform, so striding balances fine.
  const size_t Workers = Threads != 0 ? Threads
                         : std::max<size_t>(
                               1, std::thread::hardware_concurrency());
  const size_t Chunks = std::min(Queries.size(), Workers);
  parallelFor(
      Chunks,
      [&](size_t Chunk) {
        FlatProfile Flat;
        simd::ExactScan Scan;
        std::vector<Neighbor> Scratch;
        for (size_t I = Chunk; I < Queries.size(); I += Chunks)
          Results[I] =
              queryInto(Store, Queries[I], K, Normalize, Flat, Scan, Scratch);
      },
      Threads);
  return Results;
}

/// The shared approximate-query kernel. Candidate generation probes
/// the routed posting segments; the unrouted tail [covered, N) always
/// joins the candidate set. Survivors get *exact* merge-join scores —
/// the same arithmetic queryInto runs — so a candidate's similarity
/// is bit-identical to its exact-scan similarity. Non-candidates
/// share no surviving feature with the query inside the probed
/// clusters; exhaustively (all clusters, no df-pruning) their exact
/// similarity is exactly +0.0, so padding the top-k with unmarked ids
/// at 0.0 in ascending-id order reproduces the exact scan's result
/// bit-for-bit, tie-break order included: the (K+1)-th ranked
/// candidate is strictly dominated by K candidates under the (sim
/// desc, id asc) total order, so merging only the top-K candidates
/// with the zero stream loses nothing.
static std::vector<Neighbor>
approxQueryInto(const ProfileStore &Store, const detail::IndexRouting &Routing,
                const KernelProfile &Query, size_t K, bool Normalize,
                size_t NProbe, InvertedScratch &Scratch) {
  const size_t N = Store.size();
  if (K == 0 || N == 0)
    return {};
  const size_t Covered = Routing.covered();
  const size_t Probe = NProbe != 0 ? NProbe : Routing.Options.DefaultNProbe;
  FlatProfile &Flat = Scratch.Query;
  Flat.assign(Query);
  Routing.Router.route(Flat, Probe, Scratch.RouteScored, Scratch.Probes);
  Scratch.begin(Covered);
  Routing.Inverted.collectCandidates(Flat, Scratch.Probes, Scratch);

  // Budget-prune before paying for exact dots. With a quantized
  // sidecar the shortlist is selected by the int8 approximate dot over
  // each candidate's *full* profile (off by at most Scale/2 · L1(q),
  // see QuantizedStore); otherwise by the accumulated partial score,
  // which only saw features surviving df-pruning in probed clusters.
  // Dropped candidates stay marked, so they neither re-rank nor
  // reappear in the zero pad — they are simply not returned.
  const size_t Budget = Routing.Options.RerankBudget;
  if (Budget > 0 && Scratch.Candidates.size() > Budget) {
    if (const QuantizedStore *Quant = Routing.Quant.get()) {
      for (uint32_t Id : Scratch.Candidates) {
        const ProfileView V = Store.view(Id);
        const QuantizedStore::View QV = Quant->view(Id);
        double Sim =
            simd::dotQuantized(Flat.Hashes.data(), Flat.Values.data(),
                               Flat.size(), V.Hashes, QV.Values, QV.Size,
                               QV.Scale);
        // The query norm is a common positive factor; dividing by the
        // candidate norm alone already ranks by cosine.
        if (Normalize)
          Sim = V.Norm > 0.0 ? Sim / V.Norm : 0.0;
        Scratch.Acc[Id] = Sim;
      }
    }
    std::partial_sort(Scratch.Candidates.begin(),
                      Scratch.Candidates.begin() + Budget,
                      Scratch.Candidates.end(),
                      [&](uint32_t L, uint32_t R) {
                        if (Scratch.Acc[L] != Scratch.Acc[R])
                          return Scratch.Acc[L] > Scratch.Acc[R];
                        return L < R;
                      });
    Scratch.Candidates.resize(Budget);
  }

  const double QueryNorm = Normalize ? Flat.Norm : 1.0;
  Scratch.Scan.assign(Flat.Hashes.data(), Flat.Values.data(), Flat.size());
  const auto Score = [&](size_t I) {
    const ProfileView V = Store.view(I);
    double Sim = Scratch.Scan.dot(V.Hashes, V.Values, V.Size);
    if (Normalize) {
      double Denominator = QueryNorm * V.Norm;
      Sim = Denominator > 0.0 ? Sim / Denominator : 0.0;
    }
    return Sim;
  };

  std::vector<Neighbor> Scored;
  Scored.reserve(Scratch.Candidates.size() + (N - Covered));
  for (uint32_t Id : Scratch.Candidates)
    Scored.push_back({Id, Score(Id)});
  for (size_t I = Covered; I < N; ++I)
    Scored.push_back({I, Score(I)});
  const size_t Take = std::min(K, Scored.size());
  std::partial_sort(Scored.begin(), Scored.begin() + Take, Scored.end(),
                    [](const Neighbor &L, const Neighbor &R) {
                      if (L.Similarity != R.Similarity)
                        return L.Similarity > R.Similarity;
                      return L.Index < R.Index;
                    });
  Scored.resize(Take);

  // Fast path: K scored entries all strictly above zero — no unmarked
  // id can displace or interleave with them.
  if (Scored.size() == K && Scored.back().Similarity > 0.0)
    return Scored;

  // Merge the ranked survivors with the zero stream (unmarked covered
  // ids, ascending, similarity exactly +0.0 — what the exact scan
  // computes for a profile sharing no feature with the query).
  std::vector<Neighbor> Out;
  Out.reserve(std::min(K, N));
  size_t Zero = 0;
  const auto AdvanceZero = [&] {
    while (Zero < Covered && Scratch.marked(Zero))
      ++Zero;
  };
  AdvanceZero();
  size_t Next = 0;
  while (Out.size() < K) {
    const bool HaveScored = Next < Scored.size();
    const bool HaveZero = Zero < Covered;
    if (!HaveScored && !HaveZero)
      break;
    bool TakeScored;
    if (!HaveZero) {
      TakeScored = true;
    } else if (!HaveScored) {
      TakeScored = false;
    } else {
      const Neighbor &C = Scored[Next];
      TakeScored =
          C.Similarity > 0.0 || (C.Similarity == 0.0 && C.Index < Zero);
    }
    if (TakeScored) {
      Out.push_back(Scored[Next++]);
    } else {
      Out.push_back({Zero, 0.0});
      ++Zero;
      AdvanceZero();
    }
  }
  return Out;
}

void ProfileIndex::buildRouting(const RoutingOptions &Options, size_t Threads) {
  auto R = std::make_shared<detail::IndexRouting>();
  R->Options = Options;
  R->Router = ClusterRouter::build(Store, Options.Cluster, Threads);
  R->Inverted =
      InvertedIndex::build(Store, R->Router.assignments(),
                           R->Router.numCentroids(), Options.MaxDocFrequency);
  // The int8 scan tier only matters when a budget will prune: without
  // one every candidate gets the exact dot anyway.
  if (Options.RerankBudget > 0 && Options.QuantizedShortlist) {
    Store.buildQuantized();
    R->Quant = Store.quantizedShared();
  }
  Routing = std::move(R);
}

void ProfileIndex::clearRouting() { Routing.reset(); }

std::vector<Neighbor> ProfileIndex::queryApprox(const KernelProfile &Query,
                                                size_t K, bool Normalize,
                                                size_t NProbe) const {
  if (!Routing)
    return query(Query, K, Normalize);
  InvertedScratch Scratch;
  return approxQueryInto(Store, *Routing, Query, K, Normalize, NProbe,
                         Scratch);
}

std::vector<std::vector<Neighbor>>
ProfileIndex::queryBatchApprox(const std::vector<KernelProfile> &Queries,
                               size_t K, bool Normalize, size_t NProbe,
                               size_t Threads) const {
  if (!Routing)
    return queryBatch(Queries, K, Normalize, Threads);
  std::vector<std::vector<Neighbor>> Results(Queries.size());
  // Same strided chunking as queryBatch: one epoch-versioned scratch
  // per chunk, reused across that chunk's queries. Each query fully
  // re-initializes its view of the scratch (epoch bump), so results
  // are independent of chunk count and thread count.
  const size_t Workers = Threads != 0 ? Threads
                         : std::max<size_t>(
                               1, std::thread::hardware_concurrency());
  const size_t Chunks = std::min(Queries.size(), Workers);
  parallelFor(
      Chunks,
      [&](size_t Chunk) {
        InvertedScratch Scratch;
        for (size_t I = Chunk; I < Queries.size(); I += Chunks)
          Results[I] = approxQueryInto(Store, *Routing, Queries[I], K,
                                       Normalize, NProbe, Scratch);
      },
      Threads);
  return Results;
}

std::string
ProfileIndex::majorityLabel(const std::vector<Neighbor> &Neighbors) const {
  // Neighbors arrive most-similar first; majorityVote's first-seen
  // tie-break therefore lands on the nearer neighbor's label.
  return detail::majorityVote(
      Neighbors.size(),
      [&](size_t I) -> const std::string & { return Labels[Neighbors[I].Index]; });
}

std::shared_ptr<const RoutingArenas>
detail::routingArenas(const std::shared_ptr<const IndexRouting> &R) {
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

std::shared_ptr<const detail::IndexRouting>
detail::routingFromArenas(const std::shared_ptr<const RoutingArenas> &A,
                          const ProfileStore &Store) {
  assert(A->Covered <= Store.size() && "routing covers missing profiles");
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
  if (R->Options.RerankBudget > 0 && R->Options.QuantizedShortlist) {
    R->Quant = Store.quantizedShared();
    if (!R->Quant)
      R->Quant =
          std::make_shared<const QuantizedStore>(QuantizedStore::build(Store));
  }
  return R;
}

Status ProfileIndex::save(const std::string &Path) const {
  std::shared_ptr<const RoutingArenas> Arenas;
  if (Routing)
    Arenas = detail::routingArenas(Routing);
  return writeProfileStoreImageFile(KernelName, Names, Labels, Store, Path,
                                    Arenas.get());
}

Expected<ProfileIndex> ProfileIndex::load(const std::string &Path) {
  Expected<ProfileStoreCache> Read = readProfileStoreImageFile(Path);
  if (!Read)
    return Expected<ProfileIndex>::error(Read.message());
  ProfileStoreCache Cache = Read.take();
  ProfileIndex Index(std::move(Cache.KernelName));
  // The image's columns are lazy views; ProfileIndex mutates its
  // name/label lists (add()), so it materializes them up front. The
  // store stays mapped until the first add() promotes it.
  Index.Names = Cache.Names.takeVector();
  Index.Labels = Cache.Labels.takeVector();
  Index.Store = std::move(Cache.Store);
  if (Cache.Routing)
    Index.Routing = detail::routingFromArenas(Cache.Routing, Index.Store);
  return Index;
}
