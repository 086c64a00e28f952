//===- index/ProfileIndex.cpp - Profile nearest-neighbor index -------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "index/ProfileIndex.h"
#include "util/ThreadPool.h"

#include <cassert>

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

/// The engine over the index as one tombstone-free segment whose
/// routed prefix is routedCount() (none when \p Routing is null);
/// Neighbor::Index is the position.
static std::vector<std::vector<Neighbor>>
scoreIndex(const ProfileStore &Store, const detail::IndexRouting *Routing,
           const std::vector<const KernelProfile *> &Queries, size_t K,
           bool Normalize, size_t NProbe, size_t Threads) {
  std::vector<std::vector<Neighbor>> Results(Queries.size());
  const std::vector<detail::ScoredShard> Shards = {{{{&Store}}, Routing}};
  detail::scoreBatch(
      Shards, Queries, K, Normalize, NProbe, Threads,
      [&](size_t I, const std::vector<std::vector<detail::ShardHit>> &Hits) {
        for (const detail::ShardHit &H : Hits[0])
          Results[I].push_back({H.Pos, H.Sim});
      });
  return Results;
}

std::vector<Neighbor> ProfileIndex::query(const KernelProfile &Query,
                                          size_t K, bool Normalize) const {
  return scoreIndex(Store, nullptr, {&Query}, K, Normalize, 0, 1)[0];
}

std::vector<Neighbor> ProfileIndex::queryApprox(const KernelProfile &Query,
                                                size_t K, bool Normalize,
                                                size_t NProbe) const {
  return scoreIndex(Store, Routing.get(), {&Query}, K, Normalize, NProbe,
                    1)[0];
}

std::vector<std::vector<Neighbor>>
ProfileIndex::queryBatch(const std::vector<KernelProfile> &Queries, size_t K,
                         bool Normalize, size_t Threads, bool Approx,
                         size_t NProbe) const {
  std::vector<const KernelProfile *> Borrowed;
  for (const KernelProfile &Q : Queries)
    Borrowed.push_back(&Q);
  return scoreIndex(Store, Approx ? Routing.get() : nullptr, Borrowed, K,
                    Normalize, NProbe, Threads);
}

/// The int8 shortlist store \p Options ask for over \p Store: the
/// store's own sidecar when it carries one, else a standalone build;
/// null when no budget prunes (every candidate then gets the exact dot).
static std::shared_ptr<const QuantizedStore>
shortlistStore(const RoutingOptions &Options, const ProfileStore &Store) {
  if (Options.RerankBudget == 0 || !Options.QuantizedShortlist)
    return nullptr;
  if (std::shared_ptr<const QuantizedStore> Own = Store.quantizedShared())
    return Own;
  return std::make_shared<const QuantizedStore>(QuantizedStore::build(Store));
}

std::shared_ptr<const detail::IndexRouting>
detail::fitRouting(const ProfileStore &Store, const RoutingOptions &Options,
                   size_t Threads) {
  auto R = std::make_shared<IndexRouting>();
  R->Options = Options;
  R->Router = ClusterRouter::build(Store, Options.Cluster, Threads);
  R->Inverted =
      InvertedIndex::build(Store, R->Router.assignments(),
                           R->Router.numCentroids(), Options.MaxDocFrequency);
  R->Quant = shortlistStore(Options, Store);
  return R;
}

void ProfileIndex::buildRouting(const RoutingOptions &Options, size_t Threads) {
  Routing = detail::fitRouting(Store, Options, Threads);
  // The sidecar rides on the store too, so save() writes it.
  if (Routing->Quant)
    Store.adoptQuantized(Routing->Quant);
}

void ProfileIndex::clearRouting() { Routing.reset(); }

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
  R->Quant = shortlistStore(R->Options, Store);
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
