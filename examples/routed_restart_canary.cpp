//===- examples/routed_restart_canary.cpp - rebuild-free restart gate ------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// CI gate for the arena-backed routing restart path. Fits a routed
// service over the paper's corpus, persists it as flat images whose
// routing arenas are first-class sections, restores from those images,
// and exits non-zero unless
//
//   (a) the restore performed zero k-means fits and zero posting-list
//       rebuilds — measured through the library's probe counters, so a
//       regression that quietly reintroduces a rebuild on the restart
//       path fails the job rather than just slowing it down, and
//   (b) the restored service, routed exhaustively (pure-defaults
//       pruning, every centroid probed), answers with recall@5 of
//       exactly 1.0 against its own exact scan — the bit-identity
//       contract of the candidate-generation tier, on the mapped
//       arenas this time.
//
//   $ ./routed_restart_canary
//   $ ./routed_restart_canary --shards 4 --dir /tmp/kast_canary
//
//===----------------------------------------------------------------------===//

#include "core/FlatImage.h"
#include "index/ClusterRouter.h"
#include "index/IndexService.h"
#include "index/InvertedIndex.h"
#include "kernels/SpectrumKernels.h"
#include "util/StringUtil.h"
#include "workloads/DatasetBuilder.h"

#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace kast;

int main(int ArgC, char **ArgV) {
  size_t Shards = 4;
  std::string Dir = std::filesystem::temp_directory_path().string() +
                    "/kast_routed_restart_canary";
  for (int I = 1; I < ArgC; ++I) {
    std::string Arg = ArgV[I];
    std::optional<uint64_t> N;
    if (I + 1 < ArgC)
      N = parseUnsigned(ArgV[I + 1]);
    if (Arg == "--shards" && N) {
      Shards = static_cast<size_t>(*N), ++I;
    } else if (Arg == "--dir" && I + 1 < ArgC) {
      Dir = ArgV[++I];
    } else {
      std::fprintf(stderr, "usage: %s [--shards N] [--dir PATH]\n", ArgV[0]);
      return 2;
    }
  }

  LabeledDataset Data =
      convertCorpus(Pipeline::withBytes(), generateCorpus(CorpusOptions()));
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);

  IndexServiceOptions SvcOpts;
  SvcOpts.Shards = Shards;
  IndexService Service(Kernel.name(), SvcOpts);
  for (size_t I = 0; I < Data.size(); ++I)
    Service.add(Data.string(I).name(), Data.label(I),
                Kernel.profile(Data.string(I)));

  // Pure-defaults pruning: exhaustive mode, where the routed path is
  // bit-identical to the exact scan by contract.
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 8;
  Service.rebuildRouting(Route);

  std::filesystem::create_directories(Dir);
  if (Status S = writeShardedProfileImages(Service.toShardCaches(), Dir); !S) {
    std::fprintf(stderr, "save failed: %s\n", S.message().c_str());
    return 1;
  }

  // The restart under test: open the images, adopt the mapped arenas.
  const uint64_t Fits = kmeansFitCount();
  const uint64_t Rebuilds = postingRebuildCount();
  Expected<std::vector<ProfileStoreCache>> Caches =
      loadShardedProfileImages(Dir, Kernel.name());
  if (!Caches) {
    std::fprintf(stderr, "load failed: %s\n", Caches.message().c_str());
    return 1;
  }
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Caches.take(), SvcOpts);
  if (!Restored) {
    std::fprintf(stderr, "restore failed: %s\n", Restored.message().c_str());
    return 1;
  }
  const uint64_t FitDelta = kmeansFitCount() - Fits;
  const uint64_t RebuildDelta = postingRebuildCount() - Rebuilds;
  const size_t Routed = Restored->snapshot().routedShardCount();

  if (Routed != Shards) {
    std::fprintf(stderr, "only %zu of %zu shards restored routed\n", Routed,
                 Shards);
    return 1;
  }
  if (FitDelta != 0 || RebuildDelta != 0) {
    std::fprintf(stderr,
                 "restore was not rebuild-free: %llu k-means fits, %llu "
                 "posting rebuilds\n",
                 static_cast<unsigned long long>(FitDelta),
                 static_cast<unsigned long long>(RebuildDelta));
    return 1;
  }

  // Exhaustive recall@5 on the restored service, against its own exact
  // scan: exactly 1.0 or the mapped arenas are wrong.
  size_t Queries = 0, Misses = 0;
  for (size_t I = 0; I < Data.size(); I += 7) {
    KernelProfile Q = Kernel.profile(Data.string(I));
    std::set<std::string> Exact;
    for (const ServiceHit &H : Restored->query(Q, 5, true, 1))
      Exact.insert(H.Name);
    for (const ServiceHit &H : Restored->queryApprox(Q, 5, true, 0, 1))
      Misses += Exact.erase(H.Name) == 0;
    Misses += Exact.size();
    ++Queries;
  }
  if (Misses != 0) {
    std::fprintf(stderr,
                 "exhaustive routed recall@5 < 1.0: %zu mismatches over %zu "
                 "queries\n",
                 Misses, Queries);
    return 1;
  }

  std::printf("routed_restart_canary: shards=%zu entries=%zu fits=0 "
              "posting_rebuilds=0 recall5_exhaustive=1.0 (%zu queries)\n",
              Shards, Data.size(), Queries);
  return 0;
}
