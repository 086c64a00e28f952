//===- examples/query_similar.cpp - retrieval over a profile index ---------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The paper's fingerprint claim served as retrieval: index the corpus
// once as cached kernel profiles, then answer top-k "which programs
// does this trace behave like?" queries by sparse dot products — no
// Gram matrix, no re-profiling of the corpus.
//
// One mutated copy of every base example is held out as the query set;
// the rest is indexed in a one-shard IndexService, so ties rank by
// insertion order. With --cache the index round-trips through a
// directory of shard images (core/FlatImage), so a second run maps the
// profiles instead of computing them.
//
//   $ ./query_similar
//   $ ./query_similar --cache /tmp/kast_cache --k 5
//   $ ./query_similar --no-bytes --cut 8
//   $ ./query_similar --approx --nprobe 2
//
// With --approx the queries go through the candidate-generation tier
// (cluster router + df-pruned inverted index, exact re-rank) instead
// of the exhaustive scan, and every row reports its recall against
// the exact answer; --nprobe bounds how many centroids are probed.
//
//===----------------------------------------------------------------------===//

#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "util/StringUtil.h"
#include "util/TextTable.h"
#include "workloads/DatasetBuilder.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>

using namespace kast;

int main(int ArgC, char **ArgV) {
  uint64_t CutWeight = 2;
  size_t TopK = 3;
  bool IgnoreBytes = false;
  bool Approx = false;
  size_t NProbe = 0;
  std::string CachePath;
  for (int I = 1; I < ArgC; ++I) {
    std::string Arg = ArgV[I];
    if (Arg == "--no-bytes") {
      IgnoreBytes = true;
    } else if (Arg == "--approx") {
      Approx = true;
    } else if (Arg == "--nprobe" && I + 1 < ArgC) {
      if (std::optional<uint64_t> N = parseUnsigned(ArgV[++I]))
        NProbe = static_cast<size_t>(*N);
      Approx = true;
    } else if (Arg == "--cut" && I + 1 < ArgC) {
      if (std::optional<uint64_t> N = parseUnsigned(ArgV[++I]))
        CutWeight = *N;
    } else if (Arg == "--k" && I + 1 < ArgC) {
      if (std::optional<uint64_t> N = parseUnsigned(ArgV[++I]))
        TopK = static_cast<size_t>(*N);
    } else if (Arg == "--cache" && I + 1 < ArgC) {
      CachePath = ArgV[++I];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--cache DIR] [--k N] [--no-bytes] [--cut N] "
                   "[--approx] [--nprobe N]\n",
                   ArgV[0]);
      return 2;
    }
  }

  // The corpus: 110 examples, 5 per base ("<label><base>.<copy>", copy
  // 0 is the base). The last copy of every base is the query set.
  CorpusOptions Shape;
  Pipeline P = IgnoreBytes ? Pipeline::withoutBytes() : Pipeline::withBytes();
  LabeledDataset Data = convertCorpus(P, generateCorpus(Shape));
  const std::string HeldOutSuffix =
      "." + std::to_string(Shape.CopiesPerBase);

  std::vector<WeightedString> IndexedStrings, QueryStrings;
  std::vector<std::string> IndexedLabels, QueryLabels;
  for (size_t I = 0; I < Data.size(); ++I) {
    bool HeldOut = endsWith(Data.string(I).name(), HeldOutSuffix);
    (HeldOut ? QueryStrings : IndexedStrings).push_back(Data.string(I));
    (HeldOut ? QueryLabels : IndexedLabels).push_back(Data.label(I));
  }

  // The index needs an explicit per-string embedding, so it runs on a
  // ProfiledStringKernel (the paper's weighted blended spectrum); the
  // pair-dependent Kast kernel has no such embedding.
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, CutWeight);

  // Cache identity covers the whole profile provenance: kernel *and*
  // pipeline representation. A cache built with byte info kept must
  // not silently serve a --no-bytes run (same kernel name, different
  // strings, skewed similarities).
  const std::string CacheTag =
      Kernel.name() + (IgnoreBytes ? "|no-bytes" : "|bytes");

  IndexService Index(CacheTag, {.Shards = 1});
  bool FromCache = false;
  if (!CachePath.empty() && std::filesystem::exists(CachePath)) {
    // The loader refuses images built under any other tag.
    Expected<std::vector<ProfileStoreCache>> Caches =
        loadShardedProfileImages(CachePath, CacheTag);
    if (!Caches) {
      std::fprintf(stderr, "error: %s\n", Caches.message().c_str());
      return 1;
    }
    Expected<IndexService> Loaded =
        IndexService::fromShardCaches(Caches.take());
    if (!Loaded) {
      std::fprintf(stderr, "error: %s\n", Loaded.message().c_str());
      return 1;
    }
    Index = Loaded.take();
    FromCache = true;
  } else {
    for (size_t I = 0; I < IndexedStrings.size(); ++I)
      Index.add(IndexedStrings[I].name(), IndexedLabels[I],
                Kernel.profile(IndexedStrings[I]));
    if (!CachePath.empty()) {
      Status S = writeShardedProfileImages(Index.toShardCaches(), CachePath);
      if (!S) {
        std::fprintf(stderr, "error: %s\n", S.message().c_str());
        return 1;
      }
    }
  }
  std::printf("index: %zu profiles (%s), kernel %s\n", Index.size(),
              FromCache ? ("cache hit on " + CachePath).c_str()
                        : "built from corpus",
              Index.kernelName().c_str());

  // The approximate path needs the routing tier; modest pruning so the
  // two paths can actually diverge on this small corpus.
  if (Approx) {
    RoutingOptions Routing;
    Routing.MaxDocFrequency = 0.5;
    Routing.RerankBudget = std::max<size_t>(4 * TopK, 16);
    Routing.DefaultNProbe = NProbe;
    Index.rebuildRouting(Routing);
    // The one shard is exactly its routed segment, so its export
    // carries the fitted routing.
    const std::shared_ptr<const RoutingArenas> Fit =
        Index.toShardCaches()[0].Routing;
    const size_t Centroids = Fit ? Fit->Centroids.size() : 0;
    const std::string ProbeDesc =
        NProbe == 0 ? "all" : std::to_string(std::min(NProbe, Centroids));
    std::printf("routing: %zu centroids, probing %s per query\n", Centroids,
                ProbeDesc.c_str());
  }

  std::vector<KernelProfile> Queries;
  Queries.reserve(QueryStrings.size());
  for (const WeightedString &Q : QueryStrings)
    Queries.push_back(Kernel.profile(Q));
  std::vector<const KernelProfile *> Borrowed;
  for (const KernelProfile &Q : Queries)
    Borrowed.push_back(&Q);
  const IndexSnapshot Snap = Index.snapshot();
  std::vector<std::vector<ServiceHit>> Exact = Snap.queryBatch(Borrowed, TopK);
  std::vector<std::vector<ServiceHit>> Hits =
      Approx ? Snap.queryBatch(Borrowed, TopK, true, /*Threads=*/0,
                               /*Approx=*/true, NProbe)
             : Exact;

  TextTable Table;
  std::vector<std::string> Header = {"query",  "label",     "nearest",
                                     "cosine", "predicted", "ok"};
  if (Approx)
    Header.push_back("recall");
  Table.setHeader(Header);
  size_t Correct = 0;
  double RecallSum = 0.0;
  for (size_t Q = 0; Q < Queries.size(); ++Q) {
    std::string Nearest, Sim;
    if (!Hits[Q].empty()) {
      Nearest = Hits[Q][0].Name;
      Sim = formatDouble(Hits[Q][0].Similarity, 3);
    }
    std::string Predicted = IndexSnapshot::majorityLabel(Hits[Q]);
    bool Ok = Predicted == QueryLabels[Q];
    Correct += Ok;
    std::vector<std::string> Row = {QueryStrings[Q].name(), QueryLabels[Q],
                                    Nearest, Sim, Predicted,
                                    Ok ? "yes" : "NO"};
    if (Approx) {
      size_t Overlap = 0;
      for (const ServiceHit &A : Hits[Q])
        for (const ServiceHit &E : Exact[Q])
          Overlap += A.Name == E.Name;
      double Recall = Exact[Q].empty()
                          ? 1.0
                          : static_cast<double>(Overlap) /
                                static_cast<double>(Exact[Q].size());
      RecallSum += Recall;
      Row.push_back(formatDouble(Recall, 2));
    }
    Table.addRow(Row);
  }
  std::printf("%s", Table.render().c_str());
  std::printf("\n%zu/%zu held-out traces matched their category via "
              "top-%zu majority vote\n",
              Correct, Queries.size(), TopK);
  if (Approx && !Queries.empty())
    std::printf("mean recall@%zu vs exact scan: %s\n", TopK,
                formatDouble(RecallSum / static_cast<double>(Queries.size()),
                             3)
                    .c_str());
  return 0;
}
