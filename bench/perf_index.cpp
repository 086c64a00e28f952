//===- bench/perf_index.cpp - retrieval-scale growth benchmarks ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The corpus-growth story in numbers: extending an existing Gram matrix
// with KernelMatrix::appendRows versus recomputing it from scratch,
// top-k index queries (single and batched over the ProfileStore arena)
// versus the full-matrix detour they replace, and restarts from flat
// images. Args are {N, M}: N already-indexed strings, M arriving ones.
//
// Every corpus string is named "c<i>", so a sharded service spreads its
// entries over all shards by name hash. Rows that time one index
// without sharding build a one-shard service ({.Shards = 1}).
//
//===----------------------------------------------------------------------===//

#include "core/KernelMatrix.h"
#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"

#include <benchmark/benchmark.h>

#include <unistd.h>
#ifdef __linux__
#include <sys/wait.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

using namespace kast;

namespace {

WeightedString randomString(const std::shared_ptr<TokenTable> &Table,
                            Rng &R, size_t Length, uint32_t Alphabet) {
  WeightedString S(Table);
  for (size_t I = 0; I < Length; ++I)
    S.append("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
             R.uniformInt(1, 16));
  return S;
}

/// Random corpus of N strings (length 64, alphabet 12) named "c<i>";
/// one per size.
const std::vector<WeightedString> &randomCorpus(size_t N) {
  static auto Table = TokenTable::create();
  static std::map<size_t, std::vector<WeightedString>> Cache;
  auto [It, Inserted] = Cache.try_emplace(N);
  if (Inserted) {
    Rng R(N * 7919 + 13);
    for (size_t I = 0; I < N; ++I) {
      It->second.push_back(randomString(Table, R, 64, 12));
      It->second.back().setName("c" + std::to_string(I));
    }
  }
  return It->second;
}

BlendedSpectrumKernel &kernel() {
  static BlendedSpectrumKernel K(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  return K;
}

/// A service over Corpus[0, N), built by add() (untimed set-up).
IndexService serviceOver(const std::vector<WeightedString> &Corpus, size_t N,
                         IndexServiceOptions Options = {}) {
  IndexService Service(kernel().name(), Options);
  for (size_t I = 0; I < N; ++I)
    Service.add(Corpus[I].name(), "", kernel().profile(Corpus[I]));
  return Service;
}

/// Growing an N-string Gram by M rows: only the N·M + M(M+1)/2 new
/// entries are evaluated; the base build runs outside the timed region.
void BM_GramAppendRows(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const size_t M = static_cast<size_t>(State.range(1));
  const std::vector<WeightedString> &All = randomCorpus(N + M);
  std::vector<WeightedString> Base(All.begin(), All.begin() + N);
  std::vector<WeightedString> Extra(All.begin() + N, All.end());
  for (auto _ : State) {
    State.PauseTiming();
    KernelMatrix Gram(kernel(), {});
    Gram.appendRows(Base);
    State.ResumeTiming();
    Gram.appendRows(Extra);
    benchmark::DoNotOptimize(Gram.raw().data().data());
  }
}
BENCHMARK(BM_GramAppendRows)
    ->Args({96, 32})
    ->Args({256, 32})
    ->Args({1024, 32})
    ->Unit(benchmark::kMillisecond);

/// The alternative appendRows replaces: recomputing the whole
/// (N+M)×(N+M) matrix when M strings arrive.
void BM_GramRecomputeAfterArrival(benchmark::State &State) {
  const std::vector<WeightedString> &All =
      randomCorpus(static_cast<size_t>(State.range(0)) +
                   static_cast<size_t>(State.range(1)));
  KernelMatrixOptions Options;
  Options.Normalize = false;
  for (auto _ : State)
    benchmark::DoNotOptimize(computeKernelMatrix(kernel(), All, Options));
}
BENCHMARK(BM_GramRecomputeAfterArrival)
    ->Args({96, 32})
    ->Args({256, 32})
    ->Args({1024, 32})
    ->Unit(benchmark::kMillisecond);

/// One top-k query against an N-string one-shard index: O(N · dot),
/// the retrieval hot path.
void BM_IndexQueryTop5(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const std::vector<WeightedString> &Corpus = randomCorpus(N + 1);
  IndexService Index = serviceOver(Corpus, N, {.Shards = 1});
  KernelProfile Query = kernel().profile(Corpus[N]);
  for (auto _ : State)
    benchmark::DoNotOptimize(Index.query(Query, 5, true, 1));
}
BENCHMARK(BM_IndexQueryTop5)->Arg(128)->Arg(1024)->Arg(8192);

/// Batched top-k queries over the arena: Args are {N, B} — B queries
/// against an N-string one-shard index through queryBatch, which scores
/// views straight off the store's flat hash/value arrays and keeps a
/// K-hit selection per query, reusing each worker chunk's scratch
/// across the whole batch.
void BM_IndexQueryBatchTop5(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const size_t B = static_cast<size_t>(State.range(1));
  const std::vector<WeightedString> &Corpus = randomCorpus(N + B);
  const IndexSnapshot Index = serviceOver(Corpus, N, {.Shards = 1}).snapshot();
  std::vector<KernelProfile> Queries;
  std::vector<const KernelProfile *> Borrowed;
  for (size_t I = 0; I < B; ++I)
    Queries.push_back(kernel().profile(Corpus[N + I]));
  for (const KernelProfile &Q : Queries)
    Borrowed.push_back(&Q);
  for (auto _ : State)
    benchmark::DoNotOptimize(Index.queryBatch(Borrowed, 5));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(B));
}
BENCHMARK(BM_IndexQueryBatchTop5)
    ->Args({1024, 64})
    ->Args({8192, 64})
    ->Unit(benchmark::kMillisecond);

/// Clustered corpus for the routed benchmarks: a handful of base
/// strings, each entry a point mutation of its base (~25% of
/// positions resampled). Cosine neighborhoods are the sibling groups
/// — the structure a cluster router exists to exploit; uniform-random
/// strings have no neighborhoods to route to. Same length, alphabet
/// and weight range as randomCorpus, so per-profile scan cost (and
/// hence the exact-scan baseline) is unchanged. Entries are named
/// "c<i>".
const std::vector<WeightedString> &clusteredCorpus(size_t N) {
  static auto Table = TokenTable::create();
  static std::map<size_t, std::vector<WeightedString>> Cache;
  auto [It, Inserted] = Cache.try_emplace(N);
  if (Inserted) {
    Rng R(N * 104729 + 7);
    const size_t NumBases =
        std::max<size_t>(8, std::min<size_t>(64, N / 16));
    constexpr size_t Length = 64;
    constexpr uint32_t Alphabet = 12;
    using TokenSeq = std::vector<std::pair<std::string, uint32_t>>;
    std::vector<TokenSeq> Bases(NumBases);
    for (TokenSeq &Base : Bases)
      for (size_t I = 0; I < Length; ++I)
        Base.emplace_back("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
                          R.uniformInt(1, 16));
    for (size_t I = 0; I < N; ++I) {
      TokenSeq Seq = Bases[I % NumBases];
      for (auto &[Token, Weight] : Seq)
        if (R.uniformInt(0, 99) < 25) {
          Token = "t" + std::to_string(R.uniformInt(0, Alphabet - 1));
          Weight = R.uniformInt(1, 16);
        }
      WeightedString S(Table);
      for (const auto &[Token, Weight] : Seq)
        S.append(Token, Weight);
      S.setName("c" + std::to_string(I));
      It->second.push_back(std::move(S));
    }
  }
  return It->second;
}

/// Held-out queries per corpus size for the routed benchmarks: the
/// routed index covers Corpus[0, N) and these are Corpus[N, N+16) —
/// fresh mutations of the same bases, so every query has true near
/// neighbors to find.
constexpr size_t RoutedQueryCount = 16;

std::vector<KernelProfile> heldOutQueries(size_t N) {
  const std::vector<WeightedString> &Corpus =
      clusteredCorpus(N + RoutedQueryCount);
  std::vector<KernelProfile> Queries;
  for (size_t I = N; I < N + RoutedQueryCount; ++I)
    Queries.push_back(kernel().profile(Corpus[I]));
  return Queries;
}

/// Sweep/serving routing knobs. DfPct is MaxDocFrequency in percent;
/// the sentinel -1 requests pure defaults, i.e. exhaustive mode
/// (all centroids, no df-pruning, no re-rank budget), which is
/// bit-identical to the exact scan.
RoutingOptions sweepRouting(int DfPct) {
  RoutingOptions Options;
  if (DfPct < 0)
    return Options;
  Options.Cluster.TrainingSample = 2048;
  Options.Cluster.MaxIterations = 6;
  Options.MaxDocFrequency = static_cast<double>(DfPct) / 100.0;
  Options.RerankBudget = 96;
  Options.DefaultNProbe = 8;
  return Options;
}

/// A one-shard routed index and its fitted centroid count.
struct RoutedIndex {
  IndexService Service;
  size_t Centroids = 0;
};

/// One routed index per (N, DfPct); the k-means fit dominates setup,
/// so fitted indexes are cached across benchmark registrations.
const RoutedIndex &routedIndex(size_t N, int DfPct) {
  static std::map<std::pair<size_t, int>, std::unique_ptr<RoutedIndex>> Cache;
  std::unique_ptr<RoutedIndex> &Slot = Cache[std::make_pair(N, DfPct)];
  if (!Slot) {
    Slot = std::make_unique<RoutedIndex>(RoutedIndex{
        serviceOver(clusteredCorpus(N + RoutedQueryCount), N, {.Shards = 1})});
    Slot->Service.rebuildRouting(sweepRouting(DfPct));
    Slot->Centroids =
        Slot->Service.toShardCaches()[0].Routing->Centroids.size();
  }
  return *Slot;
}

/// Mean recall@5 of the routed path against the exact scan on the
/// same index, over the held-out query set.
double meanRecall5(const IndexService &Routed,
                   const std::vector<KernelProfile> &Queries, size_t NProbe) {
  double Sum = 0.0;
  for (const KernelProfile &Q : Queries) {
    const std::vector<ServiceHit> Exact = Routed.query(Q, 5, true, 1);
    const std::vector<ServiceHit> Approx =
        Routed.queryApprox(Q, 5, true, NProbe, 1);
    size_t Hits = 0;
    for (const ServiceHit &A : Approx)
      for (const ServiceHit &E : Exact)
        Hits += A.Name == E.Name;
    Sum += Exact.empty() ? 1.0
                         : static_cast<double>(Hits) /
                               static_cast<double>(Exact.size());
  }
  return Queries.empty() ? 1.0 : Sum / static_cast<double>(Queries.size());
}

/// The exact O(N · dot) scan on the clustered corpus — the in-corpus
/// baseline for BM_InvertedQueryTop5 (same index, same query). Exact
/// scan cost only depends on profile sizes, not corpus shape, so this
/// tracks BM_IndexQueryTop5 closely; it pins the speedup comparison
/// to identical data anyway.
void BM_ClusteredExactQueryTop5(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const IndexService &Routed = routedIndex(N, /*DfPct=*/100).Service;
  const KernelProfile Query = heldOutQueries(N).front();
  for (auto _ : State)
    benchmark::DoNotOptimize(Routed.query(Query, 5, true, 1));
}
BENCHMARK(BM_ClusteredExactQueryTop5)->Arg(128)->Arg(1024)->Arg(8192);

/// One top-5 query through the candidate-generation tier (cluster
/// routing + df-pruned inverted index + exact re-rank) — the routed
/// counterpart of BM_IndexQueryTop5. Counters carry the measured
/// recall@5 against the exact scan at the serving knobs, and at
/// nprobe = numCentroids on a pure-defaults routing where bit-identity
/// guarantees exactly 1.0 — the CI canary greps for that counter.
void BM_InvertedQueryTop5(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const RoutedIndex &Routed = routedIndex(N, /*DfPct=*/100);
  const RoutedIndex &Exhaustive = routedIndex(N, /*DfPct=*/-1);
  const std::vector<KernelProfile> Queries = heldOutQueries(N);
  const double Recall = meanRecall5(Routed.Service, Queries, /*NProbe=*/0);
  const double ExhaustiveRecall =
      meanRecall5(Exhaustive.Service, Queries, Exhaustive.Centroids);
  const KernelProfile &Query = Queries.front();
  for (auto _ : State)
    benchmark::DoNotOptimize(Routed.Service.queryApprox(Query, 5, true, 0, 1));
  State.counters["recall5"] = benchmark::Counter(Recall);
  State.counters["recall5_exhaustive"] = benchmark::Counter(ExhaustiveRecall);
  State.counters["centroids"] =
      benchmark::Counter(static_cast<double>(Routed.Centroids));
}
BENCHMARK(BM_InvertedQueryTop5)->Arg(128)->Arg(1024)->Arg(8192);

/// Recall@5-vs-latency sweep across the two pruning knobs at N=8192:
/// Args are {nprobe, df-percent}; nprobe 0 means all centroids. Each
/// row's recall5 counter is measured against the exact scan over the
/// held-out queries, so BENCH_index.json carries the accuracy/speed
/// frontier next to the timings.
void BM_InvertedRecallSweep(benchmark::State &State) {
  const size_t N = 8192;
  const int DfPct = static_cast<int>(State.range(1));
  const RoutedIndex &Routed = routedIndex(N, DfPct);
  const size_t NProbe = State.range(0) != 0
                            ? static_cast<size_t>(State.range(0))
                            : Routed.Centroids;
  const std::vector<KernelProfile> Queries = heldOutQueries(N);
  const double Recall = meanRecall5(Routed.Service, Queries, NProbe);
  const KernelProfile &Query = Queries.front();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Routed.Service.queryApprox(Query, 5, true, NProbe, 1));
  State.counters["recall5"] = benchmark::Counter(Recall);
  State.counters["nprobe"] =
      benchmark::Counter(static_cast<double>(NProbe));
  State.counters["df_pct"] = benchmark::Counter(static_cast<double>(DfPct));
}
BENCHMARK(BM_InvertedRecallSweep)
    ->ArgNames({"nprobe", "dfpct"})
    ->Args({1, 100})
    ->Args({2, 100})
    ->Args({4, 100})
    ->Args({8, 100})
    ->Args({16, 100})
    ->Args({0, 100})
    ->Args({1, 50})
    ->Args({2, 50})
    ->Args({4, 50})
    ->Args({8, 50})
    ->Args({16, 50})
    ->Args({0, 50})
    ->Args({1, 10})
    ->Args({2, 10})
    ->Args({4, 10})
    ->Args({8, 10})
    ->Args({16, 10})
    ->Args({0, 10});

/// Query latency *during* concurrent ingest — the serving-layer claim
/// in one number. An IndexService starts with N entries; a background
/// writer thread appends continuously (removing every 8th of its own
/// adds) for the whole measurement, while the timed loop runs top-5
/// queries through fresh snapshots. Compare against BM_IndexQueryTop5
/// at the same N: the gap is the cost of snapshot isolation plus
/// whatever cache pressure the writer induces. A bare ProfileStore
/// arena cannot run this benchmark at all — an append invalidates the
/// views a concurrent query is scanning.
void BM_ServiceQueryWhileAppend(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const std::vector<WeightedString> &Corpus = randomCorpus(N + 1);
  IndexService Service = serviceOver(Corpus, N);
  KernelProfile Query = kernel().profile(Corpus[N]);

  // The ingest stream reuses pre-built profiles round-robin under
  // fresh names (publish cost, not profile construction), holds the
  // live set bounded with a ring of removals so every timed query
  // scans a fixed-size corpus, and compacts periodically so tombstone
  // accumulation stays bounded too — the shape a real serving loop
  // has, and the shape that makes the measurement stable.
  std::vector<KernelProfile> IngestPool;
  for (size_t I = 0; I < std::min<size_t>(N, 256); ++I)
    IngestPool.push_back(kernel().profile(Corpus[I]));
  constexpr size_t IngestWindow = 256;
  std::atomic<bool> Stop{false};
  std::atomic<size_t> Appended{0};
  std::thread Writer([&] {
    size_t I = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      Service.add("in" + std::to_string(I), "ingest",
                  IngestPool[I % IngestPool.size()]);
      if (I >= IngestWindow)
        Service.remove("in" + std::to_string(I - IngestWindow));
      if (I % 2048 == 2047)
        Service.compact(1);
      ++I;
      Appended.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (auto _ : State)
    benchmark::DoNotOptimize(Service.query(Query, 5, true, 1));
  Stop.store(true);
  Writer.join();
  State.counters["appends"] =
      benchmark::Counter(static_cast<double>(Appended.load()));
}
BENCHMARK(BM_ServiceQueryWhileAppend)->Arg(1024)->Arg(8192);

/// The quiesced baseline for the same service: identical snapshot
/// query machinery, no writer running.
void BM_ServiceQueryQuiesced(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const std::vector<WeightedString> &Corpus = randomCorpus(N + 1);
  IndexService Service = serviceOver(Corpus, N);
  KernelProfile Query = kernel().profile(Corpus[N]);
  for (auto _ : State)
    benchmark::DoNotOptimize(Service.query(Query, 5, true, 1));
}
BENCHMARK(BM_ServiceQueryQuiesced)->Arg(1024)->Arg(8192);

/// Per-process restart scratch directories, written once per N and
/// removed at process exit. The write happens outside the
/// timed region; the benchmark measures the *reader's* path.
struct RestartDirs {
  std::map<std::string, bool> Ready;
  ~RestartDirs() {
    std::error_code Ec;
    for (const auto &[Dir, Ok] : Ready)
      std::filesystem::remove_all(Dir, Ec);
  }
};

/// Restart-to-first-answer: everything a serving process does between
/// exec and its first top-5 response — open the persisted shard
/// images, restore an IndexService, answer one query. The open
/// validates headers and O(N) metadata, mmaps the entry arrays, and
/// faults in only the pages the first query touches — so it stays
/// roughly flat as N grows.
void BM_RestartToFirstQuery(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const std::vector<WeightedString> &Corpus = randomCorpus(N + 1);
  const std::string Dir = "/tmp/kast_perf_index_restart." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(N);
  static RestartDirs Dirs;
  if (!Dirs.Ready.count(Dir)) {
    IndexService Service = serviceOver(Corpus, N);
    Status S = writeShardedProfileImages(Service.toShardCaches(), Dir);
    if (!S) {
      State.SkipWithError(S.message().c_str());
      return;
    }
    Dirs.Ready[Dir] = true;
  }
  const KernelProfile Query = kernel().profile(Corpus[N]);
  // The timed total is the whole restart-to-first-answer path; the
  // open/query split rides along as counters because the first top-5
  // answer is an O(N) exact scan, while the restart cost lives in
  // open_ms.
  double OpenMs = 0.0, QueryMs = 0.0;
  using Clock = std::chrono::steady_clock;
  for (auto _ : State) {
    const Clock::time_point T0 = Clock::now();
    Expected<std::vector<ProfileStoreCache>> Caches =
        loadShardedProfileImages(Dir);
    if (!Caches) {
      State.SkipWithError(Caches.message().c_str());
      return;
    }
    Expected<IndexService> Service =
        IndexService::fromShardCaches(Caches.take());
    if (!Service) {
      State.SkipWithError(Service.message().c_str());
      return;
    }
    const Clock::time_point T1 = Clock::now();
    benchmark::DoNotOptimize(Service->query(Query, 5, true, 1));
    const Clock::time_point T2 = Clock::now();
    OpenMs += std::chrono::duration<double, std::milli>(T1 - T0).count();
    QueryMs += std::chrono::duration<double, std::milli>(T2 - T1).count();
  }
  State.counters["open_ms"] =
      benchmark::Counter(OpenMs, benchmark::Counter::kAvgIterations);
  State.counters["first_query_ms"] =
      benchmark::Counter(QueryMs, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RestartToFirstQuery)
    ->ArgName("n")
    ->Arg(1024)
    ->Arg(8192)
    ->Arg(32768)
    ->Unit(benchmark::kMillisecond);

/// Routed restart-to-first-routed-answer over n profiles: open flat
/// images whose routing arenas are first-class sections — validate
/// headers and O(centroids) metadata, mmap, alias; no k-means refit,
/// no posting rebuild — so the open cost stays roughly flat in N. The
/// fits / posting_rebuilds counters are per-iteration probe-counter
/// deltas pinning that claim in BENCH_index.json.
void BM_RoutedRestartToFirstQuery(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  const std::vector<WeightedString> &Corpus =
      clusteredCorpus(N + RoutedQueryCount);
  const std::string Dir = "/tmp/kast_perf_index_routed." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(N);
  static RestartDirs Dirs;
  if (!Dirs.Ready.count(Dir)) {
    IndexService Service = serviceOver(Corpus, N);
    Service.rebuildRouting(sweepRouting(/*DfPct=*/100));
    Status S = writeShardedProfileImages(Service.toShardCaches(), Dir);
    if (!S) {
      State.SkipWithError(S.message().c_str());
      return;
    }
    Dirs.Ready[Dir] = true;
  }
  const KernelProfile Query = kernel().profile(Corpus[N]);
  double OpenMs = 0.0, QueryMs = 0.0;
  const uint64_t Fits0 = kmeansFitCount();
  const uint64_t Rebuilds0 = postingRebuildCount();
  using Clock = std::chrono::steady_clock;
  for (auto _ : State) {
    const Clock::time_point T0 = Clock::now();
    Expected<std::vector<ProfileStoreCache>> Caches =
        loadShardedProfileImages(Dir);
    if (!Caches) {
      State.SkipWithError(Caches.message().c_str());
      return;
    }
    Expected<IndexService> Service =
        IndexService::fromShardCaches(Caches.take());
    if (!Service) {
      State.SkipWithError(Service.message().c_str());
      return;
    }
    const Clock::time_point T1 = Clock::now();
    benchmark::DoNotOptimize(Service->queryApprox(Query, 5, true, 0, 1));
    const Clock::time_point T2 = Clock::now();
    OpenMs += std::chrono::duration<double, std::milli>(T1 - T0).count();
    QueryMs += std::chrono::duration<double, std::milli>(T2 - T1).count();
  }
  State.counters["open_ms"] =
      benchmark::Counter(OpenMs, benchmark::Counter::kAvgIterations);
  State.counters["first_query_ms"] =
      benchmark::Counter(QueryMs, benchmark::Counter::kAvgIterations);
  State.counters["fits"] = benchmark::Counter(
      static_cast<double>(kmeansFitCount() - Fits0),
      benchmark::Counter::kAvgIterations);
  State.counters["posting_rebuilds"] = benchmark::Counter(
      static_cast<double>(postingRebuildCount() - Rebuilds0),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RoutedRestartToFirstQuery)
    ->ArgName("n")
    ->Arg(1024)
    ->Arg(8192)
    ->Arg(32768)
    ->Unit(benchmark::kMillisecond);

#ifdef __linux__
/// Rss and Pss (in KiB) that /proc/self/smaps attributes to mappings
/// of \p PathSuffix. Pss divides each shared page by its mapper count,
/// so (sum of Rss) / (sum of Pss) across processes is the page-cache
/// sharing factor.
std::pair<uint64_t, uint64_t> smapsRssPss(const std::string &PathSuffix) {
  std::FILE *F = std::fopen("/proc/self/smaps", "r");
  if (!F)
    return {0, 0};
  uint64_t Rss = 0, Pss = 0;
  bool InMapping = false;
  char Line[512];
  while (std::fgets(Line, sizeof(Line), F)) {
    std::string L(Line);
    if (!L.empty() && L.back() == '\n')
      L.pop_back();
    // Mapping headers lead with the "start-end" address range;
    // attribute lines lead with a "Key:" keyword. Every header resets
    // the in-mapping flag, so anonymous regions between matches never
    // leak into the totals.
    const size_t FirstSpace = L.find(' ');
    const bool Header = FirstSpace != std::string::npos &&
                        L.find('-') != std::string::npos &&
                        L.find('-') < FirstSpace;
    if (Header) {
      InMapping = L.size() >= PathSuffix.size() &&
                  L.compare(L.size() - PathSuffix.size(), PathSuffix.size(),
                            PathSuffix) == 0;
    } else if (InMapping &&
               (L.rfind("Rss:", 0) == 0 || L.rfind("Pss:", 0) == 0)) {
      unsigned long long KiB = 0;
      std::sscanf(L.c_str(), "%*[^0-9]%llu", &KiB);
      (L[0] == 'R' ? Rss : Pss) += KiB;
    }
  }
  std::fclose(F);
  return {Rss, Pss};
}

/// The multi-process memory claim measured directly: several processes
/// map the same flat image and touch every byte; MAP_SHARED read-only
/// mappings of one file are the same physical page-cache pages, so
/// the per-process *proportional* set (Pss) collapses while each
/// process's Rss reports the full arena. Counters: summed Rss and Pss
/// over the children in MiB, and the sharing factor between them. A
/// read-into-memory restart would instead give every process a private
/// copy: the rss_mb number per process, with no collapse.
void BM_MappedImageSharedRss(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  constexpr int Procs = 4;
  const std::vector<WeightedString> &Corpus = randomCorpus(N);
  const std::string Path =
      "/tmp/kast_perf_index_shared." +
      std::to_string(static_cast<long>(::getpid())) + ".kfi";
  {
    IndexService Service = serviceOver(Corpus, N, {.Shards = 1});
    std::vector<ProfileStoreCache> Caches = Service.toShardCaches();
    if (Status S = writeProfileStoreImageFile(Caches[0], Path); !S) {
      State.SkipWithError(S.message().c_str());
      return;
    }
  }

  uint64_t SumRss = 0, SumPss = 0;
  bool Failed = false;
  for (auto _ : State) {
    State.PauseTiming();
    SumRss = SumPss = 0;
    int Pipes[Procs][2];
    pid_t Pids[Procs];
    // Children all map the image and hold it resident while each
    // samples its own smaps — sampling must overlap, or the pages are
    // not shared at sample time. A barrier pipe releases them
    // together after the last one signals readiness.
    int Barrier[2], ReadyPipe[2];
    if (::pipe(Barrier) != 0 || ::pipe(ReadyPipe) != 0) {
      State.SkipWithError("pipe failed");
      return;
    }
    State.ResumeTiming();
    for (int P = 0; P < Procs; ++P) {
      if (::pipe(Pipes[P]) != 0) {
        State.SkipWithError("pipe failed");
        return;
      }
      Pids[P] = ::fork();
      if (Pids[P] == 0) {
        Expected<ProfileStoreCache> Cache = readProfileStoreImageFile(Path);
        uint64_t Touched = 0;
        if (Cache) {
          // Fault in every entry page.
          for (uint64_t H : Cache->Store.hashes())
            Touched += H;
          for (double V : Cache->Store.values())
            Touched += static_cast<uint64_t>(V);
        }
        benchmark::DoNotOptimize(Touched);
        char Token = 'r';
        (void)!::write(ReadyPipe[1], &Token, 1);
        (void)!::read(Barrier[0], &Token, 1); // Wait for all siblings.
        auto [Rss, Pss] = smapsRssPss(".kfi");
        uint64_t Out[2] = {Rss, Pss};
        (void)!::write(Pipes[P][1], Out, sizeof(Out));
        ::_exit(Cache ? 0 : 1);
      }
    }
    for (int P = 0; P < Procs; ++P) {
      char Token;
      if (::read(ReadyPipe[0], &Token, 1) != 1)
        Failed = true;
    }
    for (int P = 0; P < Procs; ++P) {
      char Token = 'g';
      (void)!::write(Barrier[1], &Token, 1);
    }
    for (int P = 0; P < Procs; ++P) {
      uint64_t In[2] = {0, 0};
      if (::read(Pipes[P][0], In, sizeof(In)) != sizeof(In))
        Failed = true;
      SumRss += In[0];
      SumPss += In[1];
      ::close(Pipes[P][0]);
      ::close(Pipes[P][1]);
      int WaitStatus = 0;
      ::waitpid(Pids[P], &WaitStatus, 0);
      Failed = Failed || WaitStatus != 0;
    }
    ::close(Barrier[0]);
    ::close(Barrier[1]);
    ::close(ReadyPipe[0]);
    ::close(ReadyPipe[1]);
  }
  std::remove(Path.c_str());
  if (Failed) {
    State.SkipWithError("child process failed");
    return;
  }
  State.counters["procs"] = benchmark::Counter(Procs);
  State.counters["sum_rss_mb"] =
      benchmark::Counter(static_cast<double>(SumRss) / 1024.0);
  State.counters["sum_pss_mb"] =
      benchmark::Counter(static_cast<double>(SumPss) / 1024.0);
  State.counters["share_factor"] = benchmark::Counter(
      SumPss ? static_cast<double>(SumRss) / static_cast<double>(SumPss)
             : 0.0);
}
BENCHMARK(BM_MappedImageSharedRss)->Arg(8192)->Unit(benchmark::kMillisecond);
#endif // __linux__

} // namespace

// BENCH_LARGE=1 adds the million-profile routed restart leg — minutes
// of one-time corpus/fit setup, so they are opt-in rather than part of
// the default suite the nightly job and BENCH_index.json track.
int main(int argc, char **argv) {
  if (const char *Large = std::getenv("BENCH_LARGE"); Large && Large[0] == '1')
    ::benchmark::RegisterBenchmark("BM_RoutedRestartToFirstQuery",
                                   BM_RoutedRestartToFirstQuery)
        ->ArgName("n")
        ->Arg(1000000)
        ->Unit(benchmark::kMillisecond);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
