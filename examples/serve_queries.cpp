//===- examples/serve_queries.cpp - concurrent serving demo ----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The serving layer under live traffic: writer threads ingest (and
// occasionally remove) corpus profiles through an IndexService while
// reader threads answer top-k queries the whole time — the mutable-
// corpus workload a bare ProfileStore arena cannot survive, because an
// append invalidates every outstanding view.
//
// Every reader works off immutable snapshots: queries taken mid-ingest
// re-verify against their own snapshot at the end, demonstrating that
// a snapshot's answers never change once taken. After the churn the
// service compacts, saves one flat image per shard, and restarts
// itself from those files by mapping them.
//
//   $ ./serve_queries
//   $ ./serve_queries --writers 4 --readers 4 --shards 16 --k 5
//   $ ./serve_queries --dir /tmp/kast_shards
//
//===----------------------------------------------------------------------===//

#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "runtime/QueryServer.h"
#include "util/StringUtil.h"
#include "util/TextTable.h"
#include "workloads/DatasetBuilder.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <optional>
#include <thread>
#include <vector>

using namespace kast;

int main(int ArgC, char **ArgV) {
  size_t Writers = 2;
  size_t Readers = 2;
  size_t Shards = 8;
  size_t TopK = 3;
  std::string Dir = std::filesystem::temp_directory_path().string() +
                    "/kast_serve_queries";
  for (int I = 1; I < ArgC; ++I) {
    std::string Arg = ArgV[I];
    std::optional<uint64_t> N;
    if (I + 1 < ArgC)
      N = parseUnsigned(ArgV[I + 1]);
    if (Arg == "--writers" && N) {
      Writers = static_cast<size_t>(*N), ++I;
    } else if (Arg == "--readers" && N) {
      Readers = static_cast<size_t>(*N), ++I;
    } else if (Arg == "--shards" && N) {
      Shards = static_cast<size_t>(*N), ++I;
    } else if (Arg == "--k" && N) {
      TopK = static_cast<size_t>(*N), ++I;
    } else if (Arg == "--dir" && I + 1 < ArgC) {
      Dir = ArgV[++I];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--writers N] [--readers N] [--shards N] "
                   "[--k N] [--dir PATH]\n",
                   ArgV[0]);
      return 2;
    }
  }

  // The paper's corpus, profiled once up front; the last copy of every
  // base is the query stream, the rest is the ingest stream.
  CorpusOptions Shape;
  LabeledDataset Data =
      convertCorpus(Pipeline::withBytes(), generateCorpus(Shape));
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  const std::string HeldOutSuffix = "." + std::to_string(Shape.CopiesPerBase);

  struct Entry {
    std::string Name;
    std::string Label;
    KernelProfile Profile;
  };
  std::vector<Entry> Ingest;
  std::vector<Entry> QueryStream;
  for (size_t I = 0; I < Data.size(); ++I) {
    Entry E{Data.string(I).name(), Data.label(I),
            Kernel.profile(Data.string(I))};
    (endsWith(E.Name, HeldOutSuffix) ? QueryStream : Ingest)
        .push_back(std::move(E));
  }
  std::printf("corpus: %zu to ingest, %zu held out as queries\n",
              Ingest.size(), QueryStream.size());

  IndexServiceOptions Options;
  Options.Shards = Shards;
  IndexService Service(Kernel.name(), Options);

  // Writers split the ingest stream; every 10th entry of a writer's
  // slice is removed again two adds later, so tombstones are part of
  // the traffic. Readers hammer snapshots until the ingest finishes,
  // each retaining its last mid-churn observation for the final
  // isolation check.
  std::atomic<size_t> WritersDone{0};
  std::atomic<size_t> QueriesServed{0};
  struct Observation {
    IndexSnapshot Snap;
    std::vector<std::vector<ServiceHit>> Results;
  };
  std::vector<Observation> Observed(Readers);
  std::vector<KernelProfile> Queries;
  for (const Entry &E : QueryStream)
    Queries.push_back(E.Profile);
  // The batch call borrows its profiles.
  std::vector<const KernelProfile *> Batch;
  for (const KernelProfile &Q : Queries)
    Batch.push_back(&Q);

  std::vector<std::thread> Threads;
  for (size_t W = 0; W < Writers; ++W) {
    Threads.emplace_back([&, W] {
      for (size_t I = W; I < Ingest.size(); I += Writers) {
        Service.add(Ingest[I].Name, Ingest[I].Label, Ingest[I].Profile);
        if ((I / Writers) % 10 == 9)
          Service.remove(Ingest[I - 2 * Writers].Name);
      }
      WritersDone.fetch_add(1);
    });
  }
  for (size_t R = 0; R < Readers; ++R) {
    Threads.emplace_back([&, R] {
      do {
        IndexSnapshot Snap = Service.snapshot();
        Observed[R] = {Snap, Snap.queryBatch(Batch, TopK)};
        QueriesServed.fetch_add(Queries.size());
      } while (WritersDone.load() < Writers);
    });
  }
  for (std::thread &T : Threads)
    T.join();

  size_t Consistent = 0;
  for (const Observation &O : Observed)
    Consistent += O.Snap.queryBatch(Batch, TopK) == O.Results;
  std::printf("served %zu queries across %zu readers during ingest; "
              "%zu/%zu retained snapshots re-answer identically\n",
              QueriesServed.load(), Readers, Consistent, Observed.size());

  // Quiesced accuracy over the final corpus, through one snapshot.
  IndexSnapshot Final = Service.snapshot();
  std::vector<std::vector<ServiceHit>> Hits = Final.queryBatch(Batch, TopK);
  TextTable Table;
  Table.setHeader({"query", "label", "nearest", "cosine", "predicted", "ok"});
  size_t Correct = 0;
  for (size_t Q = 0; Q < Queries.size(); ++Q) {
    std::string Nearest, Sim;
    if (!Hits[Q].empty()) {
      Nearest = Hits[Q][0].Name;
      Sim = formatDouble(Hits[Q][0].Similarity, 3);
    }
    std::string Predicted = IndexSnapshot::majorityLabel(Hits[Q]);
    bool Ok = Predicted == QueryStream[Q].Label;
    Correct += Ok;
    Table.addRow({QueryStream[Q].Name, QueryStream[Q].Label, Nearest, Sim,
                  Predicted, Ok ? "yes" : "NO"});
  }
  std::printf("%s", Table.render().c_str());
  std::printf("\n%zu/%zu held-out traces matched their category "
              "(top-%zu majority, %zu live of %zu scanned entries "
              "across %zu shards; the gap is tombstone debt compact() "
              "reclaims)\n",
              Correct, Queries.size(), TopK, Final.size(),
              Final.entryCount(), Service.shardCount());

  // Compact (drop tombstones), persist one page-aligned flat image
  // per shard ("shard-NNN.kfi"), and restart a second service from the
  // files — the crash-recovery path a long-lived serving process
  // depends on. The restore maps the images, so the restored service
  // serves straight off the page cache.
  Service.compact();
  if (Status S = writeShardedProfileImages(Service.toShardCaches(), Dir);
      !S) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return 1;
  }
  Expected<std::vector<ProfileStoreCache>> Images =
      loadShardedProfileImages(Dir, Kernel.name());
  if (!Images) {
    std::fprintf(stderr, "error: %s\n", Images.message().c_str());
    return 1;
  }
  size_t Mapped = 0;
  for (const ProfileStoreCache &Image : *Images)
    Mapped += Image.Store.isMapped();
  const size_t ImageCount = Images->size();
  Expected<IndexService> Restored =
      IndexService::fromShardCaches(Images.take());
  if (!Restored) {
    std::fprintf(stderr, "error: %s\n", Restored.message().c_str());
    return 1;
  }
  // Hits was computed from Final above, and a snapshot's answers never
  // change — no need to re-score the original side of the comparison.
  bool Identical = Restored->snapshot().queryBatch(Batch, TopK) == Hits;
  std::printf("restart: %zu entries from %zu flat images (%zu mmapped) in "
              "%s; answers %s\n",
              Restored->size(), ImageCount, Mapped, Dir.c_str(),
              Identical ? "identical" : "DIFFER (bug!)");

  // The async batched runtime over the same service: an open-loop
  // client pipelines the query stream through QueryServer's bounded
  // queue while a churn writer mixes adds and removes into the same
  // corpus — the three-way add/remove/query workload a serving tier
  // actually faces. The admission batcher drains the queue into
  // MaxBatch-sized dispatches, each executed against one snapshot;
  // the server's lock-free histograms provide the latency ladder.
  QueryServerOptions ServerOptions;
  ServerOptions.MaxBatch = 16;
  ServerOptions.QueueCapacity = 256;
  ServerOptions.ExecThreads = 1;
  QueryServer Server(Service, ServerOptions);

  std::atomic<bool> ChurnStop{false};
  std::atomic<size_t> ChurnOps{0};
  std::thread Churn([&] {
    constexpr size_t Window = 64;
    size_t I = 0;
    while (!ChurnStop.load(std::memory_order_relaxed)) {
      const Entry &E = Ingest[I % Ingest.size()];
      Service.add(E.Name + "~rt" + std::to_string(I), E.Label, E.Profile);
      if (I >= Window)
        Service.remove(Ingest[(I - Window) % Ingest.size()].Name + "~rt" +
                       std::to_string(I - Window));
      ChurnOps.fetch_add(2, std::memory_order_relaxed);
      ++I;
      std::this_thread::yield();
    }
  });

  constexpr size_t Rounds = 50;
  size_t Served = 0;
  std::vector<std::future<QueryResponse>> Futures;
  for (size_t Round = 0; Round < Rounds; ++Round) {
    Futures.clear();
    for (const KernelProfile &Q : Queries)
      Futures.push_back(Server.submitBorrowed(Q, TopK));
    for (std::future<QueryResponse> &F : Futures)
      Served += F.get().Status == ServeStatus::Ok;
  }
  ChurnStop.store(true, std::memory_order_relaxed);
  Churn.join();

  // Writer stopped and queue drained: one more window through the
  // server must bit-match the synchronous path — the runtime promises
  // asynchrony changes scheduling, never answers.
  Futures.clear();
  for (const KernelProfile &Q : Queries)
    Futures.push_back(Server.submitBorrowed(Q, TopK));
  std::vector<std::vector<ServiceHit>> Async;
  for (std::future<QueryResponse> &F : Futures)
    Async.push_back(F.get().Hits);
  bool AsyncIdentical = Async == Service.snapshot().queryBatch(Batch, TopK);
  Server.shutdown();

  const ServerStats::Snapshot Stats = Server.stats().snapshot();
  const size_t Expected = (Rounds + 1) * Queries.size();
  bool LedgerOk = Stats.Submitted == Expected &&
                  Stats.Completed == Expected && Stats.Rejected == 0;
  std::printf("\nasync runtime: served %zu queries in %llu batches "
              "(mean %.1f/batch) against %zu concurrent writer ops; "
              "answers %s\n",
              Served + Queries.size(),
              static_cast<unsigned long long>(Stats.Batches),
              Stats.BatchSize.Mean, ChurnOps.load(),
              AsyncIdentical ? "bit-match the synchronous path"
                             : "DIFFER from synchronous (bug!)");
  TextTable Latency;
  Latency.setHeader({"stage", "p50", "p95", "p99", "max"});
  const auto Row = [&](const char *Stage, const HistogramSummary &H) {
    Latency.addRow({Stage, ServerStats::formatNanos(H.P50),
                    ServerStats::formatNanos(H.P95),
                    ServerStats::formatNanos(H.P99),
                    ServerStats::formatNanos(H.Max)});
  };
  Row("queue wait", Stats.QueueWaitNs);
  Row("execute", Stats.ExecuteNs);
  Row("total", Stats.TotalNs);
  std::printf("%s", Latency.render().c_str());

  // All headline claims gate the exit code, so a CI smoke run of the
  // demo fails if snapshot isolation, the restart, or the async
  // runtime's exactness contract breaks.
  return Identical && Consistent == Observed.size() &&
                 AsyncIdentical && LedgerOk &&
                 Served == Rounds * Queries.size()
             ? 0
             : 1;
}
