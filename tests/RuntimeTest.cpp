//===- tests/RuntimeTest.cpp - async serving runtime unit tests ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The serving-runtime contracts: the lock-free histograms bracket
// their percentiles, and — above all — the QueryServer's async batched
// answers are bit-identical (scores, order, tie-breaks) to synchronous
// snapshot queries, with backpressure and shutdown behaving exactly as
// documented, even when submitters race shutdown().
//
//===----------------------------------------------------------------------===//

#include "runtime/QueryServer.h"
#include "runtime/ServerStats.h"

#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

using namespace kast;

namespace {

WeightedString randomString(const std::shared_ptr<TokenTable> &Table, Rng &R,
                            size_t Length, uint32_t Alphabet) {
  WeightedString S(Table);
  for (size_t I = 0; I < Length; ++I)
    S.append("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
             R.uniformInt(1, 16));
  return S;
}

BlendedSpectrumKernel &kernel() {
  static BlendedSpectrumKernel K(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  return K;
}

/// A small populated service plus query probes, shared test fixture
/// material. Labels cycle so majority-vote paths stay exercised.
struct ServedCorpus {
  IndexService Service;
  std::vector<KernelProfile> Queries;
};

ServedCorpus makeCorpus(size_t N, size_t NumQueries, uint64_t Seed,
                        IndexServiceOptions Opts = {}) {
  Rng R(Seed);
  auto Table = TokenTable::create();
  ServedCorpus Out{IndexService(kernel().name(), Opts), {}};
  const char *Cycle[] = {"a", "b", "c"};
  for (size_t I = 0; I < N; ++I)
    Out.Service.add("p" + std::to_string(I), Cycle[I % 3],
                    kernel().profile(randomString(Table, R,
                                                  R.uniformInt(4, 24), 6)));
  for (size_t I = 0; I < NumQueries; ++I)
    Out.Queries.push_back(
        kernel().profile(randomString(Table, R, R.uniformInt(4, 24), 6)));
  return Out;
}

void expectBitIdentical(const std::vector<ServiceHit> &Got,
                        const std::vector<ServiceHit> &Want,
                        const std::string &What) {
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_EQ(Got[I].Name, Want[I].Name) << What << " hit " << I;
    EXPECT_EQ(Got[I].Label, Want[I].Label) << What << " hit " << I;
    EXPECT_EQ(Got[I].Similarity, Want[I].Similarity) << What << " hit " << I;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// ServerStats
//===----------------------------------------------------------------------===//

TEST(ServerStatsTest, EmptyHistogram) {
  LatencyHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.percentile(0.5), 0.0);
  HistogramSummary S = H.summarize();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.P99, 0.0);
}

// Percentiles come back as the containing bucket's upper boundary:
// never below the true percentile, and within the sub-bucket width
// (6.25%) above it.
TEST(ServerStatsTest, PercentilesBracketTruth) {
  LatencyHistogram H;
  for (uint64_t V = 1; V <= 10000; ++V)
    H.record(V);
  HistogramSummary S = H.summarize();
  EXPECT_EQ(S.Count, 10000u);
  EXPECT_NEAR(S.Mean, 5000.5, 1.0);
  EXPECT_EQ(S.Max, 10000.0);
  EXPECT_GE(S.P50, 5000.0);
  EXPECT_LE(S.P50, 5000.0 * 1.0625 + 1);
  EXPECT_GE(S.P95, 9500.0);
  EXPECT_LE(S.P95, 9500.0 * 1.0625 + 1);
  EXPECT_GE(S.P99, 9900.0);
  EXPECT_LE(S.P99, 9900.0 * 1.0625 + 1);
  EXPECT_LE(S.P50, S.P95);
  EXPECT_LE(S.P95, S.P99);
}

TEST(ServerStatsTest, SmallValuesAreExact) {
  LatencyHistogram H;
  for (uint64_t V : {0, 1, 2, 3, 7, 15})
    H.record(V);
  EXPECT_EQ(H.percentile(1.0), 15.0); // Octave 0 buckets are exact.
  EXPECT_EQ(H.percentile(0.01), 0.0);
}

TEST(ServerStatsTest, ConcurrentRecordCountsExactly) {
  LatencyHistogram H;
  constexpr size_t Threads = 4, PerThread = 20000;
  std::vector<std::thread> Pool;
  for (size_t T = 0; T < Threads; ++T)
    Pool.emplace_back([&H, T] {
      for (size_t I = 0; I < PerThread; ++I)
        H.record(T * 1000 + I % 997);
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(H.count(), Threads * PerThread);
  EXPECT_EQ(H.summarize().Count, Threads * PerThread);
}

TEST(ServerStatsTest, FormatNanos) {
  EXPECT_EQ(ServerStats::formatNanos(500), "500ns");
  EXPECT_EQ(ServerStats::formatNanos(1500), "1.5us");
  EXPECT_EQ(ServerStats::formatNanos(2.5e6), "2.50ms");
  EXPECT_EQ(ServerStats::formatNanos(3.1e9), "3.10s");
}

//===----------------------------------------------------------------------===//
// Batched snapshot seams (what the runtime executes through)
//===----------------------------------------------------------------------===//

// The one batch call, exact and routed, must answer bit-identically to
// its one-query-at-a-time counterparts — scratch reuse across the batch
// is invisible in the results.
TEST(RuntimeSeamTest, QueryBatchPointerOverloadMatchesQuery) {
  ServedCorpus C = makeCorpus(60, 10, 123);
  const IndexSnapshot Snap = C.Service.snapshot();
  std::vector<const KernelProfile *> Borrowed;
  for (const KernelProfile &Q : C.Queries)
    Borrowed.push_back(&Q);
  for (size_t K : {size_t(1), size_t(5), size_t(100)}) {
    std::vector<std::vector<ServiceHit>> Batch =
        Snap.queryBatch(Borrowed, K, true, 1);
    ASSERT_EQ(Batch.size(), C.Queries.size());
    for (size_t I = 0; I < C.Queries.size(); ++I)
      expectBitIdentical(Batch[I], Snap.query(C.Queries[I], K, true, 1),
                         "exact batch q" + std::to_string(I));
  }
}

TEST(RuntimeSeamTest, QueryBatchApproxMatchesQueryApprox) {
  ServedCorpus C = makeCorpus(60, 10, 321);
  // Aggressively pruned routing: the batch must reproduce even the
  // approximation's answers bit-for-bit, not just the exact ones.
  RoutingOptions Pruned;
  Pruned.Cluster.NumCentroids = 4;
  Pruned.MaxDocFrequency = 0.5;
  Pruned.DefaultNProbe = 2;
  C.Service.rebuildRouting(Pruned, 1);
  ASSERT_TRUE(C.Service.routed());
  // Post-routing tail + a tombstone inside the routed segment.
  C.Service.add("tail0", "a", C.Queries[0]);
  ASSERT_EQ(C.Service.remove("p7"), 1u);

  const IndexSnapshot Snap = C.Service.snapshot();
  std::vector<const KernelProfile *> Borrowed;
  for (const KernelProfile &Q : C.Queries)
    Borrowed.push_back(&Q);
  for (size_t K : {size_t(1), size_t(5), size_t(100)}) {
    std::vector<std::vector<ServiceHit>> Batch =
        Snap.queryBatch(Borrowed, K, true, 1, /*Approx=*/true);
    ASSERT_EQ(Batch.size(), C.Queries.size());
    for (size_t I = 0; I < C.Queries.size(); ++I)
      expectBitIdentical(Batch[I],
                         Snap.queryApprox(C.Queries[I], K, true, 0, 1),
                         "approx batch q" + std::to_string(I));
  }
  // Three worker chunks stride the batch differently; the answers do
  // not move, and an explicit NProbe equal to the default changes
  // nothing either.
  std::vector<std::vector<ServiceHit>> Strided =
      Snap.queryBatch(Borrowed, 5, true, 3, /*Approx=*/true, /*NProbe=*/2);
  for (size_t I = 0; I < C.Queries.size(); ++I)
    expectBitIdentical(Strided[I],
                       Snap.queryApprox(C.Queries[I], 5, true, 0, 1),
                       "strided approx q" + std::to_string(I));
}

//===----------------------------------------------------------------------===//
// QueryServer: differential exactness
//===----------------------------------------------------------------------===//

// The headline contract: async batched answers are bit-identical to
// synchronous snapshot queries. Writers are quiesced so every
// admission batch sees the same published state.
TEST(QueryServerTest, DifferentialBitIdentityExact) {
  ServedCorpus C = makeCorpus(80, 24, 777);
  const IndexSnapshot Snap = C.Service.snapshot();
  QueryServerOptions Opts;
  Opts.MaxBatch = 8;
  Opts.ExecThreads = 1;
  QueryServer Server(C.Service, Opts);

  // Mixed K and Normalize in flight at once: grouping must route each
  // request through the right parameters.
  std::vector<std::future<QueryResponse>> Futures;
  std::vector<size_t> Ks;
  std::vector<bool> Norms;
  for (size_t I = 0; I < C.Queries.size(); ++I) {
    const size_t K = 1 + I % 7;
    const bool Normalize = I % 3 != 0;
    Ks.push_back(K);
    Norms.push_back(Normalize);
    Futures.push_back(Server.submitBorrowed(C.Queries[I], K, Normalize));
  }
  for (size_t I = 0; I < Futures.size(); ++I) {
    QueryResponse Resp = Futures[I].get();
    ASSERT_EQ(Resp.Status, ServeStatus::Ok);
    expectBitIdentical(Resp.Hits, Snap.query(C.Queries[I], Ks[I], Norms[I], 1),
                       "async q" + std::to_string(I));
  }

  const ServerStats::Snapshot Stats = Server.stats().snapshot();
  EXPECT_EQ(Stats.Submitted, C.Queries.size());
  EXPECT_EQ(Stats.Rejected, 0u);
}

TEST(QueryServerTest, DifferentialBitIdentityApprox) {
  ServedCorpus C = makeCorpus(80, 16, 888);
  RoutingOptions Pruned;
  Pruned.Cluster.NumCentroids = 4;
  Pruned.MaxDocFrequency = 0.6;
  Pruned.DefaultNProbe = 2;
  C.Service.rebuildRouting(Pruned, 1);
  const IndexSnapshot Snap = C.Service.snapshot();

  QueryServerOptions Opts;
  Opts.MaxBatch = 8;
  Opts.ExecThreads = 1;
  Opts.Approx = true;
  QueryServer Server(C.Service, Opts);
  std::vector<std::future<QueryResponse>> Futures;
  for (const KernelProfile &Q : C.Queries)
    Futures.push_back(Server.submitBorrowed(Q, 6));
  for (size_t I = 0; I < Futures.size(); ++I) {
    QueryResponse Resp = Futures[I].get();
    ASSERT_EQ(Resp.Status, ServeStatus::Ok);
    expectBitIdentical(Resp.Hits,
                       Snap.queryApprox(C.Queries[I], 6, true, 0, 1),
                       "async approx q" + std::to_string(I));
  }
}

//===----------------------------------------------------------------------===//
// QueryServer: backpressure and lifecycle
//===----------------------------------------------------------------------===//

TEST(QueryServerTest, RejectPolicyBouncesWhenFull) {
  ServedCorpus C = makeCorpus(20, 4, 555);
  QueryServerOptions Opts;
  Opts.QueueCapacity = 4;
  Opts.Overflow = OverflowPolicy::Reject;
  Opts.ExecThreads = 1;
  QueryServer Server(C.Service, Opts);
  Server.pause();
  // Let the batcher observe the pause before filling the queue, so it
  // cannot drain a request out from under the capacity math.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<std::future<QueryResponse>> Queued;
  for (size_t I = 0; I < Server.queueCapacity(); ++I)
    Queued.push_back(Server.submitBorrowed(C.Queries[0], 3));
  // Queue full, batcher paused: the next submissions bounce now.
  for (int I = 0; I < 3; ++I) {
    std::future<QueryResponse> F = Server.submitBorrowed(C.Queries[1], 3);
    ASSERT_EQ(F.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(F.get().Status, ServeStatus::Rejected);
  }
  EXPECT_EQ(Server.stats().Rejected.load(), 3u);

  Server.resume();
  for (std::future<QueryResponse> &F : Queued) {
    QueryResponse Resp = F.get();
    EXPECT_EQ(Resp.Status, ServeStatus::Ok);
    EXPECT_FALSE(Resp.Hits.empty());
  }
}

TEST(QueryServerTest, BlockPolicyWaitsForASlot) {
  ServedCorpus C = makeCorpus(20, 4, 666);
  QueryServerOptions Opts;
  Opts.QueueCapacity = 2;
  Opts.Overflow = OverflowPolicy::Block;
  Opts.ExecThreads = 1;
  // A batch may outgrow the queue: the blocked submitter takes a slot
  // the first gather freed and joins that batch, long before its
  // straggler budget runs out.
  Opts.MaxBatch = 3;
  Opts.MaxWaitMicros = 2000000;
  QueryServer Server(C.Service, Opts);
  Server.pause();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<std::future<QueryResponse>> Queued;
  for (size_t I = 0; I < Server.queueCapacity(); ++I)
    Queued.push_back(Server.submitBorrowed(C.Queries[0], 3));

  // One more submission from another thread: it must block (queue
  // full), then complete once resume() lets the batcher drain.
  std::promise<std::future<QueryResponse>> Relay;
  std::future<std::future<QueryResponse>> RelayFut = Relay.get_future();
  std::atomic<bool> SubmitReturned{false};
  std::thread Blocked([&] {
    std::future<QueryResponse> F = Server.submitBorrowed(C.Queries[1], 3);
    SubmitReturned.store(true);
    Relay.set_value(std::move(F));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(SubmitReturned.load()) << "submit should be blocking on "
                                         "backpressure while paused";
  Server.resume();
  QueryResponse Resp = RelayFut.get().get();
  EXPECT_EQ(Resp.Status, ServeStatus::Ok);
  Blocked.join();
  for (std::future<QueryResponse> &F : Queued)
    EXPECT_EQ(F.get().Status, ServeStatus::Ok);
  Server.shutdown(); // The batcher records a batch after resolving it.
  const ServerStats::Snapshot Stats = Server.stats().snapshot();
  EXPECT_EQ(Stats.Batches, 1u);
  EXPECT_EQ(Stats.BatchSize.Max, 3.0);
}

TEST(QueryServerTest, ShutdownDrainsAdmittedAndBouncesNew) {
  ServedCorpus C = makeCorpus(30, 8, 999);
  QueryServerOptions Opts;
  Opts.ExecThreads = 1;
  auto Server = std::make_unique<QueryServer>(C.Service, Opts);
  std::vector<std::future<QueryResponse>> Futures;
  for (const KernelProfile &Q : C.Queries)
    Futures.push_back(Server->submitBorrowed(Q, 4));
  Server->shutdown();
  for (std::future<QueryResponse> &F : Futures)
    EXPECT_EQ(F.get().Status, ServeStatus::Ok) << "admitted requests drain";

  std::future<QueryResponse> Late = Server->submitBorrowed(C.Queries[0], 4);
  ASSERT_EQ(Late.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(Late.get().Status, ServeStatus::ShutDown);
  EXPECT_EQ(Server->stats().RejectedShutdown.load(), 1u);
  Server->shutdown(); // Idempotent.
  Server.reset();     // Destructor after shutdown: no double-join.
}

// A paused server with queued work still drains on shutdown —
// shutdown overrides pause.
TEST(QueryServerTest, ShutdownOverridesPause) {
  ServedCorpus C = makeCorpus(20, 2, 444);
  QueryServerOptions Opts;
  Opts.ExecThreads = 1;
  QueryServer Server(C.Service, Opts);
  Server.pause();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::future<QueryResponse> F = Server.submitBorrowed(C.Queries[0], 3);
  Server.shutdown();
  EXPECT_EQ(F.get().Status, ServeStatus::Ok);
}

// A submitter blocked on a full queue is released by shutdown(): its
// request bounces ShutDown, while the requests already queued drain Ok
// even though the server is paused.
TEST(QueryServerTest, ShutdownReleasesBlockedSubmitter) {
  ServedCorpus C = makeCorpus(20, 4, 333);
  QueryServerOptions Opts;
  Opts.QueueCapacity = 2;
  Opts.Overflow = OverflowPolicy::Block;
  Opts.ExecThreads = 1;
  QueryServer Server(C.Service, Opts);
  Server.pause();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<std::future<QueryResponse>> Queued;
  for (size_t I = 0; I < Opts.QueueCapacity; ++I)
    Queued.push_back(Server.submitBorrowed(C.Queries[0], 3));
  std::future<QueryResponse> Blocked = std::async(std::launch::async, [&] {
    return Server.submitBorrowed(C.Queries[1], 3).get();
  });
  EXPECT_EQ(Blocked.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout)
      << "submit should be blocking on backpressure while paused";

  Server.shutdown();
  EXPECT_EQ(Blocked.get().Status, ServeStatus::ShutDown);
  for (std::future<QueryResponse> &F : Queued)
    EXPECT_EQ(F.get().Status, ServeStatus::Ok);
  EXPECT_EQ(Server.stats().RejectedShutdown.load(), 1u);
}

// Submitters race shutdown() at staggered moments. Every future is
// resolved once shutdown() and the submitters have returned, and every
// outcome is counted exactly once: what was admitted executed, what
// bounced is counted as bounced.
TEST(QueryServerTest, ShutdownRacingSubmittersLosesNothing) {
  ServedCorpus C = makeCorpus(20, 4, 222);
  constexpr size_t Submitters = 4, PerSubmitter = 50;
  for (OverflowPolicy Policy :
       {OverflowPolicy::Block, OverflowPolicy::Reject}) {
    for (int Round = 0; Round < 20; ++Round) {
      QueryServerOptions Opts;
      Opts.MaxBatch = 2;
      Opts.QueueCapacity = 4;
      Opts.Overflow = Policy;
      Opts.ExecThreads = 1;
      QueryServer Server(C.Service, Opts);
      std::vector<std::vector<std::future<QueryResponse>>> Futures(
          Submitters);
      std::vector<std::thread> Threads;
      for (size_t T = 0; T < Submitters; ++T)
        Threads.emplace_back([&, T] {
          for (size_t I = 0; I < PerSubmitter; ++I)
            Futures[T].push_back(Server.submitBorrowed(
                C.Queries[(T + I) % C.Queries.size()], 3));
        });
      std::this_thread::sleep_for(std::chrono::microseconds(200 * Round));
      Server.shutdown();
      for (std::thread &T : Threads)
        T.join();

      uint64_t Ok = 0, Rejected = 0, ShutDown = 0;
      for (std::vector<std::future<QueryResponse>> &PerThread : Futures)
        for (std::future<QueryResponse> &F : PerThread) {
          ASSERT_EQ(F.wait_for(std::chrono::seconds(0)),
                    std::future_status::ready)
              << "round " << Round;
          switch (F.get().Status) {
          case ServeStatus::Ok:
            ++Ok;
            break;
          case ServeStatus::Rejected:
            ++Rejected;
            break;
          case ServeStatus::ShutDown:
            ++ShutDown;
            break;
          }
        }
      const ServerStats::Snapshot S = Server.stats().snapshot();
      EXPECT_EQ(Ok, S.Submitted) << "round " << Round;
      EXPECT_EQ(Ok, S.Completed) << "round " << Round;
      EXPECT_EQ(Rejected, S.Rejected) << "round " << Round;
      EXPECT_EQ(ShutDown, S.RejectedShutdown) << "round " << Round;
      if (Policy == OverflowPolicy::Block) {
        EXPECT_EQ(Rejected, 0u) << "round " << Round;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// QueryServer: concurrency stress
//===----------------------------------------------------------------------===//

// Submitters race writers mutating the service. Every future resolves
// Ok; every answer is internally consistent (sorted, sized, labeled
// from the live namespace); the stats ledger balances.
TEST(QueryServerTest, ConcurrentSubmittersAndIngest) {
  Rng R(2024);
  auto Table = TokenTable::create();
  IndexServiceOptions SvcOpts;
  SvcOpts.Shards = 4;
  SvcOpts.SealThreshold = 16;
  IndexService Service(kernel().name(), SvcOpts);
  std::vector<KernelProfile> Pool;
  for (size_t I = 0; I < 64; ++I)
    Pool.push_back(
        kernel().profile(randomString(Table, R, R.uniformInt(4, 24), 6)));
  for (size_t I = 0; I < 32; ++I)
    Service.add("seed" + std::to_string(I), "a", Pool[I % Pool.size()]);

  QueryServerOptions Opts;
  Opts.MaxBatch = 16;
  Opts.QueueCapacity = 64;
  Opts.ExecThreads = 1;
  QueryServer Server(Service, Opts);

  std::atomic<bool> StopWriter{false};
  std::thread Writer([&] {
    // Windowed churn: the service keeps mutating but stays small, so
    // query cost (and the test's runtime, especially under TSan) does
    // not grow with how long the submitters take.
    size_t Next = 0;
    while (!StopWriter.load()) {
      Service.add("w" + std::to_string(Next), "b",
                  Pool[Next % Pool.size()]);
      if (Next >= 48)
        Service.remove("w" + std::to_string(Next - 48));
      if (Next % 256 == 255)
        Service.compact(1);
      ++Next;
      std::this_thread::yield();
    }
  });

  constexpr size_t Submitters = 3, PerSubmitter = 200;
  std::atomic<size_t> OkCount{0};
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Submitters; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = 0; I < PerSubmitter; ++I) {
        const size_t K = 1 + (T + I) % 6;
        QueryResponse Resp =
            Server.submitBorrowed(Pool[(T * 31 + I) % Pool.size()], K).get();
        ASSERT_EQ(Resp.Status, ServeStatus::Ok);
        EXPECT_LE(Resp.Hits.size(), K);
        for (size_t H = 1; H < Resp.Hits.size(); ++H)
          EXPECT_GE(Resp.Hits[H - 1].Similarity, Resp.Hits[H].Similarity);
        OkCount.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  StopWriter.store(true);
  Writer.join();
  Server.shutdown();

  EXPECT_EQ(OkCount.load(), Submitters * PerSubmitter);
  const ServerStats::Snapshot S = Server.stats().snapshot();
  EXPECT_EQ(S.Submitted, Submitters * PerSubmitter);
  EXPECT_EQ(S.Completed, Submitters * PerSubmitter);
  EXPECT_EQ(S.TotalNs.Count, Submitters * PerSubmitter);
  EXPECT_EQ(S.BatchSize.Count, S.Batches);
  EXPECT_GE(S.BatchSize.Max, 1.0);
}
