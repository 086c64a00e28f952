//===- runtime/QueryServer.h - Async batched serving runtime ---*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The asynchronous serving runtime over an IndexService. Callers
/// submit queries from any number of threads and get a future; a
/// batcher thread takes requests from one bounded queue guarded by one
/// mutex, executes each admitted batch against ONE IndexSnapshot
/// through its one batch call, IndexSnapshot::queryBatch (exact or
/// routed per Options.Approx), and fulfills the futures. The batch
/// amortizes what call-per-query serving pays per request — snapshot
/// acquisition, query flattening scratch, and (on the routed path) the
/// per-shard candidate scratch allocation.
///
/// Exactness contract: for every admitted request the response is
/// bit-identical — scores, order, and tie-breaks — to calling
/// snapshot().query(...) (or queryApprox, in approximate mode)
/// synchronously on the snapshot the batch executed against. Batching
/// changes *when* work happens and which snapshot a request observes
/// (the one current at admission, not at submit), never *what* a
/// query computes. Differential tests pin this.
///
/// Backpressure is explicit: the queue holds at most QueueCapacity
/// requests, and when it is full submit() either fails fast with
/// ServeStatus::Rejected or waits for a slot, per OverflowPolicy.
/// There is no hidden unbounded buffer anywhere in the path. Because
/// a submitter checks for shutdown under the same lock it enqueues
/// under, shutdown() drains exactly the requests that were admitted.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_RUNTIME_QUERYSERVER_H
#define KAST_RUNTIME_QUERYSERVER_H

#include "index/IndexService.h"
#include "runtime/ServerStats.h"

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace kast {

/// Terminal state of one submitted request.
enum class ServeStatus {
  Ok,       ///< Executed; Hits holds the answer.
  Rejected, ///< Bounced at admission: queue full under OverflowPolicy::Reject.
  ShutDown, ///< Bounced at admission: server stopping or stopped.
};

/// What a submitted request's future resolves to.
struct QueryResponse {
  ServeStatus Status = ServeStatus::Ok;
  std::vector<ServiceHit> Hits;
};

/// What submit does when the admission queue is full.
enum class OverflowPolicy {
  Block,  ///< Wait until a slot frees (or shutdown begins).
  Reject, ///< Resolve the future immediately with ServeStatus::Rejected.
};

struct QueryServerOptions {
  /// Most requests one admission batch may carry. Larger batches
  /// amortize more per-batch cost but add queueing delay under light
  /// load (bounded by MaxWaitMicros).
  size_t MaxBatch = 32;
  /// How long the batcher waits for stragglers after admitting the
  /// first request of a batch before executing a partial batch. The
  /// tail-latency price of batching under light load.
  size_t MaxWaitMicros = 200;
  /// Admission queue capacity, exactly (at least 1). This bound IS the
  /// backpressure: a submit to a full queue blocks or rejects, per
  /// Overflow.
  size_t QueueCapacity = 1024;
  OverflowPolicy Overflow = OverflowPolicy::Block;
  /// Worker width for batch execution (passed through to the batched
  /// query path's parallelFor; 0 = hardware concurrency).
  size_t ExecThreads = 0;
  /// Serve through the routed candidate-generation tier (queryBatch
  /// with Approx) instead of the exact scan. The bit-identity contract
  /// is then against snapshot().queryApprox(...).
  bool Approx = false;
  /// NProbe for approximate mode (0 = shard default).
  size_t NProbe = 0;
};

/// Asynchronous batched query server over one IndexService.
///
/// Thread-safety: submitBorrowed() may be called from any number of
/// threads concurrently with each other, with writers mutating the
/// underlying service, and with shutdown(). The service must outlive
/// the server.
class QueryServer {
public:
  explicit QueryServer(const IndexService &Service,
                       QueryServerOptions Options = {});
  ~QueryServer(); ///< Calls shutdown().

  QueryServer(const QueryServer &) = delete;
  QueryServer &operator=(const QueryServer &) = delete;

  /// Submits a query without copying it: the caller guarantees
  /// \p Query stays alive and unmodified until the returned future is
  /// ready. The future resolves once the batch the request was
  /// admitted into has executed (ServeStatus::Ok), or immediately on
  /// rejection/shutdown.
  std::future<QueryResponse> submitBorrowed(const KernelProfile &Query,
                                            size_t K, bool Normalize = true);

  /// Stops admission (subsequent submits resolve ShutDown), drains and
  /// executes every already-admitted request, and joins the batcher.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// Test/ops hook: holds the batcher between batches. Submissions
  /// still enqueue (and, once the queue fills, exercise the overflow
  /// policy) but nothing executes until resume(). shutdown() overrides
  /// a pause to drain.
  void pause();
  void resume();

  const ServerStats &stats() const { return Stats; }

  size_t queueCapacity() const { return Options.QueueCapacity; }

private:
  /// One in-flight request; lives by value in the queue, then in the
  /// batch, until its promise is resolved.
  struct Request {
    const KernelProfile *Profile = nullptr;
    size_t K = 0;
    bool Normalize = true;
    std::promise<QueryResponse> Promise;
    uint64_t EnqueueNs = 0;
  };

  void batcherLoop();
  /// Moves up to MaxBatch requests into \p Batch, waiting MaxWaitMicros
  /// for stragglers after the first. Returns false once shutdown has
  /// begun and the queue is drained.
  bool gatherBatch(std::vector<Request> &Batch);
  /// Executes \p Batch against one snapshot and resolves every
  /// promise. Groups requests by (K, Normalize) so mixed-parameter
  /// batches still hit the batched path per group.
  void executeBatch(std::vector<Request> &Batch);

  const IndexService &Service;
  const QueryServerOptions Options;
  ServerStats Stats;

  /// Guards Queue, Stopping and Paused.
  std::mutex Mutex;
  std::condition_variable Ready;   ///< Batcher waits: work, resume, stop.
  std::condition_variable NotFull; ///< Block submitters wait: slot, stop.
  std::deque<Request> Queue;
  bool Stopping = false;
  bool Paused = false;

  std::mutex ShutdownMutex; ///< Serializes concurrent shutdown() calls.
  std::thread Batcher;
};

} // namespace kast

#endif // KAST_RUNTIME_QUERYSERVER_H
