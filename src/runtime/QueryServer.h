//===- runtime/QueryServer.h - Async batched serving runtime ---*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The asynchronous serving runtime over an IndexService. Callers
/// submit queries from any number of threads and get a future; an
/// admission batcher drains the bounded lock-free queue, executes each
/// admitted batch against ONE IndexSnapshot through its one batch call,
/// IndexSnapshot::queryBatch (exact or routed per Options.Approx), and
/// fulfills the futures. The batch amortizes what call-per-query
/// serving pays per request — snapshot acquisition, query flattening
/// scratch, and (on the routed path) the per-shard candidate scratch
/// allocation — which is where the throughput headroom on a loaded box
/// actually is.
///
/// Exactness contract: for every admitted request the response is
/// bit-identical — scores, order, and tie-breaks — to calling
/// snapshot().query(...) (or queryApprox, in approximate mode)
/// synchronously on the snapshot the batch executed against. Batching
/// changes *when* work happens and which snapshot a request observes
/// (the one current at admission, not at submit), never *what* a
/// query computes. Differential tests pin this.
///
/// Backpressure is explicit: the admission queue is bounded, and when
/// it is full submit() either fails fast with ServeStatus::Rejected or
/// blocks until a slot frees, per OverflowPolicy. There is no hidden
/// unbounded buffer anywhere in the path.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_RUNTIME_QUERYSERVER_H
#define KAST_RUNTIME_QUERYSERVER_H

#include "index/IndexService.h"
#include "runtime/MpscQueue.h"
#include "runtime/ServerStats.h"

#include <atomic>
#include <condition_variable>
#include <cstddef>
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

/// What submit() does when the admission queue is full.
enum class OverflowPolicy {
  Block,  ///< Spin/yield until a slot frees (or shutdown begins).
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
  /// Admission queue capacity (rounded up to a power of two). This
  /// bound IS the backpressure: submit() of a full queue blocks or
  /// rejects, per Overflow.
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
/// Thread-safety: submit()/submitBorrowed() may be called from any
/// number of threads concurrently with each other, with writers
/// mutating the underlying service, and with shutdown(). The service
/// must outlive the server.
class QueryServer {
public:
  explicit QueryServer(const IndexService &Service,
                       QueryServerOptions Options = {});
  ~QueryServer(); ///< Calls shutdown().

  QueryServer(const QueryServer &) = delete;
  QueryServer &operator=(const QueryServer &) = delete;

  /// Submits an owned query. The future resolves once the batch the
  /// request was admitted into has executed (ServeStatus::Ok), or
  /// immediately on rejection/shutdown.
  std::future<QueryResponse> submit(KernelProfile Query, size_t K,
                                    bool Normalize = true);

  /// submit() without copying: the caller guarantees \p Query stays
  /// alive and unmodified until the returned future is ready. The
  /// load-generator path — profiles live in a corpus array anyway.
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
  void pause() { Paused.store(true, std::memory_order_release); }
  void resume();

  const ServerStats &stats() const { return Stats; }

  /// Requests admitted but not yet executed (racy; exact quiesced).
  size_t queueDepth() const { return Queue.sizeApprox(); }

  size_t queueCapacity() const { return Queue.capacity(); }

private:
  /// One in-flight request. Heap-allocated at submit, owned by the
  /// queue slot (as a raw pointer) until the batcher takes it, deleted
  /// after its promise is resolved.
  struct Request {
    const KernelProfile *Profile = nullptr; ///< Borrowed, or &Owned.
    KernelProfile Owned;
    size_t K = 0;
    bool Normalize = true;
    std::promise<QueryResponse> Promise;
    uint64_t EnqueueNs = 0;
  };

  std::future<QueryResponse> submitRequest(Request *R);
  void batcherLoop();
  /// Pops up to MaxBatch requests, waiting MaxWaitMicros for
  /// stragglers after the first. Returns an empty batch on idle
  /// timeout or shutdown-with-empty-queue.
  void gatherBatch(std::vector<Request *> &Batch);
  /// Executes \p Batch against one snapshot and resolves every
  /// promise. Groups requests by (K, Normalize) so mixed-parameter
  /// batches still hit the batched path per group.
  void executeBatch(std::vector<Request *> &Batch);
  void wakeBatcher();

  const IndexService &Service;
  const QueryServerOptions Options;
  ServerStats Stats;

  mutable MpscQueue<Request *> Queue;
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Paused{false};
  /// Submitters between their admission-gate check and the end of
  /// their push (Dekker handshake with the batcher's shutdown drain:
  /// both sides use seq_cst, so once the batcher observes Stopping
  /// and then ActiveSubmitters == 0, every push that passed the gate
  /// is visible and no new one can start — one final tryPop decides).
  std::atomic<size_t> ActiveSubmitters{0};

  /// Idle parking handshake: the batcher publishes Parked before
  /// waiting on WakeCv; producers notify only when they observe it.
  /// The batcher's wait is timed, so the push-between-check-and-wait
  /// race costs one bounded timeout, never a lost wakeup.
  std::atomic<bool> Parked{false};
  std::mutex WakeMutex;
  std::condition_variable WakeCv;

  std::mutex ShutdownMutex;
  std::thread Batcher;
};

} // namespace kast

#endif // KAST_RUNTIME_QUERYSERVER_H
