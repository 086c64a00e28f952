//===- util/ThreadPool.h - Persistent worker pool --------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parallelism primitive of the library: a persistent worker
/// pool with a submit API, plus the fork-join parallelFor the
/// compute layers (KernelMatrix tiles, index scans, shard fan-out) are
/// written against. parallelFor used to spawn and join fresh threads
/// per call; a serving loop answering thousands of queries per second
/// cannot afford a pthread_create per query, so the free function is
/// now a shim over one shared process-wide pool.
///
/// Deadlock-freedom under nesting: a parallelFor caller always
/// participates in its own loop, and while waiting for stragglers it
/// helps drain the pool's task queue. A pool worker that itself calls
/// parallelFor therefore never blocks on a task only it could run —
/// in the worst case (every worker busy) the nested call degrades to
/// inline execution, never to a deadlock.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_UTIL_THREADPOOL_H
#define KAST_UTIL_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kast {

/// A fixed-size persistent worker pool.
///
/// Tasks submitted through submit() run on the pool's threads in FIFO
/// order (subject to parallelFor callers stealing from the front while
/// they wait). parallelFor() is the structured fork-join entry point
/// layered on the same queue.
///
/// The destructor drains the queue (every submitted task runs) and
/// joins all workers. Submitting from inside a task is allowed;
/// submitting after destruction begins is not.
class ThreadPool {
public:
  /// Creates \p NumThreads workers. 0 sizes the pool to complement a
  /// participating caller: max(1, hardware_concurrency() - 1), so a
  /// parallelFor at default width uses exactly the hardware
  /// concurrency (pool workers + the calling thread).
  explicit ThreadPool(size_t NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  size_t threadCount() const { return Workers.size(); }

  /// Enqueues \p Task for execution on a pool thread. Never blocks on
  /// task execution (only on the queue mutex).
  void submit(std::function<void()> Task);

  /// Runs Body(I) for I in [0, Count) across up to \p MaxWorkers
  /// participants (0 = threadCount() + 1, i.e. the pool plus the
  /// caller), the caller included. Work is distributed by an atomic
  /// counter so uneven per-item cost balances automatically; with one
  /// effective worker the loop runs inline in index order. Body must
  /// be thread-safe for distinct indices.
  ///
  /// If Body throws, the first exception is captured and rethrown on
  /// the caller after every participant has stopped; remaining
  /// indices may be skipped. Nested calls (Body itself calling
  /// parallelFor on the same pool) are safe.
  void parallelFor(size_t Count, const std::function<void(size_t)> &Body,
                   size_t MaxWorkers = 0);

  /// The process-wide pool behind the free parallelFor (and so behind
  /// the serving runtime's batch execution). Constructed on first use.
  static ThreadPool &shared();

private:
  /// Pops and runs one queued task. Returns false if the queue was
  /// empty. Used by parallelFor callers while they wait.
  bool runOneTask();

  void workerLoop();

  mutable std::mutex QueueMutex;
  std::condition_variable WorkAvailable; ///< Workers park here.
  std::deque<std::function<void()>> Queue;
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

/// Runs Body(I) for I in [0, Count) on up to \p NumThreads workers
/// through ThreadPool::shared(). \p NumThreads == 0 selects the
/// hardware concurrency; \p NumThreads == 1 runs inline on the calling
/// thread, which keeps single-threaded determinism for tests. Body
/// must be thread-safe for distinct indices. Kept as a free function
/// so the pre-pool call sites (core/KernelMatrix, index/ScoringEngine,
/// index/IndexService) compile unchanged.
void parallelFor(size_t Count, const std::function<void(size_t)> &Body,
                 size_t NumThreads = 0);

} // namespace kast

#endif // KAST_UTIL_THREADPOOL_H
