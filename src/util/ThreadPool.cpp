//===- util/ThreadPool.cpp - Persistent worker pool -----------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "util/ThreadPool.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <exception>
#include <memory>

using namespace kast;

//===----------------------------------------------------------------------===//
// Pool lifecycle and task queue
//===----------------------------------------------------------------------===//

ThreadPool::ThreadPool(size_t NumThreads) {
  if (NumThreads == 0) {
    const size_t Hardware = std::thread::hardware_concurrency();
    NumThreads = Hardware > 1 ? Hardware - 1 : 1;
  }
  Workers.reserve(NumThreads);
  for (size_t T = 0; T < NumThreads; ++T)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stopping = true;
  }
  // Workers drain the queue before honoring Stopping, so every task
  // submitted before destruction still runs.
  WorkAvailable.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    assert(!Stopping && "submit() after the pool started shutting down");
    Queue.push_back(std::move(Task));
  }
  WorkAvailable.notify_one();
}

bool ThreadPool::runOneTask() {
  std::function<void()> Task;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Queue.empty())
      return false;
    Task = std::move(Queue.front());
    Queue.pop_front();
  }
  Task();
  return true;
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      WorkAvailable.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and fully drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}

ThreadPool &ThreadPool::shared() {
  static ThreadPool Pool;
  return Pool;
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

namespace {

/// Shared state of one parallelFor invocation. Loop tasks hold it by
/// shared_ptr; the caller blocks until ActiveLoops hits zero, so the
/// Body reference inside stays valid for as long as any loop runs.
struct ParallelForState {
  std::atomic<size_t> Next{0};
  size_t Count = 0;
  const std::function<void(size_t)> *Body = nullptr;

  std::atomic<bool> Failed{false};
  std::mutex Mutex;
  std::condition_variable Done;
  size_t ActiveLoops = 0; ///< Participants still inside their claim loop.
  std::exception_ptr FirstError;

  /// One participant's claim loop: pull indices until exhausted or a
  /// failure elsewhere, capturing the first exception.
  void runLoop() {
    for (;;) {
      if (Failed.load(std::memory_order_relaxed))
        break;
      const size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Count)
        break;
      try {
        (*Body)(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(Mutex);
        if (!FirstError)
          FirstError = std::current_exception();
        Failed.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> Lock(Mutex);
    if (--ActiveLoops == 0)
      Done.notify_all();
  }
};

} // namespace

void ThreadPool::parallelFor(size_t Count,
                             const std::function<void(size_t)> &Body,
                             size_t MaxWorkers) {
  if (Count == 0)
    return;
  size_t Total = MaxWorkers != 0 ? MaxWorkers : threadCount() + 1;
  Total = std::min(Total, Count);
  if (Total <= 1) {
    // Inline in index order — the single-threaded determinism the
    // tests and the NumThreads == 1 contract rely on.
    for (size_t I = 0; I < Count; ++I)
      Body(I);
    return;
  }

  auto State = std::make_shared<ParallelForState>();
  State->Count = Count;
  State->Body = &Body;
  State->ActiveLoops = Total;
  for (size_t T = 1; T < Total; ++T)
    submit([State] { State->runLoop(); });
  State->runLoop();

  // Wait for the submitted loops, stealing unrelated queued tasks
  // while they run — on a saturated pool the stragglers may be parked
  // behind other work, and helping is what keeps nesting live. The
  // timed wait covers the benign race between an empty queue check
  // and the final notify.
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(State->Mutex);
      if (State->ActiveLoops == 0)
        break;
    }
    if (runOneTask())
      continue;
    std::unique_lock<std::mutex> Lock(State->Mutex);
    State->Done.wait_for(Lock, std::chrono::microseconds(200),
                         [&] { return State->ActiveLoops == 0; });
    if (State->ActiveLoops == 0)
      break;
  }
  if (State->FirstError)
    std::rethrow_exception(State->FirstError);
}

void kast::parallelFor(size_t Count, const std::function<void(size_t)> &Body,
                       size_t NumThreads) {
  if (Count == 0)
    return;
  if (NumThreads == 1 || Count == 1) {
    for (size_t I = 0; I < Count; ++I)
      Body(I);
    return;
  }
  ThreadPool::shared().parallelFor(Count, Body, NumThreads);
}
