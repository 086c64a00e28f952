//===- runtime/QueryServer.cpp - Async batched serving runtime ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "runtime/QueryServer.h"
#include "runtime/Backoff.h"

#include <algorithm>
#include <chrono>

using namespace kast;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

QueryServer::QueryServer(const IndexService &Service, QueryServerOptions Opts)
    : Service(Service), Options([&] {
        QueryServerOptions O = Opts;
        O.MaxBatch = std::max<size_t>(1, O.MaxBatch);
        O.QueueCapacity = std::max<size_t>(2, O.QueueCapacity);
        return O;
      }()),
      Queue(Options.QueueCapacity) {
  Batcher = std::thread([this] { batcherLoop(); });
}

QueryServer::~QueryServer() { shutdown(); }

//===----------------------------------------------------------------------===//
// Submission
//===----------------------------------------------------------------------===//

std::future<QueryResponse> QueryServer::submit(KernelProfile Query, size_t K,
                                               bool Normalize) {
  Request *R = new Request;
  R->Owned = std::move(Query);
  R->Profile = &R->Owned;
  R->K = K;
  R->Normalize = Normalize;
  return submitRequest(R);
}

std::future<QueryResponse> QueryServer::submitBorrowed(
    const KernelProfile &Query, size_t K, bool Normalize) {
  Request *R = new Request;
  R->Profile = &Query;
  R->K = K;
  R->Normalize = Normalize;
  return submitRequest(R);
}

std::future<QueryResponse> QueryServer::submitRequest(Request *R) {
  std::future<QueryResponse> Fut = R->Promise.get_future();
  // Admission gate, Dekker-paired with the batcher's shutdown drain
  // (see ActiveSubmitters in the header): increment FIRST, then check
  // Stopping, and hold the count until the push is complete.
  ActiveSubmitters.fetch_add(1);
  const auto Bounce = [&](ServeStatus Status,
                          std::atomic<uint64_t> &Counter) {
    Counter.fetch_add(1, std::memory_order_relaxed);
    ActiveSubmitters.fetch_sub(1);
    R->Promise.set_value(QueryResponse{Status, {}});
    delete R;
    return std::move(Fut);
  };
  if (Stopping.load())
    return Bounce(ServeStatus::ShutDown, Stats.RejectedShutdown);
  R->EnqueueNs = nowNs();
  Request *P = R;
  if (!Queue.tryPush(std::move(P))) {
    if (Options.Overflow == OverflowPolicy::Reject)
      return Bounce(ServeStatus::Rejected, Stats.Rejected);
    // Block: the queue is the backpressure valve — spin/yield until
    // the batcher frees a slot. Shutdown mid-wait bounces rather than
    // risking a push the draining batcher never takes.
    Backoff B;
    for (;;) {
      B.pause();
      if (Stopping.load())
        return Bounce(ServeStatus::ShutDown, Stats.RejectedShutdown);
      P = R;
      if (Queue.tryPush(std::move(P)))
        break;
    }
  }
  ActiveSubmitters.fetch_sub(1);
  Stats.Submitted.fetch_add(1, std::memory_order_relaxed);
  wakeBatcher();
  return Fut;
}

void QueryServer::wakeBatcher() {
  if (Parked.load(std::memory_order_acquire)) {
    // The lock pairs with the batcher's park sequence: after we
    // acquire it the batcher is either inside wait_for (sees the
    // notify) or past its re-check (sees the pushed request).
    std::lock_guard<std::mutex> Lock(WakeMutex);
    WakeCv.notify_one();
  }
}

void QueryServer::resume() {
  Paused.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(WakeMutex);
  WakeCv.notify_one();
}

//===----------------------------------------------------------------------===//
// Admission batching
//===----------------------------------------------------------------------===//

void QueryServer::gatherBatch(std::vector<Request *> &Batch) {
  Batch.clear();
  Request *R = nullptr;

  // Phase 1: wait for the batch's first request — spin briefly, then
  // park on the cv (bounded wait; see the Parked comment in the
  // header for why the race with producers is benign).
  Backoff B;
  for (;;) {
    if (Paused.load(std::memory_order_acquire) &&
        !Stopping.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> Lock(WakeMutex);
      WakeCv.wait_for(Lock, std::chrono::milliseconds(1));
      continue;
    }
    if (Queue.tryPop(R)) {
      Batch.push_back(R);
      break;
    }
    if (Stopping.load() && ActiveSubmitters.load() == 0) {
      // No submitter is mid-push and none can start (they see
      // Stopping first), so one final pop decides emptiness.
      if (Queue.tryPop(R)) {
        Batch.push_back(R);
        break;
      }
      return; // Stopping and the queue is drained: nothing to gather.
    }
    if (!B.yielding()) {
      B.pause();
      continue;
    }
    Parked.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> Lock(WakeMutex);
    if (Queue.tryPop(R)) {
      Parked.store(false, std::memory_order_release);
      Batch.push_back(R);
      break;
    }
    WakeCv.wait_for(Lock, std::chrono::milliseconds(1));
    Parked.store(false, std::memory_order_release);
    B.reset();
  }

  // Phase 2: admit stragglers until the batch is full or the wait
  // budget is spent. Draining a backlog never waits; the budget only
  // applies once the queue runs dry mid-gather.
  const auto Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(Options.MaxWaitMicros);
  B.reset();
  while (Batch.size() < Options.MaxBatch) {
    if (Queue.tryPop(R)) {
      Batch.push_back(R);
      B.reset();
      continue;
    }
    if (Stopping.load(std::memory_order_acquire))
      break; // Execute what we have; the loop re-enters to drain.
    if (std::chrono::steady_clock::now() >= Deadline)
      break;
    B.pause();
  }
}

void QueryServer::executeBatch(std::vector<Request *> &Batch) {
  if (Batch.empty())
    return;
  const uint64_t ExecStart = nowNs();

  // One snapshot for the whole batch — every request admitted here
  // observes the same published state, and snapshot acquisition
  // (shard-count atomic shared_ptr loads) is paid once.
  const IndexSnapshot Snap = Service.snapshot();

  // Group by (K, Normalize) so heterogeneous batches still execute
  // through the batched path: stable partition keeps admission order
  // within a group, and each group makes one queryBatch call.
  std::stable_sort(Batch.begin(), Batch.end(),
                   [](const Request *L, const Request *R) {
                     if (L->K != R->K)
                       return L->K < R->K;
                     return L->Normalize < R->Normalize;
                   });
  std::vector<const KernelProfile *> Group;
  size_t Begin = 0;
  while (Begin < Batch.size()) {
    size_t End = Begin + 1;
    while (End < Batch.size() && Batch[End]->K == Batch[Begin]->K &&
           Batch[End]->Normalize == Batch[Begin]->Normalize)
      ++End;
    Group.clear();
    for (size_t I = Begin; I < End; ++I)
      Group.push_back(Batch[I]->Profile);
    try {
      std::vector<std::vector<ServiceHit>> Results = Snap.queryBatch(
          Group, Batch[Begin]->K, Batch[Begin]->Normalize, Options.ExecThreads,
          Options.Approx, Options.NProbe);
      for (size_t I = Begin; I < End; ++I)
        Batch[I]->Promise.set_value(
            QueryResponse{ServeStatus::Ok, std::move(Results[I - Begin])});
    } catch (...) {
      for (size_t I = Begin; I < End; ++I)
        Batch[I]->Promise.set_exception(std::current_exception());
    }
    Begin = End;
  }

  const uint64_t ExecEnd = nowNs();
  Stats.ExecuteNs.record(ExecEnd - ExecStart);
  Stats.BatchSize.record(Batch.size());
  Stats.Batches.fetch_add(1, std::memory_order_relaxed);
  Stats.Completed.fetch_add(Batch.size(), std::memory_order_relaxed);
  for (Request *R : Batch) {
    Stats.QueueWaitNs.record(ExecStart >= R->EnqueueNs
                                 ? ExecStart - R->EnqueueNs
                                 : 0);
    Stats.TotalNs.record(ExecEnd >= R->EnqueueNs ? ExecEnd - R->EnqueueNs : 0);
    delete R;
  }
  Batch.clear();
}

void QueryServer::batcherLoop() {
  std::vector<Request *> Batch;
  Batch.reserve(Options.MaxBatch);
  for (;;) {
    gatherBatch(Batch);
    if (Batch.empty()) {
      // gatherBatch returns empty only when stopping with a drained
      // queue — the shutdown exit.
      if (Stopping.load(std::memory_order_acquire))
        return;
      continue;
    }
    executeBatch(Batch);
  }
}

//===----------------------------------------------------------------------===//
// Shutdown
//===----------------------------------------------------------------------===//

void QueryServer::shutdown() {
  std::lock_guard<std::mutex> Lock(ShutdownMutex);
  if (!Batcher.joinable())
    return; // Already shut down.
  Stopping.store(true, std::memory_order_release);
  {
    // Unpark the batcher so it observes Stopping promptly.
    std::lock_guard<std::mutex> WakeLock(WakeMutex);
    WakeCv.notify_one();
  }
  Batcher.join();
  // The batcher drained the queue before exiting; nothing can have
  // been pushed since (submitters bounce on Stopping before pushing).
}
