//===- runtime/QueryServer.cpp - Async batched serving runtime ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "runtime/QueryServer.h"

#include <algorithm>
#include <chrono>
#include <tuple>

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
        O.QueueCapacity = std::max<size_t>(1, O.QueueCapacity);
        return O;
      }()) {
  Batcher = std::thread([this] { batcherLoop(); });
}

QueryServer::~QueryServer() { shutdown(); }

//===----------------------------------------------------------------------===//
// Submission
//===----------------------------------------------------------------------===//

std::future<QueryResponse> QueryServer::submitBorrowed(
    const KernelProfile &Query, size_t K, bool Normalize) {
  Request R{&Query, K, Normalize, {}, 0};
  std::future<QueryResponse> Fut = R.Promise.get_future();
  std::unique_lock<std::mutex> Lock(Mutex);
  if (Options.Overflow == OverflowPolicy::Block)
    NotFull.wait(Lock, [this] {
      return Stopping || Queue.size() < Options.QueueCapacity;
    });
  if (Stopping || Queue.size() == Options.QueueCapacity) {
    const bool ShutDown = Stopping;
    Lock.unlock();
    ++(ShutDown ? Stats.RejectedShutdown : Stats.Rejected);
    R.Promise.set_value(QueryResponse{
        ShutDown ? ServeStatus::ShutDown : ServeStatus::Rejected, {}});
    return Fut;
  }
  R.EnqueueNs = nowNs();
  Queue.push_back(std::move(R));
  Lock.unlock();
  Ready.notify_one();
  ++Stats.Submitted;
  return Fut;
}

void QueryServer::pause() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Paused = true;
}

void QueryServer::resume() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Paused = false;
  }
  Ready.notify_one();
}

//===----------------------------------------------------------------------===//
// Admission batching
//===----------------------------------------------------------------------===//

bool QueryServer::gatherBatch(std::vector<Request> &Batch) {
  const auto TakeFront = [&] {
    Batch.push_back(std::move(Queue.front()));
    Queue.pop_front();
  };
  std::unique_lock<std::mutex> Lock(Mutex);

  // Wait for the batch's first request. The idle wait re-checks every
  // millisecond rather than sleeping until notified: a batcher woken
  // from a long untimed sleep answers the next request later.
  while (!Stopping && (Queue.empty() || Paused))
    Ready.wait_for(Lock, std::chrono::milliseconds(1));
  if (Queue.empty())
    return false; // Stopping and the queue is drained.
  TakeFront();

  // Admit stragglers until the batch is full or the wait budget is
  // spent. Draining a backlog never waits; the budget only applies
  // once the queue runs dry mid-gather, and the wait yields rather
  // than sleeps, since a timed sleep overshoots a sub-millisecond
  // budget.
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(Options.MaxWaitMicros);
  while (Batch.size() < Options.MaxBatch) {
    if (!Queue.empty()) {
      TakeFront();
      continue;
    }
    if (Stopping || std::chrono::steady_clock::now() >= Deadline)
      break; // Execute what we have; the next gather drains the rest.
    Lock.unlock();
    // The slots this gather freed let submitters blocked on a full
    // queue supply stragglers, so a batch can outgrow QueueCapacity.
    NotFull.notify_all();
    std::this_thread::yield();
    Lock.lock();
  }
  Lock.unlock();
  NotFull.notify_all();
  return true;
}

void QueryServer::executeBatch(std::vector<Request> &Batch) {
  const uint64_t ExecStart = nowNs();

  // One snapshot for the whole batch — every request admitted here
  // observes the same published state, and snapshot acquisition
  // (one shared_ptr load per shard) is paid once.
  const IndexSnapshot Snap = Service.snapshot();

  // Group by (K, Normalize) so heterogeneous batches still execute
  // through the batched path: stable sorting keeps admission order
  // within a group, and each group makes one queryBatch call.
  std::stable_sort(Batch.begin(), Batch.end(),
                   [](const Request &L, const Request &R) {
                     return std::tie(L.K, L.Normalize) <
                            std::tie(R.K, R.Normalize);
                   });
  std::vector<const KernelProfile *> Group;
  size_t Begin = 0;
  while (Begin < Batch.size()) {
    size_t End = Begin + 1;
    while (End < Batch.size() && Batch[End].K == Batch[Begin].K &&
           Batch[End].Normalize == Batch[Begin].Normalize)
      ++End;
    Group.clear();
    for (size_t I = Begin; I < End; ++I)
      Group.push_back(Batch[I].Profile);
    try {
      std::vector<std::vector<ServiceHit>> Results = Snap.queryBatch(
          Group, Batch[Begin].K, Batch[Begin].Normalize, Options.ExecThreads,
          Options.Approx, Options.NProbe);
      for (size_t I = Begin; I < End; ++I)
        Batch[I].Promise.set_value(
            QueryResponse{ServeStatus::Ok, std::move(Results[I - Begin])});
    } catch (...) {
      for (size_t I = Begin; I < End; ++I)
        Batch[I].Promise.set_exception(std::current_exception());
    }
    Begin = End;
  }

  const uint64_t ExecEnd = nowNs();
  Stats.ExecuteNs.record(ExecEnd - ExecStart);
  Stats.BatchSize.record(Batch.size());
  ++Stats.Batches;
  Stats.Completed += Batch.size();
  for (const Request &R : Batch) {
    Stats.QueueWaitNs.record(ExecStart >= R.EnqueueNs ? ExecStart - R.EnqueueNs
                                                      : 0);
    Stats.TotalNs.record(ExecEnd >= R.EnqueueNs ? ExecEnd - R.EnqueueNs : 0);
  }
  Batch.clear();
}

void QueryServer::batcherLoop() {
  std::vector<Request> Batch;
  Batch.reserve(Options.MaxBatch);
  while (gatherBatch(Batch))
    executeBatch(Batch);
}

//===----------------------------------------------------------------------===//
// Shutdown
//===----------------------------------------------------------------------===//

void QueryServer::shutdown() {
  std::lock_guard<std::mutex> Lock(ShutdownMutex);
  if (!Batcher.joinable())
    return; // Already shut down.
  {
    std::lock_guard<std::mutex> QueueLock(Mutex);
    Stopping = true;
  }
  Ready.notify_one();
  NotFull.notify_all();
  Batcher.join();
}
