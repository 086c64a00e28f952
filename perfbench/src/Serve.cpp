//===- perfbench/src/Serve.cpp - serve workload ---------------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Serve.h"
#include "Rotation.h"
#include "StraceText.h"

#include "core/Pipeline.h"
#include "index/ClusterRouter.h"
#include "index/IndexService.h"
#include "index/InvertedIndex.h"
#include "kernels/SpectrumKernels.h"
#include "runtime/QueryServer.h"
#include "trace/StraceAdapter.h"
#include "workloads/CorpusIO.h"
#include "workloads/Mutator.h"
#include "workloads/ParallelTrace.h"

#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

using namespace kast;
using namespace perfbench;

namespace {

constexpr size_t Shards = 8;
constexpr size_t TopK = 5;
constexpr size_t IndexLogs = 8192;
constexpr size_t HeldOut = 256;
constexpr size_t BasesPerCategory = 32;
constexpr size_t BuildChunk = 256;
constexpr size_t SetupBuilds = 3;
/// Open-loop offered rates: fixed numbers, never derived from a
/// capacity measured in the same run. Queries arrive at about a quarter
/// of the width-1 capacity (420-480/s on a 4-vCPU shared VM): at 250/s a
/// slow stretch of that VM pushed the batcher near saturation and the
/// median answer swung between 2.4 and 8.7 ms from one process to the
/// next.
constexpr double QueryRate = 100.0;
constexpr double IngestRate = 200.0;
/// An ingested log is removed this many adds later.
constexpr size_t RemoveLag = 256;
/// In-flight requests of the closed capacity loop (QueryServer's
/// default MaxBatch).
constexpr size_t CapacityWindow = 32;
constexpr size_t QueueCapacity = 256;
/// Restored-vs-saved and batched-vs-synchronous comparisons use this
/// many held-out queries.
constexpr size_t CheckedQueries = 32;

/// Shares of --seconds per timed phase; recall on the quiesced
/// snapshot takes a fixed 2 x HeldOut synchronous queries on top. The
/// capacity phase gets a third: its closed loop is the serve metric
/// that moved most between runs.
constexpr double RestartShare = 0.1;
constexpr double OpenLoopShare = 0.5;
constexpr double IngestShare = 0.4;
constexpr double CapacityShare = 0.35;

const BlendedSpectrumKernel &kernel() {
  static const BlendedSpectrumKernel K(3, 1.0, /*Weighted=*/true,
                                       /*CutWeight=*/2);
  return K;
}

/// The serving routing bench/perf_serving.cpp runs.
RoutingOptions servingRouting() {
  RoutingOptions Options;
  Options.Cluster.TrainingSample = 2048;
  Options.Cluster.MaxIterations = 6;
  Options.MaxDocFrequency = 0.5;
  Options.RerankBudget = 96;
  Options.DefaultNProbe = 8;
  return Options;
}

double msSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-6;
}

/// Deterministic strace logs: log I is a mutant of base I mod B, where
/// each base is a 1-4 rank interleaved run. Logs [0, IndexLogs) build
/// the index, the next HeldOut are the query stream, and the rest feed
/// the ingest writer.
class LogSource {
public:
  explicit LogSource(uint64_t Seed) : Seed(Seed) {
    const Category Categories[] = {Category::FlashIO, Category::RandomPosix,
                                   Category::NormalIO,
                                   Category::RandomAccess};
    Rng Master(Seed * 0x9E3779B97F4A7C15ULL + 3);
    for (size_t B = 0; B < BasesPerCategory; ++B)
      for (Category C : Categories) {
        Rng R = Master.split();
        // Rank counts cycle 1..4, so every seed has the same mix.
        Bases.push_back(generateParallelTrace(C, 1 + Bases.size() % 4, R));
        Labels.push_back(categoryLabel(C));
      }
  }

  struct Log {
    std::string Name;
    std::string Label;
    std::string Text;
    Trace Generated;
    StraceLineCounts Lines;
  };

  Log make(size_t I, const std::string &Prefix = "log") const {
    Rng R(Seed * 0xD1B54A32D192ED03ULL + I * 0x632BE59BD9B4E019ULL + 11);
    Log L;
    L.Name = Prefix + std::to_string(I);
    L.Label = Labels[I % Bases.size()];
    L.Generated = mutateTrace(Bases[I % Bases.size()], R);
    L.Lines = renderStrace(L.Generated, R, L.Text);
    return L;
  }

private:
  uint64_t Seed;
  std::vector<Trace> Bases;
  std::vector<std::string> Labels;
};

/// Layer counters of one traced build or ingest.
struct BuildCounters {
  double Events = 0, Skipped = 0, Failed = 0, LeavesIn = 0, LeavesOut = 0,
         Tokens = 0, Features = 0, Logs = 0;
};

/// parseStrace -> convert -> profile -> add for one log. Traced runs
/// split Pipeline::convert into its three stages.
bool ingestLog(const LogSource::Log &L, const Pipeline &P, IndexService &S,
               SpanRecorder &Spans, BuildCounters &C) {
  using Scope = SpanRecorder::Scope;
  // Each intermediate is released inside the span of the layer that
  // made it, so freeing it counts toward that layer, not the glue.
  StraceStats Stats;
  Expected<Trace> T = Trace();
  {
    Scope Span(&Spans, "trace.parse");
    T = parseStrace(L.Text, L.Name, &Stats);
  }
  if (!T)
    return false;
  WeightedString W;
  if (!Spans.enabled()) {
    W = P.convert(*T);
  } else {
    PatternTree Tree;
    CompressionStats Compression;
    {
      Scope Span(&Spans, "tree.build");
      Tree = buildTree(*T, P.options().Builder);
    }
    {
      Scope Span(&Spans, "tree.compress");
      Compression = compressTree(Tree, P.options().Compressor);
    }
    {
      Scope Span(&Spans, "core.flatten");
      W = flattenTree(Tree, P.table(), P.options().Flatten);
    }
    {
      Scope Span(&Spans, "tree.build");
      Tree = PatternTree();
    }
    W.setName(T->name());
    C.Events += static_cast<double>(Stats.EventsEmitted);
    C.Skipped += static_cast<double>(Stats.LinesSkipped);
    C.Failed += static_cast<double>(Stats.CallsFailed);
    C.LeavesIn += static_cast<double>(Compression.LeavesBefore);
    C.LeavesOut += static_cast<double>(Compression.LeavesAfter);
    C.Tokens += static_cast<double>(W.size());
    C.Logs += 1;
  }
  {
    Scope Span(&Spans, "trace.parse");
    *T = Trace();
  }
  KernelProfile Profile;
  {
    Scope Span(&Spans, "kernels.profile");
    Profile = kernel().profile(W);
    W = WeightedString();
  }
  C.Features += static_cast<double>(Profile.size());
  {
    Scope Span(&Spans, "index.add");
    S.add(L.Name, L.Label, Profile);
  }
  Scope Span(&Spans, "kernels.profile");
  Profile = KernelProfile();
  return true;
}

/// Hash of hit names and similarity bits.
uint64_t digestHits(const std::vector<ServiceHit> &Hits, uint64_t H) {
  for (const ServiceHit &Hit : Hits) {
    for (char Ch : Hit.Name)
      H = (H ^ static_cast<uint8_t>(Ch)) * 1099511628211ULL;
    uint64_t Bits;
    std::memcpy(&Bits, &Hit.Similarity, sizeof(Bits));
    H = (H ^ Bits) * 1099511628211ULL;
  }
  return H;
}

KernelProfile queryProfile(const LogSource::Log &L, const Pipeline &P) {
  Expected<Trace> T = parseStrace(L.Text, L.Name);
  return kernel().profile(P.convert(T ? *T : Trace(L.Name)));
}

/// One cold build: a fresh Pipeline and IndexService, every index log
/// ingested, then the routing fit. Rendering happens between the timed
/// chunks and is not part of the build time. The build is one thread
/// with no I/O, timed like an analysis pass on the thread's CPU clock
/// (see runAnalysis); WallSeconds is logged beside it.
struct Build {
  std::unique_ptr<Pipeline> P;
  std::unique_ptr<IndexService> Service;
  double Seconds = 0.0;
  double FitSeconds = 0.0;
  double WallSeconds = 0.0;
  bool Ok = true;
  uint64_t Digest = 0;
  std::vector<int64_t> Roots;
  std::vector<double> AddUs;
  BuildCounters Counters;
};

Build coldBuild(const LogSource &Logs, SpanRecorder &Spans) {
  Build B;
  B.P = std::make_unique<Pipeline>(Pipeline::withBytes());
  IndexServiceOptions Options;
  Options.Shards = Shards;
  B.Service = std::make_unique<IndexService>(kernel().name(), Options);
  std::vector<LogSource::Log> Chunk;
  for (size_t Begin = 0; Begin < IndexLogs; Begin += BuildChunk) {
    Chunk.clear();
    for (size_t I = Begin; I < std::min(IndexLogs, Begin + BuildChunk); ++I)
      Chunk.push_back(Logs.make(I));
    const uint64_t Start = threadCpuNs(), WallStart = nowNs();
    const int64_t Root = Spans.open("serve.build");
    for (const LogSource::Log &L : Chunk)
      B.Ok &= ingestLog(L, *B.P, *B.Service, Spans, B.Counters);
    Spans.close(Root);
    B.Seconds += static_cast<double>(threadCpuNs() - Start) * 1e-9;
    B.WallSeconds += static_cast<double>(nowNs() - WallStart) * 1e-9;
    B.Roots.push_back(Root);
  }
  const uint64_t Start = threadCpuNs(), WallStart = nowNs();
  const int64_t Root = Spans.open("serve.fit");
  {
    SpanRecorder::Scope Span(&Spans, "index.route_fit");
    B.Service->rebuildRouting(servingRouting(), Width);
  }
  Spans.close(Root);
  B.FitSeconds = static_cast<double>(threadCpuNs() - Start) * 1e-9;
  B.Seconds += B.FitSeconds;
  B.WallSeconds += static_cast<double>(nowNs() - WallStart) * 1e-9;
  B.Roots.push_back(Root);
  if (Spans.enabled())
    for (const Span &S : Spans.spans())
      if (!std::strcmp(S.Name, "index.add") &&
          S.StartNs >= Spans.spans()[static_cast<size_t>(B.Roots.front())]
                           .StartNs)
        B.AddUs.push_back(static_cast<double>(S.EndNs - S.StartNs) * 1e-3);

  // What this build answers, for the cross-build comparison.
  uint64_t H = 1469598103934665603ULL;
  IndexSnapshot Snap = B.Service->snapshot();
  for (size_t Q = 0; Q < 16; ++Q) {
    KernelProfile Profile = queryProfile(Logs.make(IndexLogs + Q), *B.P);
    H = digestHits(Snap.query(Profile, TopK, true, Width), H);
    H = digestHits(Snap.queryApprox(Profile, TopK, true, 0, Width), H);
  }
  B.Digest = H;
  return B;
}

/// A small blocking FIFO handing futures from the generator to the
/// collector.
template <typename T> class Handoff {
public:
  void push(T V) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Q.push_back(std::move(V));
    }
    Cv.notify_one();
  }
  /// \returns false once closed and drained.
  bool pop(T &V) {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return !Q.empty() || Closed; });
    if (Q.empty())
      return false;
    V = std::move(Q.front());
    Q.pop_front();
    return true;
  }
  void close() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Closed = true;
    }
    Cv.notify_all();
  }

private:
  std::mutex M;
  std::condition_variable Cv;
  std::deque<T> Q;
  bool Closed = false;
};

void sleepUntilNs(uint64_t Target) {
  const uint64_t Now = nowNs();
  if (Target > Now + 200000)
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(Target - Now - 100000));
  while (nowNs() < Target)
    std::this_thread::yield();
}

QueryServerOptions serverOptions() {
  QueryServerOptions Options;
  Options.MaxBatch = CapacityWindow;
  Options.MaxWaitMicros = 200;
  Options.QueueCapacity = QueueCapacity;
  Options.Overflow = OverflowPolicy::Reject;
  Options.ExecThreads = Width;
  Options.Approx = true;
  return Options;
}

void setFromSpans(Report &Out, const std::string &Metric,
                  const std::map<std::string, double> &Self,
                  const char *Name) {
  auto It = Self.find(Name);
  Out.set(Metric, It == Self.end() ? 0.0 : It->second, "s");
}

} // namespace

void perfbench::runServe(const RunOptions &Options, Report &Out,
                         SpanRecorder &Spans, SpanRecorder &WriterSpans) {
  LogSource Logs(Options.Seed);
  Out.provenance("index_logs", static_cast<double>(IndexLogs));
  Out.provenance("held_out_queries", static_cast<double>(HeldOut));
  Out.provenance("shards", static_cast<double>(Shards));
  Out.provenance("ranks", "1..4");
  Out.provenance("query_rate_per_s", QueryRate);
  Out.provenance("ingest_rate_per_s", IngestRate);
  Out.provenance("kernel", kernel().name());

  // The held-out query logs double as the renderer's round-trip check.
  bool RoundTrips = true;
  std::vector<LogSource::Log> QueryLogs;
  for (size_t Q = 0; Q < HeldOut; ++Q) {
    QueryLogs.push_back(Logs.make(IndexLogs + Q));
    const LogSource::Log &L = QueryLogs.back();
    StraceStats Stats;
    Expected<Trace> T = parseStrace(L.Text, L.Name, &Stats);
    RoundTrips &= T && T->events() == straceVisibleEvents(L.Generated) &&
                  Stats.LinesSkipped == L.Lines.Skipped &&
                  Stats.CallsFailed == L.Lines.Failed;
  }
  Out.gate("strace_round_trip", RoundTrips,
           "parseStrace(render(T)) did not give back T's events");

  // Set-up: cold builds; the traced run traces the middle one. Until
  // phase 2 starts threads the main thread works alone, so it runs on
  // all CPUs in turn.
  std::optional<CpuRotation> Rotate;
  Rotate.emplace();
  Out.provenance("rotation_cpus", static_cast<double>(Rotate->cpus()));
  SpanRecorder Off(false);
  std::vector<double> SetupUntraced;
  Build Kept, Traced;
  bool BuildsAgree = true;
  for (size_t I = 0; I < SetupBuilds; ++I) {
    const bool TraceThis = Options.Trace && I == 1;
    Build B = coldBuild(Logs, TraceThis ? Spans : Off);
    Out.gate("build_" + std::to_string(I), B.Ok, "a log failed to parse");
    if (I > 0)
      BuildsAgree &= B.Digest == Kept.Digest;
    if (!TraceThis)
      SetupUntraced.push_back(B.Seconds);
    std::fprintf(stderr, "build %zu %s %.6f s cpu (fit %.6f s), %.6f s wall\n",
                 I, TraceThis ? "traced" : "plain", B.Seconds, B.FitSeconds,
                 B.WallSeconds);
    if (TraceThis)
      Traced = std::move(B);
    else
      Kept = std::move(B); // The last untraced build serves.
  }
  Out.gate(Options.Trace ? "traced_build_equals_untraced" : "builds_agree",
           BuildsAgree, "cold builds answer differently");
  Out.set("setup_s", median(SetupUntraced), "s", SetupUntraced.size());
  if (!Out.ok())
    return;
  IndexService &Service = *Kept.Service;
  const Pipeline &P = *Kept.P;

  std::vector<KernelProfile> Queries;
  for (const LogSource::Log &L : QueryLogs)
    Queries.push_back(queryProfile(L, P));
  QueryLogs.clear();

  // Phase 1: save the freshly routed service (before any ingest — a
  // shard with a tail or tombstones is saved without routing), then
  // restart from the images repeatedly.
  const std::string Dir = Options.WorkDir + "/serve-images";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::vector<double> SaveMs, LoadMs, RestoreMs, RestartMs;
  for (size_t I = 0; I < 3; ++I) {
    const uint64_t Start = nowNs();
    Status S = writeShardedProfileImages(Service.toShardCaches(), Dir);
    SaveMs.push_back(msSince(Start));
    Out.gate("save_" + std::to_string(I), S.ok(),
             S.ok() ? "" : S.message());
  }
  double SaveBytes = 0.0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    SaveBytes += static_cast<double>(Entry.file_size());

  std::vector<std::vector<ServiceHit>> Saved;
  for (size_t Q = 0; Q < CheckedQueries; ++Q)
    Saved.push_back(Service.queryApprox(Queries[Q], TopK, true, 0, Width));

  IndexServiceOptions SvcOpts;
  SvcOpts.Shards = Shards;
  uint64_t Fits = 0, Rebuilds = 0;
  bool RestoredSame = true, RestoredRouted = true;
  const uint64_t RestartEnd =
      nowNs() + static_cast<uint64_t>(Options.Seconds * RestartShare * 1e9);
  for (size_t R = 0; nowNs() < RestartEnd || R < 20; ++R) {
    const uint64_t FitsBefore = kmeansFitCount();
    const uint64_t RebuildsBefore = postingRebuildCount();
    const uint64_t Start = nowNs();
    Expected<std::vector<ProfileStoreCache>> Caches =
        loadShardedProfileImages(Dir, kernel().name());
    const uint64_t Loaded = nowNs();
    if (!Caches) {
      Out.failed(1, "restart load: " + Caches.message());
      break;
    }
    Expected<IndexService> Restored =
        IndexService::fromShardCaches(Caches.take(), SvcOpts);
    const uint64_t Restored_ = nowNs();
    if (!Restored) {
      Out.failed(1, "restart restore: " + Restored.message());
      break;
    }
    std::vector<ServiceHit> First = Restored->queryApprox(
        Queries[R % Queries.size()], TopK, true, 0, Width);
    const uint64_t Answered = nowNs();
    Out.attempted();
    Fits += kmeansFitCount() - FitsBefore;
    Rebuilds += postingRebuildCount() - RebuildsBefore;
    LoadMs.push_back(static_cast<double>(Loaded - Start) * 1e-6);
    RestoreMs.push_back(static_cast<double>(Restored_ - Loaded) * 1e-6);
    RestartMs.push_back(static_cast<double>(Answered - Start) * 1e-6);
    if (R == 0) {
      RestoredRouted = Restored->snapshot().routedShardCount() == Shards;
      RestoredSame = First == Service.queryApprox(Queries[0], TopK, true, 0,
                                                  Width);
      for (size_t Q = 0; Q < CheckedQueries; ++Q)
        RestoredSame &=
            Restored->queryApprox(Queries[Q], TopK, true, 0, Width) ==
            Saved[Q];
    }
  }
  std::filesystem::remove_all(Dir);
  Out.gate("restored_equals_saved", RestoredSame,
           "a restored service answered differently");
  Out.gate("restored_routed", RestoredRouted, "restart lost routing");
  Out.gate("restart_rebuild_free", Fits == 0 && Rebuilds == 0,
           std::to_string(Fits) + " k-means fits, " +
               std::to_string(Rebuilds) + " posting rebuilds");

  Rotate.reset(); // Threads started below must not inherit one CPU.

  // Phase 2: open-loop queries at a fixed rate through QueryServer,
  // beside one writer ingesting (and later removing) a fixed count of
  // fresh logs at its own fixed rate.
  const size_t NumQueries =
      static_cast<size_t>(QueryRate * Options.Seconds * OpenLoopShare);
  const size_t NumIngest =
      static_cast<size_t>(IngestRate * Options.Seconds * IngestShare);
  std::vector<double> AnswerMs, LateMs, IngestMs, RemoveUs;
  size_t Rejected = 0, IngestFailed = 0;
  ServerStats::Snapshot OpenStats;
  BuildCounters IngestCounters;
  {
    QueryServer Server(Service, serverOptions());
    const uint64_t Start = nowNs() + 1000000;
    std::thread Writer([&] {
      for (size_t J = 0; J < NumIngest; ++J) {
        LogSource::Log L = Logs.make(IndexLogs + HeldOut + J, "ing");
        sleepUntilNs(Start + static_cast<uint64_t>(1e9 * J / IngestRate));
        const uint64_t T0 = nowNs();
        const int64_t Root = WriterSpans.open("serve.ingest", J);
        if (!ingestLog(L, P, Service, WriterSpans, IngestCounters))
          ++IngestFailed;
        WriterSpans.close(Root);
        IngestMs.push_back(msSince(T0));
        if (J >= RemoveLag) {
          const uint64_t R0 = nowNs();
          SpanRecorder::Scope Span(&WriterSpans, "index.remove", J);
          Service.remove("ing" + std::to_string(J - RemoveLag));
          RemoveUs.push_back(static_cast<double>(nowNs() - R0) * 1e-3);
        }
      }
    });
    Handoff<std::pair<std::future<QueryResponse>, uint64_t>> Pending;
    std::thread Collector([&] {
      std::pair<std::future<QueryResponse>, uint64_t> Item;
      while (Pending.pop(Item)) {
        QueryResponse R = Item.first.get();
        const uint64_t Done = nowNs();
        if (R.Status != ServeStatus::Ok)
          ++Rejected;
        else
          AnswerMs.push_back(static_cast<double>(Done - Item.second) * 1e-6);
      }
    });
    for (size_t I = 0; I < NumQueries; ++I) {
      const uint64_t Due =
          Start + static_cast<uint64_t>(1e9 * I / QueryRate);
      sleepUntilNs(Due);
      LateMs.push_back(static_cast<double>(nowNs() - Due) * 1e-6);
      Pending.push(
          {Server.submitBorrowed(Queries[I % Queries.size()], TopK), Due});
    }
    Pending.close();
    Collector.join();
    Writer.join();
    OpenStats = Server.stats().snapshot();
  }
  Out.attempted(NumQueries + NumIngest + RemoveUs.size());
  Out.failed(Rejected, std::to_string(Rejected) + " queries rejected");
  Out.failed(IngestFailed, std::to_string(IngestFailed) + " ingests failed");

  // Phase 3: capacity, closed loop with a fixed in-flight window on the
  // quiesced service.
  size_t Completed = 0, CapacityRejected = 0;
  double CapacitySeconds = 0.0;
  ServerStats::Snapshot CapacityStats;
  {
    QueryServer Server(Service, serverOptions());
    std::deque<std::future<QueryResponse>> Window;
    size_t Next = 0;
    const uint64_t Start = nowNs();
    const uint64_t End =
        Start + static_cast<uint64_t>(Options.Seconds * CapacityShare * 1e9);
    while (Window.size() < CapacityWindow)
      Window.push_back(
          Server.submitBorrowed(Queries[Next++ % Queries.size()], TopK));
    while (nowNs() < End) {
      QueryResponse R = Window.front().get();
      Window.pop_front();
      (R.Status == ServeStatus::Ok ? Completed : CapacityRejected) += 1;
      Window.push_back(
          Server.submitBorrowed(Queries[Next++ % Queries.size()], TopK));
    }
    CapacitySeconds = static_cast<double>(nowNs() - Start) * 1e-9;
    for (std::future<QueryResponse> &F : Window)
      F.wait(); // Drained after the window closed; not counted.
    CapacityStats = Server.stats().snapshot();
  }
  Out.attempted(Completed + CapacityRejected);
  Out.failed(CapacityRejected,
             std::to_string(CapacityRejected) + " capacity queries rejected");

  // Phase 4: the quiesced snapshot — synchronous exact and routed
  // answers, recall, and batched == synchronous.
  IndexSnapshot Snap = Service.snapshot();
  std::vector<double> ExactMs, RoutedMs;
  double Recall = 0.0;
  std::vector<std::vector<ServiceHit>> Routed;
  for (const KernelProfile &Q : Queries) {
    uint64_t T0 = nowNs();
    std::vector<ServiceHit> Exact = Snap.query(Q, TopK, true, Width);
    ExactMs.push_back(msSince(T0));
    T0 = nowNs();
    Routed.push_back(Snap.queryApprox(Q, TopK, true, 0, Width));
    RoutedMs.push_back(msSince(T0));
    std::set<std::string> Names;
    for (const ServiceHit &H : Exact)
      Names.insert(H.Name);
    size_t Hits = 0;
    for (const ServiceHit &H : Routed.back())
      Hits += Names.count(H.Name);
    Recall += Exact.empty() ? 1.0
                            : static_cast<double>(Hits) /
                                  static_cast<double>(Exact.size());
  }
  Recall /= static_cast<double>(Queries.size());
  Out.attempted(2 * Queries.size());
  bool BatchedSame = true;
  {
    QueryServer Server(Service, serverOptions());
    std::vector<std::future<QueryResponse>> Futures;
    for (size_t Q = 0; Q < CheckedQueries; ++Q)
      Futures.push_back(Server.submitBorrowed(Queries[Q], TopK));
    for (size_t Q = 0; Q < CheckedQueries; ++Q) {
      QueryResponse R = Futures[Q].get();
      BatchedSame &= R.Status == ServeStatus::Ok && R.Hits == Routed[Q];
    }
  }
  Out.gate("batched_equals_sync", BatchedSame,
           "QueryServer answered differently from queryApprox");

  Out.set("answer_ms", median(AnswerMs), "ms", AnswerMs.size());
  Out.set("capacity_qps",
          static_cast<double>(Completed) / CapacitySeconds, "1/s",
          Completed);
  Out.set("ingest_ms", median(IngestMs), "ms", IngestMs.size());
  Out.set("quality", Recall, "ratio", Queries.size());
  Out.set("answer_p99_ms", percentile(AnswerMs, 99), "ms", AnswerMs.size());
  Out.set("restart_ms", median(RestartMs), "ms", RestartMs.size());
  std::fprintf(stderr,
               "open loop: %zu answers, %zu rejected, %zu ingests; "
               "capacity %zu in %.3f s\n",
               AnswerMs.size(), Rejected, IngestMs.size(), Completed,
               CapacitySeconds);

  if (!Options.Trace)
    return;

  // Per-layer: the traced cold build, the ingest writer's spans, the
  // synchronous calls above and QueryServer's own statistics.
  std::map<std::string, double> Self;
  double Total = 0.0;
  for (int64_t Root : Traced.Roots) {
    for (const auto &[Name, Seconds] : Spans.selfSeconds(Root))
      Self[Name] += Seconds;
    Total += Spans.durationSeconds(Root);
  }
  const BuildCounters &C = Traced.Counters;
  setFromSpans(Out, "trace.parse_s", Self, "trace.parse");
  setFromSpans(Out, "tree.build_s", Self, "tree.build");
  setFromSpans(Out, "tree.compress_s", Self, "tree.compress");
  setFromSpans(Out, "core.flatten_s", Self, "core.flatten");
  setFromSpans(Out, "kernels.profile_s", Self, "kernels.profile");
  setFromSpans(Out, "index.add_s", Self, "index.add");
  setFromSpans(Out, "index.route_fit_s", Self, "index.route_fit");
  const double Glue = Self["serve.build"] + Self["serve.fit"];
  Out.set("bench.glue_s", Glue, "s");
  Out.set("bench.attributed_pct", 100.0 * (1.0 - Glue / Total), "%");
  Out.set("bench.traced_total_s", Traced.Seconds, "s");
  Out.set("bench.trace_overhead_pct",
          100.0 * (Traced.Seconds - median(SetupUntraced)) /
              median(SetupUntraced),
          "%", SetupUntraced.size());
  Out.set("trace.events", C.Events, "count");
  Out.set("trace.lines_skipped", C.Skipped, "count");
  Out.set("trace.calls_failed", C.Failed, "count");
  Out.set("tree.leaves_in", C.LeavesIn, "count");
  Out.set("tree.leaves_out", C.LeavesOut, "count");
  Out.set("core.tokens_per_string", C.Tokens / C.Logs, "count");
  Out.set("kernels.features_per_profile", C.Features / C.Logs, "count");

  Out.set("index.add_us", median(Traced.AddUs), "us", Traced.AddUs.size());
  Out.set("index.remove_us", median(RemoveUs), "us", RemoveUs.size());
  Out.set("index.query_exact_ms", median(ExactMs), "ms", ExactMs.size());
  Out.set("index.query_routed_ms", median(RoutedMs), "ms", RoutedMs.size());
  Out.set("index.tombstone_debt",
          static_cast<double>(Snap.entryCount() - Snap.size()), "count");
  Out.set("index.routed_shards",
          static_cast<double>(Snap.routedShardCount()), "count");
  Out.set("index.restore_ms", median(RestoreMs), "ms", RestoreMs.size());
  Out.set("index.restart_fits", static_cast<double>(Fits), "count");
  Out.set("index.restart_rebuilds", static_cast<double>(Rebuilds), "count");

  Out.set("runtime.queue_wait_p50_us", OpenStats.QueueWaitNs.P50 * 1e-3, "us",
          OpenStats.QueueWaitNs.Count);
  Out.set("runtime.queue_wait_p99_us", OpenStats.QueueWaitNs.P99 * 1e-3, "us",
          OpenStats.QueueWaitNs.Count);
  Out.set("runtime.execute_p50_us", OpenStats.ExecuteNs.P50 * 1e-3, "us",
          OpenStats.ExecuteNs.Count);
  Out.set("runtime.execute_p99_us", OpenStats.ExecuteNs.P99 * 1e-3, "us",
          OpenStats.ExecuteNs.Count);
  Out.set("runtime.batch_mean", OpenStats.BatchSize.Mean, "count",
          OpenStats.BatchSize.Count);
  Out.set("runtime.capacity_batch_mean", CapacityStats.BatchSize.Mean,
          "count", CapacityStats.BatchSize.Count);
  Out.set("runtime.rejected", static_cast<double>(OpenStats.Rejected),
          "count");

  Out.set("workloads.save_ms", median(SaveMs), "ms", SaveMs.size());
  Out.set("workloads.save_bytes", SaveBytes, "bytes");
  Out.set("workloads.load_ms", median(LoadMs), "ms", LoadMs.size());
  Out.set("bench.late_p99_ms", percentile(LateMs, 99), "ms", LateMs.size());
  Out.set("bench.late_max_ms", percentile(LateMs, 100), "ms", LateMs.size());
}
