//===- perfbench/src/Analysis.cpp - paper and ranks workloads -------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Analysis.h"
#include "Rotation.h"

#include "core/KastKernel.h"
#include "core/KernelMatrix.h"
#include "core/Pipeline.h"
#include "linalg/Eigen.h"
#include "ml/ClusterMetrics.h"
#include "ml/HierarchicalClustering.h"
#include "ml/KernelPca.h"
#include "trace/TraceParser.h"
#include "trace/TraceWriter.h"
#include "workloads/DatasetBuilder.h"
#include "workloads/ParallelTrace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

using namespace kast;
using namespace perfbench;

namespace {

/// The inputs of one analysis workload, made once before any pass.
struct AnalysisInput {
  std::vector<std::string> Names;
  std::vector<std::string> Texts; ///< Canonical trace text (formatTrace).
  std::vector<std::string> Labels;
  bool BothRepresentations = false;
  std::vector<uint64_t> Cuts;
  size_t ClusterCut = 3;
};

/// One (representation, cut weight) row of a pass.
struct ConfigOutcome {
  uint64_t Digest = 0; ///< Repaired Gram, KPCA output and clustering.
  double Purity = 0.0;
  double Ari = 0.0;
};

struct PassOutcome {
  bool Ok = true;
  std::vector<ConfigOutcome> Configs;
  /// Wall and thread CPU time of the pass. A pass is one thread at
  /// width 1 with no I/O, so the two differ only by time the thread was
  /// ready but not running: on a shared VM, hypervisor steal.
  double Seconds = 0.0;
  double CpuSeconds = 0.0;
  /// Per trace, thread CPU time: parse + every conversion.
  std::vector<double> IngestMs;
  // Traced passes only.
  std::map<std::string, double> Self;
  double TracedSeconds = 0.0;
  double Events = 0, Lines = 0, LeavesIn = 0, LeavesOut = 0, Tokens = 0,
         Strings = 0, GramPairs = 0, JacobiSweeps = 0;
  bool KpcaSplitMatches = true;
};

/// FNV-1a over 64-bit words.
struct Digest {
  uint64_t H = 1469598103934665603ULL;
  void word(uint64_t W) {
    H ^= W;
    H *= 1099511628211ULL;
  }
  void doubles(const std::vector<double> &V) {
    for (double D : V) {
      uint64_t W;
      std::memcpy(&W, &D, sizeof(W));
      word(W);
    }
  }
};

/// Parse, both conversions and the full analysis of every row. Traced
/// passes split Pipeline::convert into buildTree / compressTree /
/// flattenTree and materialize into normalization + projectToPsdIfNeeded;
/// the centering and eigendecomposition kernelPca runs internally are
/// re-run beside it after the pass and recorded as its children.
PassOutcome runPass(const AnalysisInput &In, SpanRecorder &S) {
  using Scope = SpanRecorder::Scope;
  const bool Traced = S.enabled();
  PassOutcome Out;
  struct Beside {
    int64_t KpcaSpan;
    Matrix Gram;
    std::vector<double> Eigenvalues;
  };
  std::vector<Beside> Besides;

  const uint64_t Start = nowNs();
  const uint64_t CpuStart = threadCpuNs();
  const int64_t Root = S.open("pass");
  std::vector<Pipeline> Pipes;
  Pipes.push_back(Pipeline::withBytes());
  if (In.BothRepresentations)
    Pipes.push_back(Pipeline::withoutBytes());
  std::vector<std::vector<WeightedString>> Strings(Pipes.size());

  for (size_t I = 0; I < In.Texts.size(); ++I) {
    const uint64_t IngestStart = threadCpuNs();
    Expected<Trace> T = Trace();
    {
      Scope Span(&S, "trace.parse", I);
      T = parseTrace(In.Texts[I], In.Names[I]);
    }
    if (!T) {
      Out.Ok = false;
      S.close(Root);
      return Out;
    }
    for (size_t P = 0; P < Pipes.size(); ++P) {
      if (!Traced) {
        Strings[P].push_back(Pipes[P].convert(*T));
        continue;
      }
      const PipelineOptions &Opts = Pipes[P].options();
      PatternTree Tree;
      CompressionStats Stats;
      {
        Scope Span(&S, "tree.build", I);
        Tree = buildTree(*T, Opts.Builder);
      }
      {
        Scope Span(&S, "tree.compress", I);
        Stats = compressTree(Tree, Opts.Compressor);
      }
      WeightedString W;
      {
        Scope Span(&S, "core.flatten", I);
        W = flattenTree(Tree, Pipes[P].table(), Opts.Flatten);
      }
      W.setName(T->name());
      Out.LeavesIn += static_cast<double>(Stats.LeavesBefore);
      Out.LeavesOut += static_cast<double>(Stats.LeavesAfter);
      Out.Tokens += static_cast<double>(W.size());
      Out.Strings += 1;
      Strings[P].push_back(std::move(W));
    }
    if (Traced) {
      Out.Events += static_cast<double>(T->size());
      Out.Lines += static_cast<double>(
          std::count(In.Texts[I].begin(), In.Texts[I].end(), '\n'));
    }
    Out.IngestMs.push_back(static_cast<double>(threadCpuNs() - IngestStart) *
                           1e-6);
  }

  const size_t N = In.Texts.size();
  for (size_t P = 0; P < Pipes.size(); ++P) {
    for (uint64_t Cut : In.Cuts) {
      KastKernelOptions KernelOpts;
      KernelOpts.CutWeight = Cut;
      KastSpectrumKernel Kernel(KernelOpts);
      KernelMatrixOptions GramOpts;
      GramOpts.Normalize = true;
      GramOpts.RepairPsd = !Traced; // Traced passes repair explicitly.
      GramOpts.Threads = Width;
      KernelMatrix Gram(Kernel, GramOpts);
      {
        Scope Span(&S, "core.gram");
        Gram.appendRows(Strings[P]);
      }
      Matrix K;
      if (!Traced) {
        K = Gram.materialize();
      } else {
        {
          Scope Span(&S, "core.normalize");
          K = Gram.materialize();
        }
        Scope Span(&S, "linalg.psd_repair");
        K = projectToPsdIfNeeded(K);
      }
      KernelPcaResult Pca;
      {
        Scope Span(&S, "ml.kpca");
        Pca = kernelPca(K, 2);
        if (Traced)
          Besides.push_back({Span.id(), Matrix(), {}});
      }
      std::vector<size_t> Flat;
      {
        Scope Span(&S, "ml.cluster");
        Dendrogram D = clusterHierarchical(similarityToDistance(K));
        Flat = D.cutToClusters(In.ClusterCut);
      }
      ConfigOutcome C;
      {
        Scope Span(&S, "ml.metrics");
        C.Purity = purity(Flat, In.Labels);
        C.Ari = adjustedRandIndex(Flat, In.Labels);
      }
      Digest D;
      D.doubles(K.data());
      D.doubles(Pca.Projections.data());
      D.doubles(Pca.Eigenvalues);
      for (size_t F : Flat)
        D.word(F);
      C.Digest = D.H;
      Out.Configs.push_back(C);
      Out.GramPairs += static_cast<double>(N * (N + 1) / 2);
      if (Traced) {
        Besides.back().Gram = std::move(K);
        Besides.back().Eigenvalues = Pca.Eigenvalues;
      }
    }
  }
  S.close(Root);
  Out.Seconds = static_cast<double>(nowNs() - Start) * 1e-9;
  Out.CpuSeconds = static_cast<double>(threadCpuNs() - CpuStart) * 1e-9;

  if (Traced) {
    for (Beside &B : Besides) {
      const uint64_t T0 = nowNs();
      Matrix Centered = doubleCenter(B.Gram);
      const uint64_t T1 = nowNs();
      EigenDecomposition E = eigenSymmetric(Centered);
      const uint64_t T2 = nowNs();
      S.addChild(B.KpcaSpan, "linalg.center", T0, T1);
      S.addChild(B.KpcaSpan, "linalg.eigen", T1, T2);
      Out.JacobiSweeps += static_cast<double>(E.Sweeps);
      for (size_t J = 0; J < B.Eigenvalues.size(); ++J)
        if (J >= E.Values.size() ||
            std::memcmp(&E.Values[J], &B.Eigenvalues[J], sizeof(double)))
          Out.KpcaSplitMatches = false;
    }
    Out.Self = S.selfSeconds(Root);
    Out.TracedSeconds = S.durationSeconds(Root);
  }
  return Out;
}

bool sameAnswers(const PassOutcome &A, const PassOutcome &B) {
  if (A.Configs.size() != B.Configs.size())
    return false;
  for (size_t I = 0; I < A.Configs.size(); ++I)
    if (A.Configs[I].Digest != B.Configs[I].Digest)
      return false;
  return true;
}

/// Checks parse(formatTrace(T)) == T for the rendered inputs.
bool roundTrips(const std::vector<LabeledTrace> &Traces,
                const AnalysisInput &In) {
  for (size_t I = 0; I < Traces.size(); ++I) {
    Expected<Trace> T = parseTrace(In.Texts[I], In.Names[I]);
    if (!T || T->events() != Traces[I].T.events())
      return false;
  }
  return true;
}

/// Renders \p Traces in the order the seed deals them out. Both
/// analysis corpora are fixed; the seed only permutes the order they
/// are handed over in, so every seed must reach the same purity/ARI.
AnalysisInput inputFrom(std::vector<LabeledTrace> &Traces, uint64_t Seed) {
  Rng R(Seed * 0x9E3779B97F4A7C15ULL + 1);
  R.shuffle(Traces);
  AnalysisInput In;
  for (const LabeledTrace &L : Traces) {
    In.Names.push_back(L.T.name());
    In.Texts.push_back(formatTrace(L.T));
    In.Labels.push_back(L.Label);
  }
  return In;
}

/// Set-up, the timed window, the gates and the metrics shared by both
/// analysis workloads. \p ConfigOfRecord is the row whose purity/ARI
/// the workload reports; \returns that row of the reference pass, or
/// nothing when a pass failed outright.
///
/// The window lasts --seconds of wall time, but the end-to-end times
/// are the thread's CPU time. On the shared 4-vCPU VM the bounds were
/// set on, hypervisor steal added 0.06-0.8 s to a 1.3-1.6 s `ranks` pass
/// and came and went over minutes; the CPU clock leaves it out, and on
/// an unshared machine it reads the same as the wall clock.
/// bench.pass_wall_ms keeps the wall-clock median.
std::optional<ConfigOutcome> runAnalysis(const AnalysisInput &In,
                                         size_t ConfigOfRecord,
                                         const RunOptions &Options,
                                         Report &Out, SpanRecorder &Spans) {
  SpanRecorder Off(false);
  // Every pass, set-up included, runs on all CPUs in turn.
  CpuRotation Rotate;
  Out.provenance("rotation_cpus", static_cast<double>(Rotate.cpus()));

  // Set-up: three fresh untraced passes; the first is the reference
  // every later pass must reproduce bit for bit.
  std::vector<double> Setup;
  PassOutcome Reference;
  bool Deterministic = true;
  for (size_t I = 0; I < 3; ++I) {
    PassOutcome P = runPass(In, Off);
    Out.attempted();
    if (!P.Ok) {
      Out.failed(1, "set-up pass could not parse its input");
      return std::nullopt;
    }
    Setup.push_back(P.CpuSeconds);
    if (I == 0)
      Reference = std::move(P);
    else
      Deterministic &= sameAnswers(P, Reference);
  }
  Out.set("setup_s", median(Setup), "s", Setup.size());
  const ConfigOutcome Record = Reference.Configs[ConfigOfRecord];
  Out.set("quality", Record.Ari, "ratio");
  Out.set("ml.purity", Record.Purity, "ratio");
  Out.set("ml.ari", Record.Ari, "ratio");

  // Timed window: untraced passes only, or (traced run) untraced and
  // traced passes alternating, so both sides see the same machine.
  std::vector<PassOutcome> Plain, Traced;
  const uint64_t Begin = nowNs();
  const uint64_t Deadline =
      Begin + static_cast<uint64_t>(Options.Seconds * 1e9);
  while (nowNs() < Deadline || Plain.size() < 3 ||
         (Options.Trace && Traced.size() < 3)) {
    const bool TraceThis = Options.Trace && Traced.size() < Plain.size();
    PassOutcome P = runPass(In, TraceThis ? Spans : Off);
    Out.attempted();
    if (!P.Ok) {
      Out.failed(1, "timed pass could not parse its input");
      return std::nullopt;
    }
    std::fprintf(stderr, "pass %s %.6f s (cpu %.6f s)\n",
                 TraceThis ? "traced" : "plain", P.Seconds, P.CpuSeconds);
    (TraceThis ? Traced : Plain).push_back(std::move(P));
  }

  for (const PassOutcome &P : Plain)
    Deterministic &= sameAnswers(P, Reference);
  Out.gate("passes_reproduce_reference", Deterministic,
           "an untraced pass answered differently from the first");
  bool TracedSame = true, SplitMatches = true;
  for (const PassOutcome &P : Traced) {
    TracedSame &= sameAnswers(P, Reference);
    SplitMatches &= P.KpcaSplitMatches;
  }
  if (Options.Trace) {
    Out.gate("traced_equals_untraced", TracedSame,
             "a traced pass answered differently from the untraced ones");
    Out.gate("kpca_split_matches", SplitMatches,
             "doubleCenter + eigenSymmetric disagree with kernelPca");
  }

  std::vector<double> PassMs, WallMs, IngestMs;
  double PlainCpuSeconds = 0.0;
  for (const PassOutcome &P : Plain) {
    PassMs.push_back(P.CpuSeconds * 1e3);
    WallMs.push_back(P.Seconds * 1e3);
    PlainCpuSeconds += P.CpuSeconds;
    IngestMs.insert(IngestMs.end(), P.IngestMs.begin(), P.IngestMs.end());
  }
  Out.set("answer_ms", median(PassMs), "ms", PassMs.size());
  // Closed loop, one pass at a time: passes per CPU second. In a traced
  // run this counts the untraced passes only.
  Out.set("capacity_qps", static_cast<double>(Plain.size()) / PlainCpuSeconds,
          "1/s", Plain.size());
  Out.set("bench.pass_wall_ms", median(WallMs), "ms", WallMs.size());
  Out.set("ingest_ms", median(IngestMs), "ms", IngestMs.size());

  if (!Options.Trace)
    return Record;

  // Per-layer: medians over the traced passes of each layer's self time.
  auto Layer = [&](const std::string &Metric, const char *SpanName) {
    std::vector<double> V;
    for (const PassOutcome &P : Traced) {
      auto It = P.Self.find(SpanName);
      V.push_back(It == P.Self.end() ? 0.0 : It->second);
    }
    Out.set(Metric, perfbench::median(V), "s", V.size());
  };
  Layer("trace.parse_s", "trace.parse");
  Layer("tree.build_s", "tree.build");
  Layer("tree.compress_s", "tree.compress");
  Layer("core.flatten_s", "core.flatten");
  Layer("core.gram_s", "core.gram");
  Layer("core.normalize_s", "core.normalize");
  Layer("linalg.psd_repair_s", "linalg.psd_repair");
  Layer("linalg.center_s", "linalg.center");
  Layer("linalg.eigen_s", "linalg.eigen");
  Layer("ml.kpca_s", "ml.kpca");
  Layer("ml.cluster_s", "ml.cluster");
  Layer("ml.metrics_s", "ml.metrics");
  Layer("bench.glue_s", "pass");

  const PassOutcome &First = Traced.front();
  Out.set("trace.events", First.Events, "count");
  Out.set("trace.lines_skipped", First.Lines - First.Events, "count");
  Out.set("trace.calls_failed", 0.0, "count");
  Out.set("tree.leaves_in", First.LeavesIn, "count");
  Out.set("tree.leaves_out", First.LeavesOut, "count");
  Out.set("core.tokens_per_string", First.Tokens / First.Strings, "count");
  Out.set("core.gram_pairs", First.GramPairs, "count");
  Out.set("linalg.jacobi_sweeps", First.JacobiSweeps, "count");

  std::vector<double> TracedMs, TracedTotal, Attributed;
  for (const PassOutcome &P : Traced) {
    TracedMs.push_back(P.CpuSeconds * 1e3);
    TracedTotal.push_back(P.TracedSeconds);
    double Glue = P.Self.count("pass") ? P.Self.at("pass") : 0.0;
    Attributed.push_back(100.0 * (1.0 - Glue / P.TracedSeconds));
  }
  Out.set("bench.traced_total_s", perfbench::median(TracedTotal), "s",
          TracedTotal.size());
  const double PlainMedian = perfbench::median(PassMs);
  Out.set("bench.trace_overhead_pct",
          100.0 * (perfbench::median(TracedMs) - PlainMedian) / PlainMedian,
          "%", Traced.size());
  Out.set("bench.attributed_pct", perfbench::median(Attributed), "%",
          Attributed.size());
  return Record;
}

/// The ranks corpus is one fixed draw, like the paper's.
constexpr uint64_t RanksCorpusSeed = 20170905;

} // namespace

void perfbench::runPaper(const RunOptions &Options, Report &Out,
                         SpanRecorder &Spans) {
  std::vector<LabeledTrace> Corpus = generateCorpus();
  AnalysisInput In = inputFrom(Corpus, Options.Seed);
  In.BothRepresentations = true;
  for (uint64_t Exp = 1; Exp <= 10; ++Exp)
    In.Cuts.push_back(1ULL << Exp);
  In.ClusterCut = 3;
  Out.gate("inputs_round_trip", roundTrips(Corpus, In),
           "parseTrace(formatTrace(T)) != T");
  Out.provenance("traces", static_cast<double>(In.Texts.size()));
  Out.provenance("cut_weights", "2^1..2^10");
  Out.provenance("representations", "bytes,no-bytes");

  // Row 0 is Table 1's Kast row at cut 2 with bytes: 3-cut purity
  // 0.818 and ARI 0.850, to the three places the table prints.
  std::optional<ConfigOutcome> Row = runAnalysis(In, 0, Options, Out, Spans);
  if (!Row)
    return;
  auto Round3 = [](double V) { return std::round(V * 1000.0) / 1000.0; };
  Out.gate("paper_purity_0.818", Round3(Row->Purity) == 0.818,
           "purity " + std::to_string(Row->Purity));
  Out.gate("paper_ari_0.850", Round3(Row->Ari) == 0.850,
           "ARI " + std::to_string(Row->Ari));
}

void perfbench::runRanks(const RunOptions &Options, Report &Out,
                         SpanRecorder &Spans) {
  const Category Categories[] = {Category::FlashIO, Category::RandomPosix,
                                 Category::NormalIO, Category::RandomAccess};
  constexpr size_t BasesPerCategory = 4, Mutants = 4;
  constexpr size_t NumBases = 4 * BasesPerCategory;
  Rng Master(RanksCorpusSeed);
  // One rank count per base, spread evenly over 16..48.
  std::vector<size_t> RankCounts;
  for (size_t B = 0; B < NumBases; ++B)
    RankCounts.push_back(16 + (32 * B + 7) / (NumBases - 1));
  Master.shuffle(RankCounts);

  std::vector<LabeledTrace> Corpus;
  for (size_t C = 0; C < 4; ++C) {
    const std::string Label = categoryLabel(Categories[C]);
    for (size_t B = 0; B < BasesPerCategory; ++B) {
      Rng E = Master.split();
      Trace Base = generateParallelTrace(
          Categories[C], RankCounts[C * BasesPerCategory + B], E);
      Base.setName(Label + std::to_string(B) + ".0");
      Corpus.push_back({Base, Label, B, false});
      for (size_t M = 1; M <= Mutants; ++M) {
        Trace Mutant = mutateTrace(Base, E);
        Mutant.setName(Label + std::to_string(B) + "." + std::to_string(M));
        Corpus.push_back({std::move(Mutant), Label, B, true});
      }
    }
  }

  AnalysisInput In = inputFrom(Corpus, Options.Seed);
  In.BothRepresentations = false;
  In.Cuts = {2};
  In.ClusterCut = 4;
  Out.gate("inputs_round_trip", roundTrips(Corpus, In),
           "parseTrace(formatTrace(T)) != T");
  Out.provenance("traces", static_cast<double>(In.Texts.size()));
  Out.provenance("ranks", "16..48");
  Out.provenance("cut_weights", "2");

  // This corpus's 4-cut at the time the benchmark was written: 60 of
  // 80 traces in their cluster's majority category.
  std::optional<ConfigOutcome> Row = runAnalysis(In, 0, Options, Out, Spans);
  if (!Row)
    return;
  Out.gate("ranks_purity_0.75", std::fabs(Row->Purity - 0.75) < 1e-12,
           "purity " + std::to_string(Row->Purity));
  Out.gate("ranks_ari_0.640995", std::fabs(Row->Ari - 0.640994977278163) < 1e-12,
           "ARI " + std::to_string(Row->Ari));
}
