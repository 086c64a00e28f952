//===- bench/perf_pipeline.cpp - conversion-stage microbenchmarks ----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Per-stage cost of the trace-to-string conversion: parsing, tree
// construction, compression (with the pass-count ablation from
// DESIGN.md), and flattening. Trace size scales with the generator's
// Scale knob; BM_ParseTraceParallel parses one interleaved 32-rank run.
//
//===----------------------------------------------------------------------===//

#include "core/KernelMatrix.h"
#include "core/Pipeline.h"
#include "core/TreeFlattener.h"
#include "kernels/SpectrumKernels.h"
#include "trace/TraceParser.h"
#include "trace/TraceWriter.h"
#include "tree/TreeBuilder.h"
#include "tree/TreeCompressor.h"
#include "util/Rng.h"
#include "workloads/DatasetBuilder.h"
#include "workloads/Generators.h"
#include "workloads/ParallelTrace.h"

#include <benchmark/benchmark.h>

using namespace kast;

namespace {

Trace scaledTrace(size_t Scale) {
  Rng R(Scale * 97 + 3);
  GeneratorConfig Config;
  Config.Scale = Scale;
  return generateFlashIO(R, Config);
}

void BM_ParseTrace(benchmark::State &State) {
  Trace T = scaledTrace(static_cast<size_t>(State.range(0)));
  std::string Text = formatTrace(T);
  for (auto _ : State)
    benchmark::DoNotOptimize(parseTrace(Text, "bench"));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(T.size()));
}
BENCHMARK(BM_ParseTrace)->RangeMultiplier(4)->Range(1, 64);

// The perfbench ranks shape: one 32-rank FlashIO run with its handles
// interleaved, as formatTrace writes it (2,731 lines).
void BM_ParseTraceParallel(benchmark::State &State) {
  Rng R(32);
  const Trace T = generateParallelTrace(Category::FlashIO, 32, R);
  const std::string Text = formatTrace(T);
  for (auto _ : State)
    benchmark::DoNotOptimize(parseTrace(Text, "bench"));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(T.size()));
}
BENCHMARK(BM_ParseTraceParallel);

void BM_BuildTree(benchmark::State &State) {
  Trace T = scaledTrace(static_cast<size_t>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(buildTree(T));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(T.size()));
}
BENCHMARK(BM_BuildTree)->RangeMultiplier(4)->Range(1, 64);

void BM_CompressTree(benchmark::State &State) {
  Trace T = scaledTrace(16);
  CompressorOptions Options;
  Options.Passes = static_cast<size_t>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    PatternTree Tree = buildTree(T);
    State.ResumeTiming();
    benchmark::DoNotOptimize(compressTree(Tree, Options));
  }
}
BENCHMARK(BM_CompressTree)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

void BM_FlattenTree(benchmark::State &State) {
  Trace T = scaledTrace(static_cast<size_t>(State.range(0)));
  PatternTree Tree = buildTree(T);
  compressTree(Tree);
  auto Table = TokenTable::create();
  for (auto _ : State)
    benchmark::DoNotOptimize(flattenTree(Tree, Table));
}
BENCHMARK(BM_FlattenTree)->RangeMultiplier(4)->Range(1, 64);

void BM_FullPipeline(benchmark::State &State) {
  Trace T = scaledTrace(static_cast<size_t>(State.range(0)));
  Pipeline P;
  for (auto _ : State)
    benchmark::DoNotOptimize(P.convert(T));
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(T.size()));
}
BENCHMARK(BM_FullPipeline)->RangeMultiplier(4)->Range(1, 64);

/// The learning-stage hot path downstream of conversion: the Gram
/// matrix of the paper-shaped corpus under the weighted blended
/// spectrum kernel. Arg toggles KernelMatrixOptions::UsePrecompute, so
/// the 0-row is the pre-profile O(N²·build) baseline and the 1-row the
/// profiled O(N·build + N²·dot) fast path.
void BM_CorpusGramMatrix(benchmark::State &State) {
  static std::vector<LabeledTrace> Corpus = generateCorpus();
  static LabeledDataset Data = convertCorpus(Pipeline::withBytes(), Corpus);
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  KernelMatrixOptions Options;
  Options.UsePrecompute = State.range(0) != 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        computeKernelMatrix(Kernel, Data.strings(), Options));
}
BENCHMARK(BM_CorpusGramMatrix)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
