//===- bench/perf_kernels.cpp - kernel microbenchmarks ---------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Scaling of the kernel evaluations: the Kast kernel's suffix-automaton
// path vs the quadratic reference matcher (the DESIGN.md ablation),
// the spectrum-family baselines, and the parallel Gram-matrix build,
// with the grouped Kast Gram on long parallel-trace strings and across
// Table 1's ten cut weights.
//
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/KernelMatrix.h"
#include "core/Pipeline.h"
#include "core/ProfileStore.h"
#include "kernels/GapWeightedKernel.h"
#include "kernels/SpectrumKernels.h"
#include "util/Rng.h"
#include "util/SimdDot.h"
#include "workloads/DatasetBuilder.h"
#include "workloads/Mutator.h"
#include "workloads/ParallelTrace.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>

using namespace kast;

namespace {

/// Random weighted string of \p Length tokens over \p Alphabet.
WeightedString randomString(const std::shared_ptr<TokenTable> &Table,
                            Rng &R, size_t Length, uint32_t Alphabet) {
  WeightedString S(Table);
  for (size_t I = 0; I < Length; ++I)
    S.append("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
             R.uniformInt(1, 16));
  return S;
}

/// Pair of random strings sized by the benchmark argument.
std::pair<WeightedString, WeightedString>
randomPair(size_t Length) {
  static auto Table = TokenTable::create();
  Rng R(Length * 1000 + 7);
  return {randomString(Table, R, Length, 12),
          randomString(Table, R, Length, 12)};
}

void BM_KastKernelSam(benchmark::State &State) {
  auto [A, B] = randomPair(static_cast<size_t>(State.range(0)));
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  for (auto _ : State)
    benchmark::DoNotOptimize(Kernel.evaluate(A, B));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_KastKernelSam)->RangeMultiplier(4)->Range(16, 4096)
    ->Complexity();

void BM_KastKernelReferenceDP(benchmark::State &State) {
  auto [A, B] = randomPair(static_cast<size_t>(State.range(0)));
  KastKernelOptions Options{/*CutWeight=*/2};
  Options.UseReferenceMatcher = true;
  KastSpectrumKernel Kernel(Options);
  for (auto _ : State)
    benchmark::DoNotOptimize(Kernel.evaluate(A, B));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_KastKernelReferenceDP)->RangeMultiplier(4)->Range(16, 1024)
    ->Complexity();

void BM_BlendedKernel(benchmark::State &State) {
  auto [A, B] = randomPair(static_cast<size_t>(State.range(0)));
  BlendedSpectrumKernel Kernel(3, 1.25);
  for (auto _ : State)
    benchmark::DoNotOptimize(Kernel.evaluate(A, B));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_BlendedKernel)->RangeMultiplier(4)->Range(16, 4096)
    ->Complexity();

void BM_GapWeightedKernel(benchmark::State &State) {
  auto [A, B] = randomPair(static_cast<size_t>(State.range(0)));
  GapWeightedKernel Kernel(3, 0.5);
  for (auto _ : State)
    benchmark::DoNotOptimize(Kernel.evaluate(A, B));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_GapWeightedKernel)->RangeMultiplier(4)->Range(16, 1024)
    ->Complexity();

void BM_KSpectrumKernel(benchmark::State &State) {
  auto [A, B] = randomPair(static_cast<size_t>(State.range(0)));
  KSpectrumKernel Kernel(3);
  for (auto _ : State)
    benchmark::DoNotOptimize(Kernel.evaluate(A, B));
}
BENCHMARK(BM_KSpectrumKernel)->RangeMultiplier(4)->Range(16, 4096);

/// Kast evaluation on real corpus strings (not random symbols).
void BM_KastKernelCorpusPair(benchmark::State &State) {
  static std::vector<LabeledTrace> Corpus = generateCorpus();
  static LabeledDataset Data =
      convertCorpus(Pipeline::withBytes(), Corpus);
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  size_t I = 0;
  for (auto _ : State) {
    size_t A = I % Data.size();
    size_t B = (I * 31 + 7) % Data.size();
    benchmark::DoNotOptimize(
        Kernel.evaluate(Data.string(A), Data.string(B)));
    ++I;
  }
}
BENCHMARK(BM_KastKernelCorpusPair);

/// One synthetic sparse-dot operand pair with a controlled overlap:
/// both sides sample their hash sets from a shared sorted universe of
/// |A| + |B| slots, so the expected intersection is |A|·|B| / (|A|+|B|)
/// — dense when balanced, sparse when skewed, like real profiles from
/// one corpus. The stored (B) side also carries its int8 quantization.
struct DotOperands {
  std::vector<uint64_t> AHashes, BHashes;
  std::vector<double> AValues, BValues;
  std::vector<int8_t> BQuant;
  double Scale = 0.0;
};

DotOperands makeDotOperands(size_t ASize, size_t BSize) {
  Rng R(ASize * 1000003 + BSize);
  const size_t Slots = ASize + BSize;
  std::vector<uint64_t> Universe(Slots);
  uint64_t H = 0;
  for (size_t I = 0; I < Slots; ++I) {
    H += 1 + R.uniformInt(0, 1u << 20);
    Universe[I] = H;
  }
  auto Sample = [&](size_t N) {
    std::vector<uint32_t> Idx(Slots);
    for (size_t I = 0; I < Slots; ++I)
      Idx[I] = static_cast<uint32_t>(I);
    R.shuffle(Idx);
    Idx.resize(N);
    std::sort(Idx.begin(), Idx.end());
    std::vector<uint64_t> Hashes(N);
    for (size_t I = 0; I < N; ++I)
      Hashes[I] = Universe[Idx[I]];
    return Hashes;
  };
  DotOperands Ops;
  Ops.AHashes = Sample(ASize);
  Ops.BHashes = Sample(BSize);
  auto Values = [&](size_t N) {
    std::vector<double> V(N);
    for (double &X : V)
      X = R.uniformReal() * 2.0 - 1.0;
    return V;
  };
  Ops.AValues = Values(ASize);
  Ops.BValues = Values(BSize);
  double MaxAbs = 0.0;
  for (double V : Ops.BValues)
    MaxAbs = std::max(MaxAbs, std::abs(V));
  Ops.Scale = MaxAbs > 0.0 ? MaxAbs / 127.0 : 0.0;
  Ops.BQuant.resize(BSize);
  for (size_t I = 0; I < BSize; ++I)
    Ops.BQuant[I] = static_cast<int8_t>(std::lround(Ops.BValues[I] / Ops.Scale));
  return Ops;
}

/// Dot products per second for one kernel at one size/skew shape.
/// Args are {SmallSize, SkewRatio, Kind}: the small side has SmallSize
/// entries, the large side SmallSize * SkewRatio; Kind 0 is the scalar
/// reference merge, 1 the dispatched exact kernel (gallop + SIMD
/// block; label says which ISA won dispatch), 2 the quantized scan
/// kernel. Skew 1 is the Gram/exhaustive-scan shape; skew 16-64 is the
/// query-vs-centroid / query-vs-posting routing shape. Each iteration
/// rotates through a pool of operand pairs: dotting one fixed pair
/// lets the branch predictor memorize the scalar merge's exact
/// branch sequence, overstating it by ~4x versus real scans where
/// every candidate's interleaving is fresh.
void BM_DotThroughput(benchmark::State &State) {
  const size_t Small = static_cast<size_t>(State.range(0));
  const size_t Large = Small * static_cast<size_t>(State.range(1));
  const int Kind = static_cast<int>(State.range(2));
  constexpr size_t PoolSize = 32;
  static std::map<std::pair<size_t, size_t>, std::vector<DotOperands>> Cache;
  std::vector<DotOperands> &Pool = Cache[{Small, Large}];
  if (Pool.empty())
    for (size_t I = 0; I < PoolSize; ++I)
      Pool.push_back(makeDotOperands(Small + I, Large + I));
  size_t P = 0;
  for (auto _ : State) {
    const DotOperands &Ops = Pool[P];
    P = (P + 1) % PoolSize;
    double D = 0.0;
    switch (Kind) {
    case 0:
      D = simd::dotScalar(Ops.AHashes.data(), Ops.AValues.data(),
                          Ops.AHashes.size(), Ops.BHashes.data(),
                          Ops.BValues.data(), Ops.BHashes.size());
      break;
    case 1:
      D = simd::dotExact(Ops.AHashes.data(), Ops.AValues.data(),
                         Ops.AHashes.size(), Ops.BHashes.data(),
                         Ops.BValues.data(), Ops.BHashes.size());
      break;
    default:
      D = simd::dotQuantized(Ops.AHashes.data(), Ops.AValues.data(),
                             Ops.AHashes.size(), Ops.BHashes.data(),
                             Ops.BQuant.data(), Ops.BHashes.size(), Ops.Scale);
      break;
    }
    benchmark::DoNotOptimize(D);
  }
  State.SetItemsProcessed(State.iterations());
  State.SetLabel(Kind == 0 ? "scalar"
                           : simd::kernelName(simd::activeKernel()));
}
BENCHMARK(BM_DotThroughput)
    // Balanced (Gram / exhaustive scan shape).
    ->Args({128, 1, 0})
    ->Args({128, 1, 1})
    ->Args({128, 1, 2})
    ->Args({1024, 1, 0})
    ->Args({1024, 1, 1})
    ->Args({1024, 1, 2})
    // Skewed (query vs centroid / posting segment shape).
    ->Args({64, 16, 0})
    ->Args({64, 16, 1})
    ->Args({64, 16, 2})
    ->Args({16, 64, 0})
    ->Args({16, 64, 1})
    ->Args({16, 64, 2});

void BM_GramMatrixBuild(benchmark::State &State) {
  static std::vector<LabeledTrace> Corpus = generateCorpus();
  static LabeledDataset Data =
      convertCorpus(Pipeline::withBytes(), Corpus);
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  KernelMatrixOptions Options;
  Options.Threads = static_cast<size_t>(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(
        computeKernelMatrix(Kernel, Data.strings(), Options));
}
BENCHMARK(BM_GramMatrixBuild)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// Random corpus of N strings (length 64, alphabet 12) shared across
/// the Gram benches below; one corpus per size.
const std::vector<WeightedString> &randomCorpus(size_t N) {
  static auto Table = TokenTable::create();
  static std::map<size_t, std::vector<WeightedString>> Cache;
  auto [It, Inserted] = Cache.try_emplace(N);
  if (Inserted) {
    Rng R(N * 7919 + 13);
    for (size_t I = 0; I < N; ++I)
      It->second.push_back(randomString(Table, R, 64, 12));
  }
  return It->second;
}

/// Spectrum-family Gram matrix: Args are {N, UsePrecompute}. The
/// UsePrecompute=0 rows measure the pre-profile baseline (every pair
/// rebuilds both strings' features); UsePrecompute=1 is the
/// O(N·build + N²·dot) fast path — since the ProfileStore arena, the
/// cache-blocked tile fill over structure-of-arrays views (the
/// N=1024 row is the tiled-Gram headline number).
void BM_GramMatrixSpectrum(benchmark::State &State) {
  const std::vector<WeightedString> &Corpus =
      randomCorpus(static_cast<size_t>(State.range(0)));
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  KernelMatrixOptions Options;
  Options.UsePrecompute = State.range(1) != 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(computeKernelMatrix(Kernel, Corpus, Options));
}
BENCHMARK(BM_GramMatrixSpectrum)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

/// Kast Gram matrix over random strings: Args are {N, UsePrecompute}.
/// No two of these strings share a literal-id sequence, so the grouped
/// fill has one string per group and one group pair per string pair:
/// the row where grouping has nothing to share and must cost nothing.
void BM_GramMatrixKast(benchmark::State &State) {
  const std::vector<WeightedString> &Corpus =
      randomCorpus(static_cast<size_t>(State.range(0)));
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  KernelMatrixOptions Options;
  Options.UsePrecompute = State.range(1) != 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(computeKernelMatrix(Kernel, Corpus, Options));
}
BENCHMARK(BM_GramMatrixKast)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Unit(benchmark::kMillisecond);

/// The corpus of KernelMatrixTest.ParallelTraceGramIsPinned, a reduced
/// perfbench `ranks`: in each category, two bases over 16 to 48
/// interleaved ranks plus three mutants of each, converted with bytes.
/// Its strings run to hundreds of tokens and share long runs.
const std::vector<WeightedString> &parallelTraceCorpus() {
  static const std::vector<WeightedString> Corpus = [] {
    Rng R(1648);
    const Pipeline P = Pipeline::withBytes();
    const Category Categories[] = {Category::FlashIO, Category::RandomPosix,
                                   Category::NormalIO, Category::RandomAccess};
    const size_t RankCounts[][2] = {{16, 37}, {27, 48}, {48, 21}, {32, 16}};
    std::vector<WeightedString> Out;
    for (size_t C = 0; C < 4; ++C)
      for (size_t Ranks : RankCounts[C]) {
        const Trace Base = generateParallelTrace(Categories[C], Ranks, R);
        Out.push_back(P.convert(Base));
        for (int M = 0; M < 3; ++M)
          Out.push_back(P.convert(mutateTrace(Base, R)));
      }
    return Out;
  }();
  return Corpus;
}

/// Kast Gram of the parallel-trace corpus at cut 2, inline: unlike
/// BM_GramMatrixKast's random strings, these share long runs, so the
/// candidate walk meets long matches and deep suffix-link chains.
void BM_GramMatrixKastParallel(benchmark::State &State) {
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  KernelMatrixOptions Options;
  Options.Threads = 1;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        computeKernelMatrix(Kernel, parallelTraceCorpus(), Options));
}
BENCHMARK(BM_GramMatrixKastParallel)->Unit(benchmark::kMillisecond);

/// Table 1's raw Kast Grams: the paper corpus with bytes at cut weights
/// 2^1 .. 2^10, inline. Arg 0 fills one KernelMatrix per cut, which
/// finds every group pair's candidates ten times; Arg 1 makes one
/// computeKastGrams call, which finds them once for all ten cuts.
void BM_GramMatrixKastCuts(benchmark::State &State) {
  static const LabeledDataset Data =
      convertCorpus(Pipeline::withBytes(), generateCorpus());
  std::vector<uint64_t> Cuts;
  for (uint64_t Exp = 1; Exp <= 10; ++Exp)
    Cuts.push_back(uint64_t{1} << Exp);
  KernelMatrixOptions Options;
  Options.Normalize = false;
  Options.Threads = 1;
  for (auto _ : State) {
    if (State.range(0) == 0) {
      for (uint64_t Cut : Cuts) {
        KastSpectrumKernel Kernel({Cut});
        KernelMatrix Gram(Kernel, Options);
        Gram.appendRows(Data.strings());
        benchmark::DoNotOptimize(Gram.raw().data().data());
      }
    } else {
      benchmark::DoNotOptimize(computeKastGrams(
          Data.strings(), Cuts, CutPolicy::PerOccurrence, Options));
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GramMatrixKastCuts)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Cost of building one spectrum profile (the O(N·build) half of the
/// fast path), over string length.
void BM_SpectrumProfileBuild(benchmark::State &State) {
  auto [A, B] = randomPair(static_cast<size_t>(State.range(0)));
  BlendedSpectrumKernel Kernel(3, 1.0, /*Weighted=*/true, /*CutWeight=*/2);
  for (auto _ : State)
    benchmark::DoNotOptimize(Kernel.profile(A));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_SpectrumProfileBuild)->RangeMultiplier(4)->Range(16, 4096)
    ->Complexity();

} // namespace

BENCHMARK_MAIN();
