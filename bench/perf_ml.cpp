//===- bench/perf_ml.cpp - linalg/ml microbenchmarks -----------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Scaling of the analysis substrate: symmetric eigendecomposition, PSD
// projection, Kernel PCA, and agglomerative clustering across matrix
// sizes around the paper's 110-example operating point.
//
//===----------------------------------------------------------------------===//

#include "linalg/Eigen.h"
#include "ml/HierarchicalClustering.h"
#include "ml/KernelPca.h"
#include "util/Rng.h"

#include <benchmark/benchmark.h>

using namespace kast;

namespace {

/// Random symmetric matrix with unit diagonal (similarity-shaped).
Matrix randomSimilarity(size_t N, uint64_t Seed) {
  Rng R(Seed);
  Matrix K(N, N, 0.0);
  for (size_t I = 0; I < N; ++I) {
    K.at(I, I) = 1.0;
    for (size_t J = I + 1; J < N; ++J) {
      double V = R.uniformReal();
      K.at(I, J) = V;
      K.at(J, I) = V;
    }
  }
  return K;
}

void BM_EigenSymmetric(benchmark::State &State) {
  Matrix K = randomSimilarity(static_cast<size_t>(State.range(0)), 11);
  for (auto _ : State)
    benchmark::DoNotOptimize(eigenSymmetric(K));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_EigenSymmetric)->Arg(16)->Arg(32)->Arg(64)->Arg(110)->Arg(128)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_PsdProjection(benchmark::State &State) {
  Matrix K = randomSimilarity(static_cast<size_t>(State.range(0)), 13);
  for (auto _ : State)
    benchmark::DoNotOptimize(projectToPsd(K));
}
BENCHMARK(BM_PsdProjection)->Arg(32)->Arg(110)
    ->Unit(benchmark::kMillisecond);

void BM_KernelPca(benchmark::State &State) {
  Matrix K = randomSimilarity(static_cast<size_t>(State.range(0)), 17);
  for (auto _ : State)
    benchmark::DoNotOptimize(kernelPca(K, 2));
}
BENCHMARK(BM_KernelPca)->Arg(32)->Arg(110)->Unit(benchmark::kMillisecond);

void BM_HierarchicalClustering(benchmark::State &State) {
  Matrix K = randomSimilarity(static_cast<size_t>(State.range(0)), 19);
  Matrix D = similarityToDistance(K);
  Linkage Link = static_cast<Linkage>(State.range(1));
  for (auto _ : State)
    benchmark::DoNotOptimize(clusterHierarchical(D, Link));
}
BENCHMARK(BM_HierarchicalClustering)
    ->Args({110, 0})
    ->Args({110, 1})
    ->Args({110, 2})
    ->Args({256, 0})
    ->Unit(benchmark::kMillisecond);

void BM_DendrogramCut(benchmark::State &State) {
  Matrix D = similarityToDistance(randomSimilarity(110, 23));
  Dendrogram Tree = clusterHierarchical(D);
  for (auto _ : State)
    benchmark::DoNotOptimize(Tree.cutToClusters(3));
}
BENCHMARK(BM_DendrogramCut);

} // namespace

BENCHMARK_MAIN();
