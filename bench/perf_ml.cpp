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

/// Symmetric distances drawn from {0, 1, 2, 3}: nearly every closest
/// pair ties, so the (i, j) tie order decides each merge.
Matrix tiedDistances(size_t N, uint64_t Seed) {
  Rng R(Seed);
  Matrix D(N, N, 0.0);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J) {
      double V = static_cast<double>(R.uniformInt(0, 3));
      D.at(I, J) = V;
      D.at(J, I) = V;
    }
  return D;
}

/// Arguments: N, linkage (0 single, 1 complete, 2 average), and input
/// (0 the distances of a random similarity matrix, 1 tiedDistances).
void BM_HierarchicalClustering(benchmark::State &State) {
  const size_t N = static_cast<size_t>(State.range(0));
  Matrix D = State.range(2) == 0
                 ? similarityToDistance(randomSimilarity(N, 19))
                 : tiedDistances(N, 19);
  Linkage Link = static_cast<Linkage>(State.range(1));
  for (auto _ : State)
    benchmark::DoNotOptimize(clusterHierarchical(D, Link));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_HierarchicalClustering)
    ->ArgsProduct({{110}, {0, 1, 2}, {0, 1}})
    ->ArgsProduct({{256, 512, 1024}, {0}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_DendrogramCut(benchmark::State &State) {
  Matrix D = similarityToDistance(randomSimilarity(110, 23));
  Dendrogram Tree = clusterHierarchical(D);
  for (auto _ : State)
    benchmark::DoNotOptimize(Tree.cutToClusters(3));
}
BENCHMARK(BM_DendrogramCut);

} // namespace

BENCHMARK_MAIN();
