//===- ml/KernelPca.cpp - Kernel principal component analysis --------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ml/KernelPca.h"
#include "linalg/Eigen.h"

#include <cassert>
#include <cmath>

using namespace kast;

KernelPcaResult kast::kernelPca(const Matrix &K, size_t MaxComponents) {
  assert(K.rows() == K.cols() && "Gram matrix must be square");
  const size_t N = K.rows();
  KernelPcaResult Result;
  if (N == 0)
    return Result;

  // Every eigenvalue, since ExplainedVariance is a share of the whole
  // positive spectrum, but eigenvectors only for the leading ones.
  EigenDecomposition E = eigenSymmetric(doubleCenter(K), MaxComponents);

  // Retain components above the rounding floor only.
  const double Floor = eigenNoiseFloor(E.Values);
  size_t Keep = 0;
  double PositiveTotal = 0.0;
  for (double Lambda : E.Values)
    if (Lambda > Floor)
      PositiveTotal += Lambda;
  while (Keep < E.Vectors.cols() && E.Values[Keep] > Floor)
    ++Keep;

  Result.Projections = Matrix(N, Keep);
  Result.Eigenvalues.reserve(Keep);
  Result.ExplainedVariance.reserve(Keep);
  for (size_t J = 0; J < Keep; ++J) {
    double Lambda = E.Values[J];
    Result.Eigenvalues.push_back(Lambda);
    Result.ExplainedVariance.push_back(
        PositiveTotal > 0.0 ? Lambda / PositiveTotal : 0.0);
    double Scale = std::sqrt(Lambda);
    for (size_t I = 0; I < N; ++I)
      Result.Projections.at(I, J) = Scale * E.Vectors.at(I, J);
  }
  return Result;
}
