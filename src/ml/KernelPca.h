//===- ml/KernelPca.h - Kernel principal component analysis ----*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Kernel PCA (Schoelkopf, Smola & Mueller, 1997), the first of the two
/// learning algorithms the paper applies to its similarity matrices.
/// Given a Gram matrix K over n examples:
///
///   1. double-center K (zero-mean implicit features);
///   2. compute every eigenvalue of the centered matrix, and the
///      eigenvectors of the retained components only;
///   3. the projection of example i onto component j is
///      sqrt(lambda_j) * v_j[i] (principal coordinates).
///
/// Components whose eigenvalues do not exceed eigenNoiseFloor are
/// dropped, so the count kept does not depend on the Gram's scale, and
/// indefinite input (possible for the Kast kernel before PSD repair)
/// yields fewer usable components rather than NaNs.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_ML_KERNELPCA_H
#define KAST_ML_KERNELPCA_H

#include "linalg/Matrix.h"

#include <vector>

namespace kast {

/// Output of Kernel PCA.
struct KernelPcaResult {
  /// n x c matrix; row i is example i's coordinates on the c retained
  /// components (ordered by decreasing eigenvalue).
  Matrix Projections;
  /// The retained eigenvalues (positive, descending).
  std::vector<double> Eigenvalues;
  /// Fraction of total positive spectrum captured per component.
  std::vector<double> ExplainedVariance;
};

/// Runs Kernel PCA on Gram matrix \p K keeping at most
/// \p MaxComponents components (the paper's figures use 2).
KernelPcaResult kernelPca(const Matrix &K, size_t MaxComponents = 2);

} // namespace kast

#endif // KAST_ML_KERNELPCA_H
