//===- linalg/Eigen.h - Symmetric eigensolver and PSD repair ---*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symmetric eigendecomposition, plus the two kernel-matrix
/// transformations the paper's evaluation pipeline needs:
///
///  * PSD projection — Section 4.1: "If the matrices presented negative
///    eigenvalues, they were replaced by zero and the matrices
///    rebuilt." Implemented as V * max(D, 0) * V^T.
///  * double centering — the feature-space centering step of Kernel PCA
///    (Schoelkopf et al., 1997): K' = K - 1K - K1 + 1K1.
///
/// The solver is Householder tridiagonalization followed by implicit-
/// shift QL (Golub & Van Loan, Matrix Computations, §8.3; EISPACK
/// tred2/tql2). The QL iteration computes every eigenvalue and records
/// its Givens rotations; eigenvectors are then rebuilt only for the
/// eigenvalues a caller asks for, by replaying those rotations and the
/// Householder reflections on unit vectors. Kernel PCA keeps two
/// components and the PSD repair only the non-negative part of the
/// spectrum, so neither pays for the full eigenvector matrix.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_LINALG_EIGEN_H
#define KAST_LINALG_EIGEN_H

#include "linalg/Matrix.h"

#include <vector>

namespace kast {

/// Result of a symmetric eigendecomposition A = V * diag(Values) * V^T.
struct EigenDecomposition {
  /// Eigenvalues sorted in descending order.
  std::vector<double> Values;
  /// Column j of this matrix is the eigenvector for Values[j].
  Matrix Vectors;
  /// Number of QL iterations (implicit shifts) performed.
  size_t Sweeps = 0;
  /// False if some eigenvalue needed more than 30 shifts (EISPACK's
  /// limit); that eigenvalue is then accepted unconverged.
  bool Converged = false;
};

/// Computes the full eigendecomposition of symmetric \p A.
///
/// \pre A.isSymmetric(). Asserts on non-square input.
EigenDecomposition eigenSymmetric(const Matrix &A);

/// Computes every eigenvalue of symmetric \p A but the eigenvectors of
/// only the \p Leading largest: Vectors is N x min(Leading, N). Values
/// are bitwise those of the full decomposition whatever \p Leading is.
EigenDecomposition eigenSymmetric(const Matrix &A, size_t Leading);

/// The magnitude below which an eigenvalue of an N x N matrix with
/// spectrum \p Values cannot be told from rounding: N * eps * max|lambda|.
double eigenNoiseFloor(const std::vector<double> &Values);

/// Clips negative eigenvalues to zero and rebuilds the matrix,
/// returning the nearest (Frobenius) positive semi-definite matrix.
/// The result is exactly symmetric.
Matrix projectToPsd(const Matrix &A);

/// Like projectToPsd, but returns \p A unchanged when no eigenvalue is
/// negative beyond eigenNoiseFloor — so a PSD matrix whose zero
/// eigenvalues came out as rounding noise is not rebuilt. The decision
/// costs one eigenvalue-only solve; eigenvectors are computed only when
/// the rebuild runs.
Matrix projectToPsdIfNeeded(const Matrix &A);

/// Double-centers a Gram matrix: K' = K - 1K - K1 + 1K1 where 1 is the
/// constant 1/n matrix. After centering the implicit feature vectors
/// have zero mean.
Matrix doubleCenter(const Matrix &K);

} // namespace kast

#endif // KAST_LINALG_EIGEN_H
