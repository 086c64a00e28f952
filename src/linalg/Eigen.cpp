//===- linalg/Eigen.cpp - Symmetric eigensolver and PSD repair ------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "linalg/Eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

using namespace kast;

namespace {

/// One Givens rotation of the QL iteration, acting on coordinates
/// (Row, Row + 1).
struct Rotation {
  size_t Row;
  double C, S;
};

/// Every eigenvalue of a symmetric A, with what it takes to rebuild any
/// of its eigenvectors: A = Q T Q^T, where Q is the product of the
/// Householder reflections kept in Reflectors, and T = G D G^T, where G
/// is the product of the recorded Rotations.
struct Spectrum {
  /// Eigenvalues in descending order; Values[J] is D's diagonal entry
  /// Position[J].
  std::vector<double> Values;
  std::vector<size_t> Position;
  /// Entries [0, I) of row I hold the vector v that eliminated row I of
  /// A; the reflection is I - v v^T / H[I] with H[I] = |v|^2 / 2, and
  /// H[I] == 0 means the row needed none.
  Matrix Reflectors;
  std::vector<double> H;
  std::vector<Rotation> Rotations;
  size_t Iterations = 0;
  bool Converged = true;
};

/// EISPACK's limit on implicit shifts for one eigenvalue.
constexpr size_t MaxShifts = 30;

} // namespace

/// Reduces the symmetric matrix in \p S.Reflectors to tridiagonal form,
/// with diagonal \p Diag and off-diagonal \p Off (Off[I] couples I and
/// I + 1), eliminating rows from the last one up as tred2 does.
static void tridiagonalize(Spectrum &S, std::vector<double> &Diag,
                           std::vector<double> &Off) {
  Matrix &A = S.Reflectors;
  const size_t N = A.rows();
  Diag.assign(N, 0.0);
  Off.assign(N, 0.0);
  S.H.assign(N, 0.0);
  std::vector<double> P(N);
  for (size_t I = N; I-- > 2;) {
    Diag[I] = A.at(I, I);
    double *V = &A.at(I, 0);
    double Scale = 0.0;
    for (size_t K = 0; K < I; ++K)
      Scale += std::fabs(V[K]);
    if (Scale == 0.0)
      continue; // Row I is already reduced.
    double Sigma = 0.0;
    for (size_t K = 0; K < I; ++K) {
      V[K] /= Scale;
      Sigma += V[K] * V[K];
    }
    const double F = V[I - 1];
    const double G = F > 0.0 ? -std::sqrt(Sigma) : std::sqrt(Sigma);
    const double H = Sigma - F * G;
    Off[I - 1] = Scale * G;
    V[I - 1] = F - G;
    S.H[I] = H;
    // Leading block B <- R B R with R = I - v v^T / H: for p = B v / H
    // and q = p - (v^T p / 2H) v, that is B - v q^T - q v^T.
    double VtP = 0.0;
    for (size_t J = 0; J < I; ++J) {
      const double *Row = &A.at(J, 0);
      double Sum = 0.0;
      for (size_t K = 0; K < I; ++K)
        Sum += Row[K] * V[K];
      P[J] = Sum / H;
      VtP += V[J] * P[J];
    }
    const double Half = VtP / (2.0 * H);
    for (size_t J = 0; J < I; ++J)
      P[J] -= Half * V[J];
    for (size_t J = 0; J < I; ++J) {
      double *Row = &A.at(J, 0);
      for (size_t K = 0; K < I; ++K)
        Row[K] -= V[J] * P[K] + P[J] * V[K];
    }
  }
  if (N > 1) {
    Diag[1] = A.at(1, 1);
    Off[0] = A.at(1, 0);
  }
  if (N > 0)
    Diag[0] = A.at(0, 0);
}

/// Implicit-shift QL on the tridiagonal (\p Diag, \p Off): leaves the
/// eigenvalues on \p Diag and records every rotation in \p S. Nothing
/// here reads a rotation back, so the eigenvalues do not depend on
/// which eigenvectors are later rebuilt.
static void diagonalize(Spectrum &S, std::vector<double> &Diag,
                        std::vector<double> &Off) {
  const size_t N = Diag.size();
  const double Eps = std::numeric_limits<double>::epsilon();
  double Shift = 0.0, Norm = 0.0;
  for (size_t L = 0; L < N; ++L) {
    Norm = std::max(Norm, std::fabs(Diag[L]) + std::fabs(Off[L]));
    for (size_t Shifts = 0;; ++Shifts) {
      // The first negligible off-diagonal at or after L closes the
      // block to work on; Off[N - 1] is zero.
      size_t M = L;
      while (std::fabs(Off[M]) > Eps * Norm)
        ++M;
      if (M == L)
        break;
      if (Shifts == MaxShifts) {
        S.Converged = false;
        break;
      }
      ++S.Iterations;
      // Shift by the eigenvalue of the leading 2x2 block nearer Diag[L],
      // moving the origin of everything below it along.
      double G = Diag[L];
      double P = (Diag[L + 1] - G) / (2.0 * Off[L]);
      double R = std::hypot(P, 1.0);
      if (P < 0.0)
        R = -R;
      Diag[L] = Off[L] / (P + R);
      Diag[L + 1] = Off[L] * (P + R);
      const double Next = Diag[L + 1];
      double H = G - Diag[L];
      for (size_t I = L + 2; I < N; ++I)
        Diag[I] -= H;
      Shift += H;
      // Chase the bulge from M up to L.
      P = Diag[M];
      double C = 1.0, C2 = 1.0, C3 = 1.0, Sn = 0.0, S2 = 0.0;
      const double OffNext = Off[L + 1];
      for (size_t I = M; I-- > L;) {
        C3 = C2;
        C2 = C;
        S2 = Sn;
        G = C * Off[I];
        H = C * P;
        R = std::hypot(P, Off[I]);
        Off[I + 1] = Sn * R;
        Sn = Off[I] / R;
        C = P / R;
        P = C * Diag[I] - Sn * G;
        Diag[I + 1] = H + Sn * (C * G + Sn * Diag[I]);
        S.Rotations.push_back({I, C, Sn});
      }
      P = -Sn * S2 * C3 * OffNext * Off[L] / Next;
      Off[L] = Sn * P;
      Diag[L] = C * P;
    }
    Diag[L] += Shift;
    Off[L] = 0.0;
  }
}

/// Every eigenvalue of symmetric \p A, sorted, with the reflections and
/// rotations that rebuild any eigenvector.
static Spectrum solve(const Matrix &A) {
  assert(A.rows() == A.cols() && "eigendecomposition needs square");
  assert(A.isSymmetric(1e-6) && "eigendecomposition needs symmetry");
  const size_t N = A.rows();
  Spectrum S;
  S.Reflectors = A;
  std::vector<double> Diag, Off;
  tridiagonalize(S, Diag, Off);
  diagonalize(S, Diag, Off);

  S.Position.resize(N);
  std::iota(S.Position.begin(), S.Position.end(), 0);
  std::stable_sort(S.Position.begin(), S.Position.end(),
                   [&Diag](size_t L, size_t R) { return Diag[L] > Diag[R]; });
  S.Values.resize(N);
  for (size_t J = 0; J < N; ++J)
    S.Values[J] = Diag[S.Position[J]];
  return S;
}

/// The eigenvectors of the \p Count largest eigenvalues, as the columns
/// of an N x Count matrix: the vector of Values[J] is G e_Position[J]
/// carried through Q, with G applied one rotation at a time from the
/// last recorded. Each rotation and reflection updates whole rows.
static Matrix leadingVectors(const Spectrum &S, size_t Count) {
  const size_t N = S.Values.size();
  Matrix W(N, Count, 0.0);
  if (Count == 0)
    return W;
  for (size_t J = 0; J < Count; ++J)
    W.at(S.Position[J], J) = 1.0;
  for (auto It = S.Rotations.rbegin(); It != S.Rotations.rend(); ++It) {
    double *Upper = &W.at(It->Row, 0);
    double *Lower = &W.at(It->Row + 1, 0);
    for (size_t J = 0; J < Count; ++J) {
      const double X = Upper[J], Y = Lower[J];
      Upper[J] = It->C * X + It->S * Y;
      Lower[J] = It->C * Y - It->S * X;
    }
  }
  // Q is the product of the reflections from the last row up, so the
  // one that eliminated row 2 applies first.
  std::vector<double> Dot(Count);
  for (size_t I = 2; I < N; ++I) {
    if (S.H[I] == 0.0)
      continue;
    const double *V = S.Reflectors.data().data() + I * N;
    std::fill(Dot.begin(), Dot.end(), 0.0);
    for (size_t K = 0; K < I; ++K) {
      const double *Row = &W.at(K, 0);
      for (size_t J = 0; J < Count; ++J)
        Dot[J] += V[K] * Row[J];
    }
    for (size_t K = 0; K < I; ++K) {
      const double F = V[K] / S.H[I];
      double *Row = &W.at(K, 0);
      for (size_t J = 0; J < Count; ++J)
        Row[J] -= F * Dot[J];
    }
  }
  return W;
}

EigenDecomposition kast::eigenSymmetric(const Matrix &A, size_t Leading) {
  Spectrum S = solve(A);
  EigenDecomposition Result;
  Result.Vectors = leadingVectors(S, std::min(Leading, A.rows()));
  Result.Values = std::move(S.Values);
  Result.Sweeps = S.Iterations;
  Result.Converged = S.Converged;
  return Result;
}

EigenDecomposition kast::eigenSymmetric(const Matrix &A) {
  return eigenSymmetric(A, A.rows());
}

double kast::eigenNoiseFloor(const std::vector<double> &Values) {
  double Max = 0.0;
  for (double Lambda : Values)
    Max = std::max(Max, std::fabs(Lambda));
  return static_cast<double>(Values.size()) *
         std::numeric_limits<double>::epsilon() * Max;
}

/// Sum of lambda v v^T over the positive eigenpairs of \p S, computed
/// once per unordered pair so the result is exactly symmetric.
static Matrix rebuildClipped(const Spectrum &S) {
  const size_t N = S.Values.size();
  size_t Positive = 0;
  while (Positive < N && S.Values[Positive] > 0.0)
    ++Positive;
  const Matrix V = leadingVectors(S, Positive);
  const double *Rows = V.data().data();
  Matrix Out(N, N, 0.0);
  for (size_t I = 0; I < N; ++I) {
    const double *Vi = Rows + I * Positive;
    for (size_t J = 0; J <= I; ++J) {
      const double *Vj = Rows + J * Positive;
      double Sum = 0.0;
      for (size_t K = 0; K < Positive; ++K)
        Sum += S.Values[K] * Vi[K] * Vj[K];
      Out.at(I, J) = Sum;
      Out.at(J, I) = Sum;
    }
  }
  return Out;
}

Matrix kast::projectToPsd(const Matrix &A) { return rebuildClipped(solve(A)); }

Matrix kast::projectToPsdIfNeeded(const Matrix &A) {
  Spectrum S = solve(A);
  if (S.Values.empty() || S.Values.back() >= -eigenNoiseFloor(S.Values))
    return A;
  return rebuildClipped(S);
}

double kast::minEigenvalue(const Matrix &A) {
  EigenDecomposition E = eigenSymmetric(A, 0);
  assert(!E.Values.empty() && "empty matrix has no eigenvalues");
  return E.Values.back();
}

Matrix kast::doubleCenter(const Matrix &K) {
  assert(K.rows() == K.cols() && "centering needs a square Gram matrix");
  const size_t N = K.rows();
  if (N == 0)
    return K;
  std::vector<double> RowMean(N, 0.0);
  double TotalMean = 0.0;
  for (size_t I = 0; I < N; ++I) {
    for (size_t J = 0; J < N; ++J)
      RowMean[I] += K.at(I, J);
    RowMean[I] /= static_cast<double>(N);
    TotalMean += RowMean[I];
  }
  TotalMean /= static_cast<double>(N);

  // One value per unordered pair, so the result is exactly symmetric
  // at any scale.
  Matrix Out(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I; J < N; ++J) {
      Out.at(I, J) = K.at(I, J) - RowMean[I] - RowMean[J] + TotalMean;
      Out.at(J, I) = Out.at(I, J);
    }
  return Out;
}
