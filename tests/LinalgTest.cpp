//===- tests/LinalgTest.cpp - linalg library unit tests --------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "linalg/Eigen.h"
#include "linalg/Matrix.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

using namespace kast;

namespace {

/// Random symmetric matrix with entries in [-1, 1].
Matrix randomSymmetric(size_t N, uint64_t Seed) {
  Rng R(Seed);
  Matrix A(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I; J < N; ++J) {
      double V = 2.0 * R.uniformReal() - 1.0;
      A.at(I, J) = V;
      A.at(J, I) = V;
    }
  return A;
}

/// Reconstructs V * diag(Values) * V^T.
Matrix reconstruct(const EigenDecomposition &E) {
  const size_t N = E.Vectors.rows();
  Matrix D(N, N, 0.0);
  for (size_t K = 0; K < N; ++K)
    D.at(K, K) = E.Values[K];
  return E.Vectors.multiply(D).multiply(E.Vectors.transposed());
}

/// Test-only reference solver: cyclic Jacobi, which shares no code with
/// the library's Householder-QL path. \returns the eigenvalues of
/// symmetric \p Input in descending order.
std::vector<double> jacobiEigenvalues(const Matrix &Input) {
  const size_t N = Input.rows();
  Matrix A = Input;
  const double Eps = std::numeric_limits<double>::epsilon();
  const double Threshold = Eps * Eps * A.frobeniusNorm() * A.frobeniusNorm();
  for (size_t Sweep = 0; Sweep < 100; ++Sweep) {
    double OffNormSq = 0.0;
    for (size_t P = 0; P < N; ++P)
      for (size_t Q = P + 1; Q < N; ++Q)
        OffNormSq += A.at(P, Q) * A.at(P, Q);
    if (OffNormSq <= Threshold)
      break;
    for (size_t P = 0; P + 1 < N; ++P)
      for (size_t Q = P + 1; Q < N; ++Q) {
        const double Apq = A.at(P, Q);
        if (Apq == 0.0)
          continue;
        const double Theta = (A.at(Q, Q) - A.at(P, P)) / (2.0 * Apq);
        const double T = (Theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(Theta) + std::sqrt(Theta * Theta + 1.0));
        const double C = 1.0 / std::sqrt(T * T + 1.0), S = T * C;
        for (size_t K = 0; K < N; ++K) {
          const double Akp = A.at(K, P), Akq = A.at(K, Q);
          A.at(K, P) = C * Akp - S * Akq;
          A.at(K, Q) = S * Akp + C * Akq;
        }
        for (size_t K = 0; K < N; ++K) {
          const double Apk = A.at(P, K), Aqk = A.at(Q, K);
          A.at(P, K) = C * Apk - S * Aqk;
          A.at(Q, K) = S * Apk + C * Aqk;
        }
      }
  }
  std::vector<double> Values(N);
  for (size_t I = 0; I < N; ++I)
    Values[I] = A.at(I, I);
  std::sort(Values.begin(), Values.end(), std::greater<double>());
  return Values;
}

/// The named inputs of the oracle sweep, chosen to reach the solver's
/// edge cases.
Matrix eigenCase(const std::string &Name) {
  if (Name == "Zero")
    return Matrix(6, 6, 0.0);
  if (Name == "Identity") // Every eigenvalue equal.
    return Matrix::identity(7);
  if (Name == "OnesRankOne")
    return Matrix(8, 8, 1.0);
  if (Name == "ZeroRowAndColumn") {
    // The last row is eliminated first, so zeroing it makes the first
    // Householder vector zero; row 3 is zero in the input too.
    Matrix A = randomSymmetric(9, 41);
    for (size_t K = 0; K < 9; ++K)
      for (size_t Zero : {size_t{3}, size_t{8}}) {
        A.at(Zero, K) = 0.0;
        A.at(K, Zero) = 0.0;
      }
    return A;
  }
  if (Name == "MixedSignDiagonal") {
    Matrix A(7, 7, 0.0);
    const double Diag[] = {3.0, -1.0, 0.0, 2.5, -7.0, 1e-3, -1e-3};
    for (size_t K = 0; K < 7; ++K)
      A.at(K, K) = Diag[K];
    return A;
  }
  if (Name == "Graded") {
    // A_ij = g_i g_j R_ij with g from 1e-4 to 1e4: the diagonal spans
    // 1e-8 to 1e8.
    const size_t N = 17;
    Matrix A = randomSymmetric(N, 43);
    for (size_t I = 0; I < N; ++I) {
      A.at(I, I) = 1.0;
      for (size_t J = 0; J < N; ++J)
        A.at(I, J) *= std::pow(10.0, -4.0 + 0.5 * static_cast<double>(I)) *
                      std::pow(10.0, -4.0 + 0.5 * static_cast<double>(J));
    }
    return A;
  }
  // "RandomN": a random symmetric N x N matrix.
  const size_t N = std::stoul(Name.substr(6));
  return randomSymmetric(N, 1000 + N);
}

/// FNV-1a over the bytes of every value fed in.
struct Fnv1a {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  void bytes(const void *Data, size_t Size) {
    for (size_t I = 0; I < Size; ++I) {
      Hash ^= static_cast<const unsigned char *>(Data)[I];
      Hash *= 0x100000001b3ULL;
    }
  }
  void doubles(const std::vector<double> &Values) {
    bytes(Values.data(), Values.size() * sizeof(double));
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Matrix
//===----------------------------------------------------------------------===//

TEST(MatrixTest, ConstructionAndFill) {
  Matrix M(2, 3, 1.5);
  EXPECT_EQ(M.rows(), 2u);
  EXPECT_EQ(M.cols(), 3u);
  for (size_t I = 0; I < 2; ++I)
    for (size_t J = 0; J < 3; ++J)
      EXPECT_DOUBLE_EQ(M.at(I, J), 1.5);
}

TEST(MatrixTest, IdentityMultiplication) {
  Matrix A = Matrix::fromRows({{1, 2}, {3, 4}});
  Matrix I = Matrix::identity(2);
  EXPECT_DOUBLE_EQ(A.multiply(I).maxAbsDiff(A), 0.0);
  EXPECT_DOUBLE_EQ(I.multiply(A).maxAbsDiff(A), 0.0);
}

TEST(MatrixTest, MultiplyKnownProduct) {
  Matrix A = Matrix::fromRows({{1, 2}, {3, 4}});
  Matrix B = Matrix::fromRows({{5, 6}, {7, 8}});
  Matrix C = A.multiply(B);
  EXPECT_DOUBLE_EQ(C.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(C.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(C.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(C.at(1, 1), 50);
}

TEST(MatrixTest, TransposedTwiceIsIdentity) {
  Matrix A = Matrix::fromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_DOUBLE_EQ(A.transposed().transposed().maxAbsDiff(A), 0.0);
  EXPECT_DOUBLE_EQ(A.transposed().at(2, 1), 6);
}

TEST(MatrixTest, SymmetryCheck) {
  EXPECT_TRUE(Matrix::fromRows({{1, 2}, {2, 1}}).isSymmetric());
  EXPECT_FALSE(Matrix::fromRows({{1, 2}, {3, 1}}).isSymmetric());
  EXPECT_FALSE(Matrix(2, 3).isSymmetric()); // Non-square.
}

TEST(MatrixTest, FrobeniusNorm) {
  Matrix A = Matrix::fromRows({{3, 4}});
  EXPECT_DOUBLE_EQ(A.frobeniusNorm(), 5.0);
}

TEST(MatrixTest, DotAndNorm) {
  EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
}

//===----------------------------------------------------------------------===//
// Symmetric eigendecomposition
//===----------------------------------------------------------------------===//

TEST(EigenTest, DiagonalMatrix) {
  Matrix A = Matrix::fromRows({{3, 0}, {0, 1}});
  EigenDecomposition E = eigenSymmetric(A);
  ASSERT_EQ(E.Values.size(), 2u);
  EXPECT_NEAR(E.Values[0], 3.0, 1e-12);
  EXPECT_NEAR(E.Values[1], 1.0, 1e-12);
  EXPECT_TRUE(E.Converged);
}

TEST(EigenTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Matrix A = Matrix::fromRows({{2, 1}, {1, 2}});
  EigenDecomposition E = eigenSymmetric(A);
  EXPECT_NEAR(E.Values[0], 3.0, 1e-10);
  EXPECT_NEAR(E.Values[1], 1.0, 1e-10);
}

TEST(EigenTest, ReconstructionMatchesInput) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    Matrix A = randomSymmetric(12, Seed);
    EigenDecomposition E = eigenSymmetric(A);
    EXPECT_LT(reconstruct(E).maxAbsDiff(A), 1e-8);
  }
}

TEST(EigenTest, EigenvectorsOrthonormal) {
  Matrix A = randomSymmetric(10, 99);
  EigenDecomposition E = eigenSymmetric(A);
  Matrix VtV = E.Vectors.transposed().multiply(E.Vectors);
  EXPECT_LT(VtV.maxAbsDiff(Matrix::identity(10)), 1e-8);
}

TEST(EigenTest, ValuesSortedDescending) {
  Matrix A = randomSymmetric(15, 5);
  EigenDecomposition E = eigenSymmetric(A);
  for (size_t I = 1; I < E.Values.size(); ++I)
    EXPECT_GE(E.Values[I - 1], E.Values[I]);
}

TEST(EigenTest, TraceEqualsEigenvalueSum) {
  Matrix A = randomSymmetric(9, 77);
  EigenDecomposition E = eigenSymmetric(A);
  double Trace = 0.0, Sum = 0.0;
  for (size_t I = 0; I < 9; ++I)
    Trace += A.at(I, I);
  for (double V : E.Values)
    Sum += V;
  EXPECT_NEAR(Trace, Sum, 1e-9);
}

TEST(EigenTest, OneByOne) {
  Matrix A = Matrix::fromRows({{42}});
  EigenDecomposition E = eigenSymmetric(A);
  ASSERT_EQ(E.Values.size(), 1u);
  EXPECT_DOUBLE_EQ(E.Values[0], 42.0);
}

TEST(EigenTest, LeadingVectorsMatchFullDecomposition) {
  Matrix A = randomSymmetric(40, 7);
  EigenDecomposition Full = eigenSymmetric(A);
  for (size_t Leading : {0u, 1u, 3u, 40u, 100u}) {
    EigenDecomposition E = eigenSymmetric(A, Leading);
    ASSERT_EQ(E.Values.size(), Full.Values.size());
    EXPECT_EQ(std::memcmp(E.Values.data(), Full.Values.data(),
                          E.Values.size() * sizeof(double)),
              0)
        << "Leading=" << Leading;
    ASSERT_EQ(E.Vectors.rows(), 40u);
    ASSERT_EQ(E.Vectors.cols(), std::min<size_t>(Leading, 40));
    for (size_t J = 0; J < E.Vectors.cols(); ++J)
      for (size_t I = 0; I < 40; ++I)
        EXPECT_NEAR(E.Vectors.at(I, J), Full.Vectors.at(I, J), 1e-12);
  }
}

// eigenSymmetric's values and every vector, and projectToPsd's
// rebuild, bit for bit on seeded inputs of every size class the
// solver treats apart (1, 2, 3, odd, the paper's 110), with zero rows
// and columns and with a repeated eigenvalue. The digest moves only if
// some output bit does.
TEST(EigenTest, SolverOutputIsPinned) {
  std::vector<Matrix> Inputs;
  for (size_t N : {1, 2, 3, 17, 64, 110})
    Inputs.push_back(randomSymmetric(N, 7000 + N));
  // Rows 0, 40 and 63 zero: the first reflector is zero and two more
  // rows need none.
  Matrix ZeroRows = randomSymmetric(64, 7100);
  for (size_t Zero : {size_t{0}, size_t{40}, size_t{63}})
    for (size_t K = 0; K < 64; ++K) {
      ZeroRows.at(Zero, K) = 0.0;
      ZeroRows.at(K, Zero) = 0.0;
    }
  Inputs.push_back(ZeroRows);
  // 2 I + 1 1^T: eigenvalue 2 sixteen times, and 19 once.
  Matrix Repeated(17, 17, 1.0);
  for (size_t I = 0; I < 17; ++I)
    Repeated.at(I, I) = 3.0;
  Inputs.push_back(Repeated);

  Fnv1a D;
  for (const Matrix &A : Inputs) {
    EigenDecomposition E = eigenSymmetric(A);
    D.doubles(E.Values);
    D.doubles(E.Vectors.data());
    D.doubles(projectToPsd(A).data());
  }
  EXPECT_EQ(D.Hash, 0xac6d353c9d54d0ccULL);
}

/// Every case against the independent Jacobi oracle, plus the
/// decomposition's own invariants, at tolerances of c * N * eps scaled
/// by the input's norm.
class EigenOracleSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(EigenOracleSweep, MatchesJacobiAndReconstructs) {
  const Matrix A = eigenCase(GetParam());
  const size_t N = A.rows();
  const double Eps = std::numeric_limits<double>::epsilon();
  const double Tol = 8.0 * static_cast<double>(N) * Eps;
  const double Scale = A.frobeniusNorm();

  EigenDecomposition E = eigenSymmetric(A);
  EXPECT_TRUE(E.Converged);
  ASSERT_EQ(E.Values.size(), N);
  ASSERT_EQ(E.Vectors.rows(), N);
  ASSERT_EQ(E.Vectors.cols(), N);

  std::vector<double> Oracle = jacobiEigenvalues(A);
  for (size_t I = 0; I < N; ++I)
    EXPECT_NEAR(E.Values[I], Oracle[I], Tol * Scale) << "value " << I;
  for (size_t I = 1; I < N; ++I)
    EXPECT_GE(E.Values[I - 1], E.Values[I]);
  EXPECT_LE(reconstruct(E).maxAbsDiff(A), Tol * Scale);
  Matrix VtV = E.Vectors.transposed().multiply(E.Vectors);
  EXPECT_LE(VtV.maxAbsDiff(Matrix::identity(N)), Tol);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EigenOracleSweep,
    ::testing::Values("Zero", "Identity", "OnesRankOne", "ZeroRowAndColumn",
                      "MixedSignDiagonal", "Graded", "Random1", "Random2",
                      "Random3", "Random110", "Random150"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

//===----------------------------------------------------------------------===//
// PSD projection (paper §4.1 negative-eigenvalue repair)
//===----------------------------------------------------------------------===//

TEST(PsdTest, AlreadyPsdIsUnchanged) {
  // Gram matrix of two vectors: PSD by construction.
  Matrix K = Matrix::fromRows({{2, 1}, {1, 2}});
  Matrix P = projectToPsd(K);
  EXPECT_LT(P.maxAbsDiff(K), 1e-9);
}

TEST(PsdTest, IndefiniteGetsRepaired) {
  // [[0,1],[1,0]] has eigenvalues +1 and -1.
  Matrix K = Matrix::fromRows({{0, 1}, {1, 0}});
  EXPECT_LT(eigenSymmetric(K, 0).Values.back(), -0.9);
  Matrix P = projectToPsd(K);
  EXPECT_GE(eigenSymmetric(P, 0).Values.back(), -1e-10);
  // The positive eigenpair is retained: P = 0.5 * [[1,1],[1,1]].
  EXPECT_NEAR(P.at(0, 0), 0.5, 1e-10);
  EXPECT_NEAR(P.at(0, 1), 0.5, 1e-10);
}

TEST(PsdTest, RandomMatricesBecomePsd) {
  for (uint64_t Seed : {10u, 20u, 30u}) {
    Matrix A = randomSymmetric(8, Seed);
    Matrix P = projectToPsd(A);
    EXPECT_TRUE(P.isSymmetric(1e-9));
    EXPECT_GE(eigenSymmetric(P, 0).Values.back(), -1e-8);
  }
}

TEST(PsdTest, RankDeficientGramIsReturnedBitIdentical) {
  // Gram matrix of 3-D points with every row duplicated: PSD with
  // exactly zero eigenvalues, which a solver reports as rounding noise
  // of either sign. Noise is not a reason to rebuild.
  Rng R(12);
  std::vector<std::vector<double>> Points;
  for (size_t I = 0; I < 10; ++I) {
    std::vector<double> P = {R.uniformReal(), R.uniformReal(),
                             R.uniformReal()};
    Points.push_back(P);
    Points.push_back(P);
  }
  Matrix K(Points.size(), Points.size());
  for (size_t I = 0; I < Points.size(); ++I)
    for (size_t J = 0; J < Points.size(); ++J)
      K.at(I, J) = dot(Points[I], Points[J]);
  Matrix P = projectToPsdIfNeeded(K);
  ASSERT_EQ(P.rows(), K.rows());
  EXPECT_EQ(std::memcmp(P.data().data(), K.data().data(),
                        K.data().size() * sizeof(double)),
            0);
}

TEST(PsdTest, NegativeEigenvalueBeyondFloorIsRepaired) {
  // [[1, 1+d], [1+d, 1]] has eigenvalue -d: far above the noise floor
  // at d = 1e-6, so the matrix is rebuilt.
  Matrix K = Matrix::fromRows({{1.0, 1.0 + 1e-6}, {1.0 + 1e-6, 1.0}});
  EXPECT_LT(eigenSymmetric(K, 0).Values.back(),
            -eigenNoiseFloor({2.0, -1e-6}));
  Matrix P = projectToPsdIfNeeded(K);
  EXPECT_GT(P.maxAbsDiff(K), 1e-7);
  EXPECT_TRUE(P.isSymmetric(0.0));
  EXPECT_GE(eigenSymmetric(P, 0).Values.back(), -1e-15);
}

TEST(PsdTest, ProjectionIsIdempotent) {
  Matrix A = randomSymmetric(7, 4);
  Matrix P1 = projectToPsd(A);
  Matrix P2 = projectToPsd(P1);
  EXPECT_LT(P2.maxAbsDiff(P1), 1e-8);
}

//===----------------------------------------------------------------------===//
// Double centering
//===----------------------------------------------------------------------===//

TEST(CenteringTest, RowAndColumnMeansVanish) {
  Matrix K = randomSymmetric(6, 8);
  Matrix C = doubleCenter(K);
  for (size_t I = 0; I < 6; ++I) {
    double RowSum = 0.0;
    for (size_t J = 0; J < 6; ++J)
      RowSum += C.at(I, J);
    EXPECT_NEAR(RowSum, 0.0, 1e-9);
  }
  EXPECT_TRUE(C.isSymmetric(1e-9));
}

TEST(CenteringTest, CenteringIsIdempotent) {
  Matrix K = randomSymmetric(5, 21);
  Matrix C1 = doubleCenter(K);
  Matrix C2 = doubleCenter(C1);
  EXPECT_LT(C2.maxAbsDiff(C1), 1e-10);
}
