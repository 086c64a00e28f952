//===- tests/MlTest.cpp - Kernel PCA, clustering, metrics ------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "linalg/Eigen.h"
#include "ml/ClusterMetrics.h"
#include "ml/HierarchicalClustering.h"
#include "ml/KernelPca.h"
#include "ml/NearestNeighbor.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

using namespace kast;

namespace {

/// Gram matrix of explicit 2-D points (linear kernel), so Kernel PCA
/// must recover plain PCA of those points.
Matrix gramOfPoints(const std::vector<std::pair<double, double>> &Points) {
  Matrix K(Points.size(), Points.size());
  for (size_t I = 0; I < Points.size(); ++I)
    for (size_t J = 0; J < Points.size(); ++J)
      K.at(I, J) = Points[I].first * Points[J].first +
                   Points[I].second * Points[J].second;
  return K;
}

/// Linear-kernel Gram matrix of \p N random points in \p Dims
/// dimensions: centered, it has rank \p Dims.
Matrix gramOfRandomPoints(size_t N, size_t Dims, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<double>> X(N, std::vector<double>(Dims));
  for (std::vector<double> &Row : X)
    for (double &V : Row)
      V = R.uniformReal();
  Matrix K(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      K.at(I, J) = dot(X[I], X[J]);
  return K;
}

/// Euclidean distances of explicit points.
Matrix distOfPoints(const std::vector<std::pair<double, double>> &Points) {
  Matrix D(Points.size(), Points.size());
  for (size_t I = 0; I < Points.size(); ++I)
    for (size_t J = 0; J < Points.size(); ++J) {
      double Dx = Points[I].first - Points[J].first;
      double Dy = Points[I].second - Points[J].second;
      D.at(I, J) = std::sqrt(Dx * Dx + Dy * Dy);
    }
  return D;
}

/// Asserts that \p D is a dendrogram over its leaves: n - 1 merges,
/// each joining two distinct clusters that exist and were not merged
/// before, and one cluster at the top.
void expectWellFormed(const Dendrogram &D) {
  const size_t N = D.numLeaves();
  ASSERT_EQ(D.merges().size(), N - 1);
  std::vector<bool> Used(2 * N - 1, false);
  for (size_t M = 0; M < D.merges().size(); ++M) {
    const Merge &Step = D.merges()[M];
    EXPECT_NE(Step.Left, Step.Right) << "merge " << M;
    for (size_t Id : {Step.Left, Step.Right}) {
      ASSERT_LT(Id, N + M) << "merge " << M;
      EXPECT_FALSE(Used[Id]) << "merge " << M << " reuses cluster " << Id;
      Used[Id] = true;
    }
  }
  EXPECT_EQ(D.cutToClusters(1), std::vector<size_t>(N, 0));
}

/// The exhaustive closest-pair search over every active pair at every
/// step, O(n^3): the oracle for clusterHierarchical's row-minimum
/// cache. The pair is the first in (i, j) order at the smallest
/// distance, NaN counting as +inf, so with no finite pair left it is
/// the first two active slots at +inf. The Lance-Williams updates are
/// the library's.
std::vector<Merge> exhaustiveMerges(const Matrix &Distance, Linkage Link) {
  const size_t N = Distance.rows();
  const double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> D = Distance.data();
  std::vector<size_t> Ids(N), Sizes(N, 1);
  for (size_t I = 0; I < N; ++I)
    Ids[I] = I;
  std::vector<bool> Active(N, true);
  std::vector<Merge> Merges;
  for (size_t Step = 0; Step + 1 < N; ++Step) {
    size_t BestI = N, BestJ = N;
    double BestD = Inf;
    for (size_t I = 0; I < N; ++I)
      for (size_t J = I + 1; Active[I] && J < N; ++J) {
        if (!Active[J])
          continue;
        const double V = std::isnan(D[I * N + J]) ? Inf : D[I * N + J];
        if (BestI == N || V < BestD) {
          BestI = I;
          BestJ = J;
          BestD = V;
        }
      }
    for (size_t K = 0; K < N; ++K) {
      if (!Active[K] || K == BestI || K == BestJ)
        continue;
      const double Dik = D[BestI * N + K], Djk = D[BestJ * N + K];
      double NewD = std::min(Dik, Djk);
      if (Link == Linkage::Complete)
        NewD = std::max(Dik, Djk);
      if (Link == Linkage::Average) {
        const double Ni = static_cast<double>(Sizes[BestI]);
        const double Nj = static_cast<double>(Sizes[BestJ]);
        NewD = (Ni * Dik + Nj * Djk) / (Ni + Nj);
      }
      D[BestI * N + K] = NewD;
      D[K * N + BestI] = NewD;
    }
    Merges.push_back(
        {Ids[BestI], Ids[BestJ], BestD, Sizes[BestI] + Sizes[BestJ]});
    Ids[BestI] = N + Step;
    Sizes[BestI] += Sizes[BestJ];
    Active[BestJ] = false;
  }
  return Merges;
}

} // namespace

//===----------------------------------------------------------------------===//
// Kernel PCA
//===----------------------------------------------------------------------===//

TEST(KernelPcaTest, RecoversDominantAxis) {
  // Points spread along x with tiny y jitter: component 1 must align
  // with x (up to sign).
  std::vector<std::pair<double, double>> Points = {
      {-4, 0.1}, {-2, -0.1}, {0, 0.05}, {2, -0.05}, {4, 0.0}};
  KernelPcaResult R = kernelPca(gramOfPoints(Points), 2);
  ASSERT_GE(R.Projections.cols(), 1u);
  // Projections on component 1 are ordered like x (or exactly
  // reversed).
  bool Increasing = R.Projections.at(0, 0) < R.Projections.at(4, 0);
  for (size_t I = 1; I < 5; ++I) {
    if (Increasing)
      EXPECT_LT(R.Projections.at(I - 1, 0), R.Projections.at(I, 0));
    else
      EXPECT_GT(R.Projections.at(I - 1, 0), R.Projections.at(I, 0));
  }
}

TEST(KernelPcaTest, PairwiseDistancesPreservedByFullProjection) {
  // With all components kept, projected distances equal feature-space
  // distances derived from the centered kernel.
  std::vector<std::pair<double, double>> Points = {
      {0, 0}, {1, 0}, {0, 2}, {3, 1}};
  Matrix K = gramOfPoints(Points);
  KernelPcaResult R = kernelPca(K, 4);
  Matrix D = distOfPoints(Points);
  for (size_t I = 0; I < 4; ++I)
    for (size_t J = 0; J < 4; ++J) {
      double Sum = 0.0;
      for (size_t C = 0; C < R.Projections.cols(); ++C) {
        double Diff = R.Projections.at(I, C) - R.Projections.at(J, C);
        Sum += Diff * Diff;
      }
      EXPECT_NEAR(std::sqrt(Sum), D.at(I, J), 1e-8);
    }
}

TEST(KernelPcaTest, ExplainedVarianceSumsToOneWhenAllKept) {
  std::vector<std::pair<double, double>> Points = {
      {1, 2}, {3, -1}, {-2, 0}, {0, 4}, {2, 2}};
  KernelPcaResult R = kernelPca(gramOfPoints(Points), 5);
  double Sum = 0.0;
  for (double V : R.ExplainedVariance)
    Sum += V;
  EXPECT_NEAR(Sum, 1.0, 1e-9);
  for (size_t I = 1; I < R.Eigenvalues.size(); ++I)
    EXPECT_GE(R.Eigenvalues[I - 1], R.Eigenvalues[I]);
}

TEST(KernelPcaTest, EmptyInput) {
  KernelPcaResult R = kernelPca(Matrix(), 2);
  EXPECT_EQ(R.Projections.rows(), 0u);
  EXPECT_TRUE(R.Eigenvalues.empty());
}

TEST(KernelPcaTest, MaxComponentsRespected) {
  std::vector<std::pair<double, double>> Points = {
      {1, 2}, {3, -1}, {-2, 0}, {0, 4}};
  KernelPcaResult R = kernelPca(gramOfPoints(Points), 1);
  EXPECT_EQ(R.Projections.cols(), 1u);
}

TEST(KernelPcaTest, ComponentCountIsScaleInvariant) {
  // Whether a component counts as positive is decided against the
  // spectrum's own magnitude, so rescaling the Gram changes nothing.
  Matrix K = gramOfRandomPoints(30, 3, 5);
  for (double Scale : {1.0, 1e-14, 1e14}) {
    Matrix Scaled = K;
    for (double &V : Scaled.data())
      V *= Scale;
    EXPECT_EQ(kernelPca(Scaled, 5).Eigenvalues.size(), 3u)
        << "scale " << Scale;
  }
}

TEST(KernelPcaTest, EigenvaluesAreBitwiseTheFullSolves) {
  // perfbench's kpca_split_matches gate re-runs doubleCenter +
  // eigenSymmetric beside kernelPca and requires the same bits.
  Matrix K = gramOfRandomPoints(60, 8, 9);
  EigenDecomposition Full = eigenSymmetric(doubleCenter(K));
  for (size_t Components : {1u, 2u, 5u}) {
    KernelPcaResult R = kernelPca(K, Components);
    ASSERT_EQ(R.Eigenvalues.size(), Components);
    EXPECT_EQ(std::memcmp(R.Eigenvalues.data(), Full.Values.data(),
                          Components * sizeof(double)),
              0)
        << Components << " components";
  }
}

TEST(KernelPcaTest, ProjectionsMatchFullDecompositionUpToSign) {
  Matrix K = gramOfRandomPoints(60, 8, 13);
  EigenDecomposition Full = eigenSymmetric(doubleCenter(K));
  KernelPcaResult R = kernelPca(K, 3);
  ASSERT_EQ(R.Projections.cols(), 3u);
  for (size_t J = 0; J < 3; ++J) {
    const double Scale = std::sqrt(Full.Values[J]);
    double Agreement = 0.0;
    for (size_t I = 0; I < 60; ++I)
      Agreement += R.Projections.at(I, J) * Full.Vectors.at(I, J);
    const double Sign = Agreement < 0.0 ? -1.0 : 1.0;
    for (size_t I = 0; I < 60; ++I)
      EXPECT_NEAR(R.Projections.at(I, J), Sign * Scale * Full.Vectors.at(I, J),
                  1e-10);
  }
}

TEST(KernelPcaTest, ExplainedVarianceIsShareOfWholePositiveSpectrum) {
  // Two components kept out of a rank-6 spectrum: each share is still
  // relative to all six positive eigenvalues.
  Matrix K = gramOfRandomPoints(40, 6, 21);
  EigenDecomposition Full = eigenSymmetric(doubleCenter(K));
  double PositiveTotal = 0.0;
  for (size_t J = 0; J < 6; ++J)
    PositiveTotal += Full.Values[J];
  KernelPcaResult R = kernelPca(K, 2);
  ASSERT_EQ(R.ExplainedVariance.size(), 2u);
  for (size_t J = 0; J < 2; ++J)
    EXPECT_NEAR(R.ExplainedVariance[J], Full.Values[J] / PositiveTotal,
                1e-12);
  EXPECT_LT(R.ExplainedVariance[0] + R.ExplainedVariance[1], 0.99);
}

TEST(KernelPcaTest, RepeatedTopEigenvalueKeepsOrthonormalVectors) {
  // A regular hexagon has isotropic spread in its plane, so the top
  // eigenvalue is double; a small alternating third coordinate adds a
  // distinct third one. The two kept components must still be
  // orthogonal, each of squared length equal to its eigenvalue.
  const double Pi = std::acos(-1.0);
  std::vector<std::vector<double>> X;
  for (int K = 0; K < 6; ++K)
    X.push_back({std::cos(Pi * K / 3.0), std::sin(Pi * K / 3.0),
                 K % 2 ? -0.3 : 0.3});
  Matrix Gram(6, 6);
  for (size_t I = 0; I < 6; ++I)
    for (size_t J = 0; J < 6; ++J)
      Gram.at(I, J) = dot(X[I], X[J]);
  KernelPcaResult R = kernelPca(Gram, 2);
  ASSERT_EQ(R.Eigenvalues.size(), 2u);
  EXPECT_NEAR(R.Eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(R.Eigenvalues[1], 3.0, 1e-12);
  Matrix PtP = R.Projections.transposed().multiply(R.Projections);
  EXPECT_NEAR(PtP.at(0, 0), R.Eigenvalues[0], 1e-12);
  EXPECT_NEAR(PtP.at(1, 1), R.Eigenvalues[1], 1e-12);
  EXPECT_NEAR(PtP.at(0, 1), 0.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// Hierarchical clustering
//===----------------------------------------------------------------------===//

TEST(ClusteringTest, TwoObviousClusters) {
  std::vector<std::pair<double, double>> Points = {
      {0, 0}, {0.1, 0}, {0, 0.1}, {10, 10}, {10.1, 10}, {10, 10.1}};
  Dendrogram D = clusterHierarchical(distOfPoints(Points));
  std::vector<size_t> Flat = D.cutToClusters(2);
  EXPECT_EQ(Flat[0], Flat[1]);
  EXPECT_EQ(Flat[1], Flat[2]);
  EXPECT_EQ(Flat[3], Flat[4]);
  EXPECT_EQ(Flat[4], Flat[5]);
  EXPECT_NE(Flat[0], Flat[3]);
}

TEST(ClusteringTest, MergeCountAndSizes) {
  std::vector<std::pair<double, double>> Points = {{0, 0}, {1, 0}, {5, 0}};
  Dendrogram D = clusterHierarchical(distOfPoints(Points));
  ASSERT_EQ(D.merges().size(), 2u);
  EXPECT_EQ(D.merges()[0].Size, 2u);
  EXPECT_EQ(D.merges()[1].Size, 3u);
  // The first merge is the closest pair (0, 1) at distance 1.
  EXPECT_DOUBLE_EQ(D.merges()[0].Distance, 1.0);
}

TEST(ClusteringTest, SingleLinkageChains) {
  // A chain 0-1-2-3 with unit gaps and one big gap to 4: single
  // linkage groups the chain despite its diameter.
  Matrix Dist(5, 5, 0.0);
  auto Set = [&Dist](size_t I, size_t J, double V) {
    Dist.at(I, J) = V;
    Dist.at(J, I) = V;
  };
  for (size_t I = 0; I < 5; ++I)
    for (size_t J = I + 1; J < 5; ++J)
      Set(I, J, 100.0);
  Set(0, 1, 1.0);
  Set(1, 2, 1.0);
  Set(2, 3, 1.0);
  // Leaf 4 stays far away from everything.
  Dendrogram D = clusterHierarchical(Dist, Linkage::Single);
  std::vector<size_t> Flat = D.cutToClusters(2);
  EXPECT_EQ(Flat[0], Flat[3]); // Chain in one cluster.
  EXPECT_NE(Flat[0], Flat[4]);
}

TEST(ClusteringTest, CompleteLinkageResistsChaining) {
  // Same chain: complete linkage merges 0-1 and 2-3 first, and joining
  // the pairs costs the diameter (100), same as joining leaf 4 — but
  // cutting to 3 clusters must give {0,1}, {2,3}, {4}.
  Matrix Dist(5, 5, 0.0);
  auto Set = [&Dist](size_t I, size_t J, double V) {
    Dist.at(I, J) = V;
    Dist.at(J, I) = V;
  };
  for (size_t I = 0; I < 5; ++I)
    for (size_t J = I + 1; J < 5; ++J)
      Set(I, J, 100.0);
  Set(0, 1, 1.0);
  Set(1, 2, 2.0);
  Set(2, 3, 1.0);
  Dendrogram D = clusterHierarchical(Dist, Linkage::Complete);
  std::vector<size_t> Flat = D.cutToClusters(3);
  EXPECT_EQ(Flat[0], Flat[1]);
  EXPECT_EQ(Flat[2], Flat[3]);
  EXPECT_NE(Flat[0], Flat[2]);
  EXPECT_NE(Flat[0], Flat[4]);
  EXPECT_NE(Flat[2], Flat[4]);
}

TEST(ClusteringTest, AverageLinkageKnownMergeHeight) {
  // Three leaves: 0-1 at 2; both far from 2 (4 and 6). After merging
  // {0,1}, average distance to 2 is (4+6)/2 = 5.
  Matrix Dist = Matrix::fromRows({{0, 2, 4}, {2, 0, 6}, {4, 6, 0}});
  Dendrogram D = clusterHierarchical(Dist, Linkage::Average);
  ASSERT_EQ(D.merges().size(), 2u);
  EXPECT_DOUBLE_EQ(D.merges()[1].Distance, 5.0);
}

TEST(ClusteringTest, CutToOneClusterGroupsAll) {
  Matrix Dist = Matrix::fromRows({{0, 1, 9}, {1, 0, 9}, {9, 9, 0}});
  Dendrogram D = clusterHierarchical(Dist);
  std::vector<size_t> Flat = D.cutToClusters(1);
  EXPECT_EQ(Flat, (std::vector<size_t>{0, 0, 0}));
}

TEST(ClusteringTest, CutToLeavesIsDiscrete) {
  Matrix Dist = Matrix::fromRows({{0, 1, 9}, {1, 0, 9}, {9, 9, 0}});
  Dendrogram D = clusterHierarchical(Dist);
  std::vector<size_t> Flat = D.cutToClusters(3);
  EXPECT_EQ(numClusters(Flat), 3u);
}

TEST(ClusteringTest, CutAtHeight) {
  Matrix Dist = Matrix::fromRows({{0, 1, 9}, {1, 0, 9}, {9, 9, 0}});
  Dendrogram D = clusterHierarchical(Dist);
  EXPECT_EQ(D.numClustersAtHeight(0.5), 3u);
  EXPECT_EQ(D.numClustersAtHeight(2.0), 2u);
  EXPECT_EQ(D.numClustersAtHeight(10.0), 1u);
}

TEST(ClusteringTest, SingleLinkageHeightsAreMonotone) {
  Rng R(5150);
  Matrix Dist(12, 12, 0.0);
  for (size_t I = 0; I < 12; ++I)
    for (size_t J = I + 1; J < 12; ++J) {
      double V = R.uniformReal() * 10;
      Dist.at(I, J) = V;
      Dist.at(J, I) = V;
    }
  Dendrogram D = clusterHierarchical(Dist, Linkage::Single);
  for (size_t M = 1; M < D.merges().size(); ++M)
    EXPECT_GE(D.merges()[M].Distance, D.merges()[M - 1].Distance);
}

TEST(ClusteringTest, DendrogramRendering) {
  Matrix Dist = Matrix::fromRows({{0, 1, 9}, {1, 0, 9}, {9, 9, 0}});
  Dendrogram D = clusterHierarchical(Dist);
  std::string Out = renderDendrogramAscii(D, {"x", "y", "z"});
  EXPECT_NE(Out.find("x"), std::string::npos);
  EXPECT_NE(Out.find("y"), std::string::npos);
  EXPECT_NE(Out.find("z"), std::string::npos);
  EXPECT_NE(Out.find("d="), std::string::npos);
}

TEST(ClusteringTest, InfiniteBlocksJoinLastAtInfinity) {
  // No finite distance joins {0, 1} and {2, 3}: the last merge joins
  // those two clusters at +inf.
  const double Inf = std::numeric_limits<double>::infinity();
  Matrix Dist = Matrix::fromRows(
      {{0, 1, Inf, Inf}, {1, 0, Inf, Inf}, {Inf, Inf, 0, 2}, {Inf, Inf, 2, 0}});
  for (Linkage Link :
       {Linkage::Single, Linkage::Complete, Linkage::Average}) {
    SCOPED_TRACE(linkageName(Link));
    Dendrogram D = clusterHierarchical(Dist, Link);
    expectWellFormed(D);
    ASSERT_EQ(D.merges().size(), 3u);
    EXPECT_EQ(D.merges()[2].Left, 4u);
    EXPECT_EQ(D.merges()[2].Right, 5u);
    EXPECT_EQ(D.merges()[2].Distance, Inf);
    EXPECT_EQ(D.merges()[2].Size, 4u);
  }
}

TEST(ClusteringTest, NanDistancesCountAsInfinite) {
  // Every pair NaN: each step joins the first two active slots at +inf.
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  Matrix Dist(4, 4, NaN);
  for (size_t I = 0; I < 4; ++I)
    Dist.at(I, I) = 0.0;
  for (Linkage Link :
       {Linkage::Single, Linkage::Complete, Linkage::Average}) {
    SCOPED_TRACE(linkageName(Link));
    Dendrogram D = clusterHierarchical(Dist, Link);
    expectWellFormed(D);
    const size_t Expected[][2] = {{0, 1}, {4, 2}, {5, 3}};
    for (size_t M = 0; M < 3; ++M) {
      EXPECT_EQ(D.merges()[M].Left, Expected[M][0]);
      EXPECT_EQ(D.merges()[M].Right, Expected[M][1]);
      EXPECT_EQ(D.merges()[M].Distance,
                std::numeric_limits<double>::infinity());
    }
  }
}

TEST(ClusteringTest, CachedSearchMatchesExhaustiveScan) {
  // About 200 seeded symmetric matrices, mostly small, a few up to
  // N = 300, in four kinds: values in {0, 1, 2, 3} (ties everywhere),
  // values in [0, 1), and each of those split into blocks that only
  // +inf joins, the second with some NaN pairs too.
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<size_t> Sizes;
  for (size_t N = 2; N < 66; ++N)
    for (int Copy = 0; Copy < 3; ++Copy)
      Sizes.push_back(N);
  for (size_t N : {80, 110, 128, 150, 200, 256, 300})
    Sizes.push_back(N);
  Rng R(20111109);
  for (size_t Case = 0; Case < Sizes.size(); ++Case) {
    const size_t N = Sizes[Case], Kind = Case % 4;
    std::vector<uint64_t> Block(N);
    for (uint64_t &B : Block)
      B = Kind >= 2 ? R.uniformInt(0, 3) : 0;
    Matrix Dist(N, N, 0.0);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = I + 1; J < N; ++J) {
        double V = Kind % 2 == 0 ? static_cast<double>(R.uniformInt(0, 3))
                                 : R.uniformReal();
        if (Block[I] != Block[J])
          V = Inf;
        else if (Kind == 3 && R.flip(0.05))
          V = NaN;
        Dist.at(I, J) = V;
        Dist.at(J, I) = V;
      }
    for (Linkage Link :
         {Linkage::Single, Linkage::Complete, Linkage::Average}) {
      const std::vector<Merge> Expected = exhaustiveMerges(Dist, Link);
      const Dendrogram D = clusterHierarchical(Dist, Link);
      ASSERT_EQ(D.merges().size(), Expected.size());
      for (size_t M = 0; M < Expected.size(); ++M) {
        const Merge &Got = D.merges()[M], &Want = Expected[M];
        ASSERT_TRUE(Got.Left == Want.Left && Got.Right == Want.Right &&
                    Got.Size == Want.Size &&
                    std::memcmp(&Got.Distance, &Want.Distance,
                                sizeof(double)) == 0)
            << "case " << Case << " (N = " << N << ", kind " << Kind << ", "
            << linkageName(Link) << ") merge " << M << ": got (" << Got.Left
            << ", " << Got.Right << ", " << Got.Distance << ", " << Got.Size
            << "), want (" << Want.Left << ", " << Want.Right << ", "
            << Want.Distance << ", " << Want.Size << ")";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Kernel-to-distance conversions
//===----------------------------------------------------------------------===//

TEST(DistanceTest, SimilarityToDistanceBasics) {
  Matrix K = Matrix::fromRows({{1.0, 0.25}, {0.25, 1.0}});
  Matrix D = similarityToDistance(K);
  EXPECT_DOUBLE_EQ(D.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(D.at(0, 1), 0.75);
}

TEST(DistanceTest, SimilarityAboveOneClampsToZero) {
  // The Kast kernel can exceed 1 after normalization; distance floors
  // at zero.
  Matrix K = Matrix::fromRows({{1.0, 1.2}, {1.2, 1.0}});
  Matrix D = similarityToDistance(K);
  EXPECT_DOUBLE_EQ(D.at(0, 1), 0.0);
}

//===----------------------------------------------------------------------===//
// Cluster metrics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, PurityPerfectAndMixed) {
  std::vector<std::string> Labels = {"A", "A", "B", "B"};
  EXPECT_DOUBLE_EQ(purity({0, 0, 1, 1}, Labels), 1.0);
  EXPECT_DOUBLE_EQ(purity({0, 1, 0, 1}, Labels), 0.5);
  EXPECT_DOUBLE_EQ(purity({0, 0, 0, 0}, Labels), 0.5);
}

TEST(MetricsTest, AriPerfectIsOne) {
  std::vector<std::string> Labels = {"A", "A", "B", "B", "C"};
  EXPECT_NEAR(adjustedRandIndex({0, 0, 1, 1, 2}, Labels), 1.0, 1e-12);
}

TEST(MetricsTest, AriLabelPermutationInvariant) {
  std::vector<std::string> Labels = {"A", "A", "B", "B"};
  EXPECT_NEAR(adjustedRandIndex({1, 1, 0, 0}, Labels), 1.0, 1e-12);
}

TEST(MetricsTest, AriRandomIsLow) {
  // A clustering that splits each label evenly carries no information.
  std::vector<std::string> Labels = {"A", "A", "B", "B"};
  double Ari = adjustedRandIndex({0, 1, 0, 1}, Labels);
  EXPECT_LT(Ari, 0.2);
}

TEST(MetricsTest, MisplacedCountZeroWhenGroupsMatch) {
  std::vector<std::string> Labels = {"A", "A", "B", "C", "C", "D"};
  // Expected grouping: {A}, {B}, {C, D} — the paper's outcome.
  LabelGrouping Groups = {{"A"}, {"B"}, {"C", "D"}};
  EXPECT_EQ(misplacedCount({0, 0, 1, 2, 2, 2}, Labels, Groups), 0u);
}

TEST(MetricsTest, MisplacedCountDetectsStrays) {
  std::vector<std::string> Labels = {"A", "A", "A", "B", "B", "B"};
  LabelGrouping Groups = {{"A"}, {"B"}};
  // One B sits in the A cluster.
  EXPECT_EQ(misplacedCount({0, 0, 0, 0, 1, 1}, Labels, Groups), 1u);
}

TEST(MetricsTest, MatchesGroupingExact) {
  std::vector<std::string> Labels = {"A", "A", "B", "C", "D"};
  LabelGrouping Expected = {{"A"}, {"B"}, {"C", "D"}};
  EXPECT_TRUE(matchesGrouping({0, 0, 1, 2, 2}, Labels, Expected));
  // C and D split: no match.
  EXPECT_FALSE(matchesGrouping({0, 0, 1, 2, 3}, Labels, Expected));
  // B absorbed into A: no match.
  EXPECT_FALSE(matchesGrouping({0, 0, 0, 1, 1}, Labels, Expected));
}

TEST(MetricsTest, MatchesGroupingRejectsForeignLabels) {
  std::vector<std::string> Labels = {"A", "Z"};
  LabelGrouping Expected = {{"A"}, {"B"}};
  EXPECT_FALSE(matchesGrouping({0, 1}, Labels, Expected));
}

TEST(MetricsTest, NumClusters) {
  EXPECT_EQ(numClusters({0, 1, 2, 1}), 3u);
  EXPECT_EQ(numClusters({}), 0u);
}

TEST(MetricsTest, SilhouetteWellSeparatedIsHigh) {
  std::vector<std::pair<double, double>> Points = {
      {0, 0}, {0.1, 0}, {10, 10}, {10.1, 10}};
  Matrix D = distOfPoints(Points);
  double S = silhouetteScore(D.data(), 4, {0, 0, 1, 1});
  EXPECT_GT(S, 0.95);
}

TEST(MetricsTest, SilhouetteBadSplitIsLow) {
  std::vector<std::pair<double, double>> Points = {
      {0, 0}, {0.1, 0}, {10, 10}, {10.1, 10}};
  Matrix D = distOfPoints(Points);
  // Clusters cut across the natural groups.
  double S = silhouetteScore(D.data(), 4, {0, 1, 0, 1});
  EXPECT_LT(S, 0.0);
}

TEST(MetricsTest, SilhouetteSingletonsContributeZero) {
  std::vector<std::pair<double, double>> Points = {
      {0, 0}, {0.1, 0}, {10, 10}};
  Matrix D = distOfPoints(Points);
  double S = silhouetteScore(D.data(), 3, {0, 0, 1});
  // The singleton contributes 0; the pair contributes ~1 each.
  EXPECT_GT(S, 0.6);
  EXPECT_LT(S, 0.7);
}

TEST(NearestNeighborTest, PerfectBlockMatrix) {
  // Similarity 0.9 within labels, 0.1 across.
  std::vector<std::string> Labels = {"A", "A", "B", "B"};
  Matrix K(4, 4, 0.1);
  for (size_t I = 0; I < 4; ++I)
    K.at(I, I) = 1.0;
  K.at(0, 1) = K.at(1, 0) = 0.9;
  K.at(2, 3) = K.at(3, 2) = 0.9;
  LooResult R = leaveOneOutNearestNeighbor(K, Labels);
  EXPECT_DOUBLE_EQ(R.Accuracy, 1.0);
  EXPECT_TRUE(R.Errors.empty());
  EXPECT_EQ(R.Predictions[0], "A");
  EXPECT_EQ(R.Predictions[3], "B");
}

TEST(NearestNeighborTest, ReportsErrors) {
  std::vector<std::string> Labels = {"A", "A", "B"};
  Matrix K(3, 3, 0.0);
  for (size_t I = 0; I < 3; ++I)
    K.at(I, I) = 1.0;
  // B's nearest is an A.
  K.at(2, 0) = K.at(0, 2) = 0.8;
  K.at(0, 1) = K.at(1, 0) = 0.9;
  LooResult R = leaveOneOutNearestNeighbor(K, Labels);
  EXPECT_NEAR(R.Accuracy, 2.0 / 3.0, 1e-12);
  ASSERT_EQ(R.Errors.size(), 1u);
  EXPECT_EQ(R.Errors[0], 2u);
}

TEST(NearestNeighborTest, TieBreaksTowardSmallerIndex) {
  std::vector<std::string> Labels = {"A", "B", "C"};
  Matrix K(3, 3, 0.5); // All equal.
  for (size_t I = 0; I < 3; ++I)
    K.at(I, I) = 1.0;
  LooResult R = leaveOneOutNearestNeighbor(K, Labels);
  EXPECT_EQ(R.Predictions[2], "A"); // Index 0 wins the tie.
}

TEST(NearestNeighborTest, SelectsNeighborWhenAllSimilaritiesBelowMinusOne) {
  // Regression: BestSim used to start at the sentinel -1.0, so with an
  // unnormalized kernel whose similarities all sit at or below -1 no
  // neighbor was ever selected and the self-index leaked through as
  // prediction "".
  std::vector<std::string> Labels = {"A", "B", "A"};
  Matrix K(3, 3, 0.0);
  K.at(0, 1) = K.at(1, 0) = -2.0;
  K.at(0, 2) = K.at(2, 0) = -1.5;
  K.at(1, 2) = K.at(2, 1) = -3.0;
  LooResult R = leaveOneOutNearestNeighbor(K, Labels);
  EXPECT_EQ(R.Predictions[0], "A"); // Argmax of {-2, -1.5} is index 2.
  EXPECT_EQ(R.Predictions[1], "A"); // Argmax of {-2, -3} is index 0.
  EXPECT_EQ(R.Predictions[2], "A"); // Argmax of {-1.5, -3} is index 0.
  EXPECT_NEAR(R.Accuracy, 2.0 / 3.0, 1e-12);
  ASSERT_EQ(R.Errors.size(), 1u);
  EXPECT_EQ(R.Errors[0], 1u);
}

TEST(NearestNeighborTest, SingletonCorpusHasNoNeighbor) {
  // With N == 1 there is no J != I at all; the prediction stays empty
  // and counts as an error.
  Matrix K(1, 1, 1.0);
  LooResult R = leaveOneOutNearestNeighbor(K, {"A"});
  EXPECT_EQ(R.Predictions[0], "");
  EXPECT_DOUBLE_EQ(R.Accuracy, 0.0);
}

TEST(MetricsTest, SilhouetteSingleClusterIsZero) {
  std::vector<std::pair<double, double>> Points = {{0, 0}, {1, 1}};
  Matrix D = distOfPoints(Points);
  EXPECT_DOUBLE_EQ(silhouetteScore(D.data(), 2, {0, 0}), 0.0);
}
