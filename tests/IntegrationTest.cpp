//===- tests/IntegrationTest.cpp - end-to-end paper claims -----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full-pipeline tests asserting the qualitative outcomes of the
/// paper's evaluation (§4.2-4.3) on the synthetic corpus:
///
///  * Kast kernel + byte info + small cut weight: the 3-cluster cut is
///    exactly {A}, {B}, {C u D} with no misplaced examples (Figs. 6-7);
///  * Kast kernel without byte info at small cut: B separates, A/C/D
///    merge (§4.2);
///  * Blended kernel + byte info: only A separates (Figs. 8-9);
///  * mutated copies stay nearest their own category (§4.1).
///
//===----------------------------------------------------------------------===//

#include "core/KastKernel.h"
#include "core/KernelMatrix.h"
#include "kernels/SpectrumKernels.h"
#include "linalg/Eigen.h"
#include "ml/ClusterMetrics.h"
#include "ml/HierarchicalClustering.h"
#include "ml/KernelPca.h"
#include "workloads/DatasetBuilder.h"

#include <gtest/gtest.h>

using namespace kast;

namespace {

/// Shared corpus fixture: traces generated once per process.
class PaperEvaluation : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Corpus = new std::vector<LabeledTrace>(generateCorpus());
    WithBytes = new LabeledDataset(
        convertCorpus(Pipeline::withBytes(), *Corpus));
    NoBytes = new LabeledDataset(
        convertCorpus(Pipeline::withoutBytes(), *Corpus));
  }
  static void TearDownTestSuite() {
    delete Corpus;
    delete WithBytes;
    delete NoBytes;
    Corpus = nullptr;
    WithBytes = nullptr;
    NoBytes = nullptr;
  }

  /// Normalized Gram matrix of \p Kernel over \p Data.
  static Matrix gram(const StringKernel &Kernel,
                     const LabeledDataset &Data) {
    KernelMatrixOptions Options;
    Options.Normalize = true;
    return computeKernelMatrix(Kernel, Data.strings(), Options);
  }

  /// Flat clustering of the normalized Gram matrix, single linkage.
  static std::vector<size_t> clusterCut(const Matrix &K, size_t NumC) {
    Dendrogram D = clusterHierarchical(similarityToDistance(K));
    return D.cutToClusters(NumC);
  }

  static std::vector<LabeledTrace> *Corpus;
  static LabeledDataset *WithBytes;
  static LabeledDataset *NoBytes;
};

std::vector<LabeledTrace> *PaperEvaluation::Corpus = nullptr;
LabeledDataset *PaperEvaluation::WithBytes = nullptr;
LabeledDataset *PaperEvaluation::NoBytes = nullptr;

} // namespace

//===----------------------------------------------------------------------===//
// Figures 6-7 and Table 1: Kast kernel, byte information, small cuts
//===----------------------------------------------------------------------===//

/// Table 1's Kast-with-bytes rows at cut weights 2, 4 and 8, with and
/// without the §4.1 PSD repair.
class KastWithBytesSweep
    : public PaperEvaluation,
      public ::testing::WithParamInterface<std::tuple<uint64_t, bool>> {};

TEST_P(KastWithBytesSweep, SeparatesABandMergesCD) {
  auto [Cut, Repair] = GetParam();
  KastSpectrumKernel Kernel({Cut});
  KernelMatrixOptions Options;
  Options.Normalize = true;
  Options.RepairPsd = Repair;
  Matrix K = computeKernelMatrix(Kernel, WithBytes->strings(), Options);
  std::vector<size_t> Flat = clusterCut(K, 3);
  // "both learning algorithms clearly separated the same 3 clusters"
  // with "not misplaced examples on any of the groups".
  EXPECT_TRUE(matchesGrouping(Flat, WithBytes->labels(),
                              {{"A"}, {"B"}, {"C", "D"}}))
      << "purity=" << purity(Flat, WithBytes->labels());
  EXPECT_EQ(
      misplacedCount(Flat, WithBytes->labels(), {{"A"}, {"B"}, {"C", "D"}}),
      0u);
  EXPECT_NEAR(purity(Flat, WithBytes->labels()), 0.818, 5e-4);
  EXPECT_NEAR(adjustedRandIndex(Flat, WithBytes->labels()), 0.850, 5e-4);
}

INSTANTIATE_TEST_SUITE_P(Table1, KastWithBytesSweep,
                         ::testing::Combine(::testing::Values(2u, 4u, 8u),
                                            ::testing::Bool()));

TEST_F(PaperEvaluation, KastWithBytesKernelPcaSeparatesGroups) {
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  Matrix K = gram(Kernel, *WithBytes);
  KernelPcaResult Pca = kernelPca(projectToPsd(K), 2);
  ASSERT_GE(Pca.Projections.cols(), 2u);
  // Verify geometric separation: every A is closer to the A centroid
  // than to the B centroid and vice versa.
  auto Centroid = [&](const std::string &Label) {
    double X = 0, Y = 0;
    std::vector<size_t> Idx = WithBytes->indicesOf(Label);
    for (size_t I : Idx) {
      X += Pca.Projections.at(I, 0);
      Y += Pca.Projections.at(I, 1);
    }
    return std::make_pair(X / Idx.size(), Y / Idx.size());
  };
  auto [Ax, Ay] = Centroid("A");
  auto [Bx, By] = Centroid("B");
  size_t Correct = 0, Total = 0;
  for (const char *Label : {"A", "B"}) {
    for (size_t I : WithBytes->indicesOf(Label)) {
      double X = Pca.Projections.at(I, 0);
      double Y = Pca.Projections.at(I, 1);
      double Da = (X - Ax) * (X - Ax) + (Y - Ay) * (Y - Ay);
      double Db = (X - Bx) * (X - Bx) + (Y - By) * (Y - By);
      Correct += std::string(Label) == "A" ? Da < Db : Db < Da;
      ++Total;
    }
  }
  EXPECT_EQ(Correct, Total);
}

//===----------------------------------------------------------------------===//
// §4.2: Kast kernel without byte information
//===----------------------------------------------------------------------===//

TEST_F(PaperEvaluation, KastNoBytesSeparatesOnlyBAtSmallCut) {
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  Matrix K = gram(Kernel, *NoBytes);
  std::vector<size_t> Flat = clusterCut(K, 2);
  // "Random POSIX I/O (B) was the only group independently separated,
  // while Flash I/O, Normal I/O and Random Access I/O (A-C-D)
  // conformed a second group."
  EXPECT_TRUE(matchesGrouping(Flat, NoBytes->labels(),
                              {{"B"}, {"A", "C", "D"}}))
      << "purity=" << purity(Flat, NoBytes->labels());
}

//===----------------------------------------------------------------------===//
// Figures 8-9: Blended spectrum kernel, byte information
//===----------------------------------------------------------------------===//

TEST_F(PaperEvaluation, BlendedWithBytesSeparatesOnlyA) {
  // The paper gives no blended parameters; k = 3 with a mild long-gram
  // emphasis (lambda = 1.25) is the baseline's best configuration on
  // this corpus — and it lands exactly on the paper's outcome (see
  // EXPERIMENTS.md).
  BlendedSpectrumKernel Kernel(/*K=*/3, /*Lambda=*/1.25);
  Matrix K = gram(Kernel, *WithBytes);
  std::vector<size_t> Flat = clusterCut(K, 2);
  // "only Flash I/O (A) examples were independently separated, while
  // ... (B-C-D) conformed a single group."
  EXPECT_TRUE(matchesGrouping(Flat, WithBytes->labels(),
                              {{"A"}, {"B", "C", "D"}}))
      << "purity=" << purity(Flat, WithBytes->labels());
}

TEST_F(PaperEvaluation, BlendedDoesNotRecoverThreeGroups) {
  // The blended baseline must be strictly weaker than Kast here: its
  // 3-cut does not realize {A},{B},{C u D}.
  BlendedSpectrumKernel Kernel(3, 1.25);
  Matrix K = gram(Kernel, *WithBytes);
  std::vector<size_t> Flat = clusterCut(K, 3);
  EXPECT_FALSE(matchesGrouping(Flat, WithBytes->labels(),
                               {{"A"}, {"B"}, {"C", "D"}}));
}

//===----------------------------------------------------------------------===//
// §4.1: mutated copies stay close to their originals
//===----------------------------------------------------------------------===//

TEST_F(PaperEvaluation, MutantsNearestNeighborSharesGroup) {
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  Matrix K = gram(Kernel, *WithBytes);
  // C and D form one ground-truth group ("shared roughly the same
  // pattern"); nearest-neighbor agreement is measured at group level.
  auto Group = [](const std::string &Label) {
    return Label == "D" ? std::string("C") : Label;
  };
  size_t Correct = 0;
  for (size_t I = 0; I < WithBytes->size(); ++I) {
    size_t Best = I;
    double BestSim = -1.0;
    for (size_t J = 0; J < WithBytes->size(); ++J) {
      if (J == I)
        continue;
      if (K.at(I, J) > BestSim) {
        BestSim = K.at(I, J);
        Best = J;
      }
    }
    Correct += Group(WithBytes->label(I)) == Group(WithBytes->label(Best));
  }
  // Nearest neighbor classification over the Kast similarity must be
  // perfect at group granularity on this corpus.
  EXPECT_EQ(Correct, WithBytes->size());
}

//===----------------------------------------------------------------------===//
// Matrix post-processing invariants on the real corpus
//===----------------------------------------------------------------------===//

TEST_F(PaperEvaluation, NormalizedGramHasUnitDiagonal) {
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  Matrix K = gram(Kernel, *WithBytes);
  EXPECT_TRUE(K.isSymmetric(1e-9));
  for (size_t I = 0; I < K.rows(); ++I)
    EXPECT_DOUBLE_EQ(K.at(I, I), 1.0);
}

TEST_F(PaperEvaluation, PsdRepairPreservesClustering) {
  KastSpectrumKernel Kernel({/*CutWeight=*/2});
  KernelMatrixOptions Options;
  Options.Normalize = true;
  Options.RepairPsd = true;
  Matrix K =
      computeKernelMatrix(Kernel, WithBytes->strings(), Options);
  EXPECT_GE(minEigenvalue(K), -1e-8);
  std::vector<size_t> Flat = clusterCut(K, 3);
  EXPECT_TRUE(matchesGrouping(Flat, WithBytes->labels(),
                              {{"A"}, {"B"}, {"C", "D"}}));
}
