//===- bench/FigureCommon.cpp - Shared figure-bench plumbing ---------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "FigureCommon.h"

#include "core/Pipeline.h"
#include "linalg/Eigen.h"
#include "ml/KernelPca.h"
#include "util/AsciiPlot.h"
#include "util/TextTable.h"

#include <cstdio>
#include <map>

using namespace kast;

FigureContext kast::buildFigureContext() {
  FigureContext Ctx;
  Ctx.Corpus = generateCorpus();
  Ctx.WithBytes = convertCorpus(Pipeline::withBytes(), Ctx.Corpus);
  Ctx.NoBytes = convertCorpus(Pipeline::withoutBytes(), Ctx.Corpus);
  return Ctx;
}

/// Cosine normalization with §4.1's negative-eigenvalue repair.
static KernelMatrixOptions paperOptions() {
  KernelMatrixOptions Options;
  Options.Normalize = true;
  Options.RepairPsd = true;
  return Options;
}

Matrix kast::paperGram(const StringKernel &Kernel,
                       const LabeledDataset &Data) {
  return computeKernelMatrix(Kernel, Data.strings(), paperOptions());
}

std::vector<Matrix> kast::paperKastGrams(std::span<const uint64_t> Cuts,
                                         const LabeledDataset &Data) {
  return computeKastGrams(Data.strings(), Cuts, CutPolicy::PerOccurrence,
                          paperOptions());
}

char kast::categoryGlyph(const std::string &Label) {
  return Label.empty() ? '?' : Label[0];
}

void kast::printKpcaFigure(const std::string &Title, const Matrix &K,
                           const LabeledDataset &Data) {
  std::printf("=== %s ===\n", Title.c_str());
  KernelPcaResult Pca = kernelPca(K, 2);
  if (Pca.Projections.cols() < 2) {
    std::printf("fewer than two positive components; cannot plot\n");
    return;
  }
  std::printf("explained variance: PC1 %.1f%%  PC2 %.1f%%\n",
              100.0 * Pca.ExplainedVariance[0],
              100.0 * Pca.ExplainedVariance[1]);

  AsciiScatter Plot(72, 24);
  for (size_t I = 0; I < Data.size(); ++I)
    Plot.addPoint(Pca.Projections.at(I, 0), Pca.Projections.at(I, 1),
                  categoryGlyph(Data.label(I)));
  std::printf("%s", Plot.render().c_str());

  // Per-category centroids summarize the geometry numerically.
  TextTable Table;
  Table.setHeader({"category", "n", "centroid PC1", "centroid PC2"});
  for (const std::string &Label : Data.labelSet()) {
    double X = 0.0, Y = 0.0;
    std::vector<size_t> Idx = Data.indicesOf(Label);
    for (size_t I : Idx) {
      X += Pca.Projections.at(I, 0);
      Y += Pca.Projections.at(I, 1);
    }
    Table.addRow({Label, std::to_string(Idx.size()),
                  formatDouble(X / static_cast<double>(Idx.size())),
                  formatDouble(Y / static_cast<double>(Idx.size()))});
  }
  std::printf("%s", Table.render().c_str());

  std::printf("coordinates (name pc1 pc2):\n");
  for (size_t I = 0; I < Data.size(); ++I)
    std::printf("  %-8s %9.4f %9.4f\n", Data.string(I).name().c_str(),
                Pca.Projections.at(I, 0), Pca.Projections.at(I, 1));
}

std::string kast::compositionString(const std::vector<size_t> &Flat,
                                    const LabeledDataset &Data) {
  std::map<size_t, std::map<std::string, size_t>> Comp;
  for (size_t I = 0; I < Flat.size(); ++I)
    ++Comp[Flat[I]][Data.label(I)];
  std::string Out;
  for (const auto &[Cluster, Members] : Comp) {
    if (!Out.empty())
      Out += " | ";
    Out += "{";
    bool First = true;
    for (const auto &[Label, Count] : Members) {
      if (!First)
        Out += " ";
      Out += Label + ":" + std::to_string(Count);
      First = false;
    }
    Out += "}";
  }
  return Out;
}

void kast::printDendrogramFigure(const std::string &Title, const Matrix &K,
                                 const LabeledDataset &Data,
                                 const LabelGrouping &ExpectedGroups,
                                 size_t ExpectedCut) {
  std::printf("=== %s ===\n", Title.c_str());
  Dendrogram D = clusterHierarchical(similarityToDistance(K));

  std::vector<std::string> LeafLabels;
  LeafLabels.reserve(Data.size());
  for (size_t I = 0; I < Data.size(); ++I)
    LeafLabels.push_back(Data.string(I).name());
  std::printf("single-linkage dendrogram:\n%s",
              renderDendrogramAscii(D, LeafLabels).c_str());

  Matrix Dist = similarityToDistance(K);
  TextTable Table;
  Table.setHeader({"clusters", "composition", "purity", "ARI",
                   "misplaced", "silhouette"});
  for (size_t Cut : {2, 3, 4}) {
    std::vector<size_t> Flat = D.cutToClusters(Cut);
    Table.addRow({std::to_string(Cut), compositionString(Flat, Data),
                  formatDouble(purity(Flat, Data.labels()), 3),
                  formatDouble(adjustedRandIndex(Flat, Data.labels()), 3),
                  std::to_string(misplacedCount(Flat, Data.labels(),
                                                ExpectedGroups)),
                  formatDouble(silhouetteScore(Dist.data(), Data.size(),
                                               Flat),
                               3)});
  }
  std::printf("%s", Table.render().c_str());

  std::vector<size_t> Flat = D.cutToClusters(ExpectedCut);
  bool Match = matchesGrouping(Flat, Data.labels(), ExpectedGroups);
  std::string Expected;
  for (const auto &Group : ExpectedGroups) {
    if (!Expected.empty())
      Expected += " | ";
    Expected += "{";
    for (size_t I = 0; I < Group.size(); ++I)
      Expected += (I ? " " : "") + Group[I];
    Expected += "}";
  }
  std::printf("expected grouping at %zu clusters: %s -> %s\n",
              ExpectedCut, Expected.c_str(),
              Match ? "MATCHES PAPER" : "DIFFERS FROM PAPER");
}
