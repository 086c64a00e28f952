//===- bench/FigureCommon.h - Shared figure-bench plumbing -----*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the figure/table reproduction harnesses: the
/// corpus in both representations, Gram-matrix helpers, and the
/// renderers that print a Kernel PCA "figure" (ASCII scatter plot) or
/// a clustering "figure" (dendrogram plus cut compositions and
/// quality metrics) the way the paper's evaluation reports them.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_BENCH_FIGURECOMMON_H
#define KAST_BENCH_FIGURECOMMON_H

#include "core/Dataset.h"
#include "core/KernelMatrix.h"
#include "core/StringKernel.h"
#include "ml/ClusterMetrics.h"
#include "ml/HierarchicalClustering.h"
#include "workloads/DatasetBuilder.h"

#include <span>
#include <string>
#include <vector>

namespace kast {

/// The evaluation corpus in both string representations.
struct FigureContext {
  std::vector<LabeledTrace> Corpus;
  LabeledDataset WithBytes;
  LabeledDataset NoBytes;
};

/// Generates the paper-shaped corpus (110 examples) once.
FigureContext buildFigureContext();

/// Normalized Gram matrix with the paper's PSD repair applied.
Matrix paperGram(const StringKernel &Kernel, const LabeledDataset &Data);

/// paperGram of the Kast kernel at each cut weight of \p Cuts (default
/// cut policy), from one computeKastGrams call.
std::vector<Matrix> paperKastGrams(std::span<const uint64_t> Cuts,
                                   const LabeledDataset &Data);

/// Scatter glyph for a category label ("A" -> 'A', ...).
char categoryGlyph(const std::string &Label);

/// Prints a Kernel PCA figure: header, explained variance, ASCII
/// scatter with one glyph per category, per-category centroids, and
/// the first two projection coordinates of every example.
void printKpcaFigure(const std::string &Title, const Matrix &K,
                     const LabeledDataset &Data);

/// Prints a clustering figure: single-linkage dendrogram, the cluster
/// compositions at 2/3/4-cluster cuts, quality metrics against the
/// paper's expected grouping, and a MATCH/expected verdict line.
void printDendrogramFigure(const std::string &Title, const Matrix &K,
                           const LabeledDataset &Data,
                           const LabelGrouping &ExpectedGroups,
                           size_t ExpectedCut);

/// "{A:50}|{B:20}|{C:20 D:20}"-style composition of a flat clustering.
std::string compositionString(const std::vector<size_t> &Flat,
                              const LabeledDataset &Data);

} // namespace kast

#endif // KAST_BENCH_FIGURECOMMON_H
