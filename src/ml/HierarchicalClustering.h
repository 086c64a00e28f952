//===- ml/HierarchicalClustering.h - Agglomerative clustering --*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Agglomerative hierarchical clustering, the second learning
/// algorithm of the paper's evaluation ("Hierarchical Clustering, ...
/// using the simple linkage method", §4.1 — i.e. single linkage).
/// Implemented with Lance-Williams updates over a working distance
/// matrix; single, complete and average linkage are provided (the
/// extra linkages support the ablation benches).
///
/// Each step merges the closest active pair, the first in (i, j) slot
/// order on ties. The search keeps a row-minimum cache (Müllner's
/// "generic" algorithm without its priority queue, arXiv:1109.2378):
/// each active slot remembers its nearest later active slot, the first
/// on ties, and a step takes the smallest cached minimum, the first
/// slot on ties. After a merge, only the merged slot and the slots
/// whose nearest was in the pair rescan their row; every other earlier
/// slot adopts the merged one when it is closer, or as close and
/// earlier. That is O(n^2) work when few rows rescan, as on the
/// paper's matrices, and O(n^3) at worst.
///
/// NaN distances count as +inf when choosing a pair. When no finite
/// pair is left, the first two active slots merge at +inf, so the
/// dendrogram always has n - 1 merges of distinct clusters.
///
/// The result is a dendrogram: n - 1 merges in agglomeration order.
/// Leaves are clusters 0..n-1; merge i creates cluster n + i. Flat
/// clusterings are obtained by cutting to a cluster count or at a
/// height.
///
/// Normalized kernel matrices are converted to distances by d = 1 - k.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_ML_HIERARCHICALCLUSTERING_H
#define KAST_ML_HIERARCHICALCLUSTERING_H

#include "linalg/Matrix.h"

#include <string>
#include <vector>

namespace kast {

/// Inter-cluster distance update rule.
enum class Linkage {
  Single,   ///< min pairwise distance (the paper's choice)
  Complete, ///< max pairwise distance
  Average,  ///< unweighted average (UPGMA)
};

/// \returns "single", "complete" or "average".
const char *linkageName(Linkage L);

/// One agglomeration step.
struct Merge {
  /// Cluster ids merged (leaf ids < n; internal ids >= n).
  size_t Left = 0;
  size_t Right = 0;
  /// Linkage distance at which the merge happened.
  double Distance = 0.0;
  /// Number of leaves in the merged cluster.
  size_t Size = 0;
};

/// The full agglomeration history.
class Dendrogram {
public:
  Dendrogram(size_t NumLeaves, std::vector<Merge> Merges);

  size_t numLeaves() const { return NumLeaves; }
  const std::vector<Merge> &merges() const { return Merges; }

  /// Flat clustering with exactly \p K clusters (1 <= K <= n):
  /// Result[i] is a dense cluster index in [0, K) for leaf i. Cluster
  /// indices are ordered by first leaf occurrence.
  std::vector<size_t> cutToClusters(size_t K) const;

  /// Flat clustering keeping only merges with Distance <= Height.
  std::vector<size_t> cutAtHeight(double Height) const;

  /// Number of clusters obtained by cutAtHeight.
  size_t numClustersAtHeight(double Height) const;

private:
  size_t NumLeaves;
  std::vector<Merge> Merges;
};

/// Clusters the symmetric distance matrix \p Distance.
Dendrogram clusterHierarchical(const Matrix &Distance,
                               Linkage Link = Linkage::Single);

/// 1 - k distance for normalized kernel matrices (diagonal == 1).
Matrix similarityToDistance(const Matrix &K);

/// Text rendering of the dendrogram with per-leaf labels, drawn as a
/// rotated tree (merge heights increase to the right).
std::string renderDendrogramAscii(const Dendrogram &D,
                                  const std::vector<std::string> &Labels);

} // namespace kast

#endif // KAST_ML_HIERARCHICALCLUSTERING_H
