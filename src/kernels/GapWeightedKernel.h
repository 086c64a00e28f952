//===- kernels/GapWeightedKernel.h - Gap-weighted subsequences -*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The gap-weighted subsequences kernel of Lodhi et al. / Shawe-Taylor
/// & Cristianini [4] (ch. 11), adapted to token strings: features are
/// *non-contiguous* subsequences u of length p, and an occurrence
/// spanning l tokens contributes lambda^l, penalizing gaps. Computed
/// with the standard O(p * |s| * |t|) dynamic program.
///
/// This baseline is not part of the paper's evaluation — §2.2 only
/// surveys it via [4] — but it is the natural next step up from the
/// blended spectrum kernel, and tab1's classic baselines put it in
/// context: allowing gaps does not rescue count-based kernels on this
/// problem.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_KERNELS_GAPWEIGHTEDKERNEL_H
#define KAST_KERNELS_GAPWEIGHTEDKERNEL_H

#include "core/StringKernel.h"

namespace kast {

/// Gap-weighted subsequences kernel of order p.
class GapWeightedKernel : public StringKernel {
public:
  /// \param P      subsequence length (>= 1)
  /// \param Lambda gap decay in (0, 1]
  explicit GapWeightedKernel(size_t P = 3, double Lambda = 0.5);

  /// The Lodhi DP is inherently pairwise — its K' tables depend on
  /// both strings — so there is no per-string state to derive once, and
  /// Gram builds pay O(N² · dp) on this kernel by nature, not by
  /// omission: computeKernelMatrix calls this per pair.
  double evaluate(const WeightedString &A,
                  const WeightedString &B) const override;

  std::string name() const override;

private:
  size_t P;
  double Lambda;
};

} // namespace kast

#endif // KAST_KERNELS_GAPWEIGHTEDKERNEL_H
