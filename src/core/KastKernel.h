//===- core/KastKernel.h - The Kast Spectrum Kernel ------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's novel kernel function (§3.2). For strings A, B and a
/// *cut weight* n, the embedding has one feature per literal sequence s
/// such that
///
///   * s occurs in both strings; occurrences are literal matches, so
///     "the weight of a target substring might be different in each
///     string";
///   * s has at least one qualifying occurrence in each string, where
///     an occurrence qualifies if its token-weight sum is >= n (see
///     CutPolicy for the alternative reading);
///   * s has, in at least one string, an occurrence that is not a
///     sub-interval of an occurrence of a longer shared substring —
///     realized as maximal match occurrences, see Matcher.h.
///
/// The feature value f_s(X) is the summed weight of the qualifying
/// occurrences of s in X ("the summation of the weights of all the
/// substring appearances"), and k(A,B) = sum_s f_s(A) * f_s(B).
///
/// Strings whose total weight is below the cut weight are ignored
/// (k = 0, per §3.2 "Strings with a weight value that is smaller than
/// the cut weight are ignored").
///
/// Under these semantics the only maximal self-match of A is A itself,
/// so k(A,A) = weight(A)^2 and cosine normalization reproduces the
/// paper's Eq. (12) normalization by weight(A) * weight(B); the §3.2
/// worked example (feature vectors {19,13,15} and {35,11,14}, kernel
/// value 1018, normalized 1018/3328) is a unit test.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_KASTKERNEL_H
#define KAST_CORE_KASTKERNEL_H

#include "core/StringKernel.h"

#include <cstdint>
#include <vector>

namespace kast {

/// How the cut weight filters candidate features.
enum class CutPolicy {
  /// An occurrence qualifies iff its weight >= cut; a feature needs a
  /// qualifying occurrence in both strings and sums only qualifying
  /// occurrences. (Default; matches the worked example.)
  PerOccurrence,
  /// All occurrences count; a feature qualifies iff its summed weight
  /// is >= cut in both strings.
  PerFeatureTotal,
};

/// Tuning knobs for the Kast Spectrum Kernel.
struct KastKernelOptions {
  /// The minimum weight parameter of §3.2.
  uint64_t CutWeight = 2;
  /// Cut interpretation; see CutPolicy.
  CutPolicy Policy = CutPolicy::PerOccurrence;
  /// Use the quadratic reference matcher instead of the suffix
  /// automaton (for differential testing and the ablation bench).
  bool UseReferenceMatcher = false;
};

/// One feature of the induced embedding, exposed for inspection,
/// debugging and the worked-example tests.
struct KastFeature {
  /// The literal-id sequence of the shared substring.
  std::vector<uint32_t> Literals;
  /// Summed qualifying-occurrence weight in A / in B.
  uint64_t WeightInA = 0;
  uint64_t WeightInB = 0;
  /// Number of qualifying occurrences in A / in B.
  size_t CountInA = 0;
  size_t CountInB = 0;

  bool operator==(const KastFeature &Rhs) const = default;
};

/// The Kast Spectrum Kernel.
///
/// The kernel's features are pair-dependent (maximal matches of A
/// *relative to B*), so it has no per-string profile. Instead
/// precompute() caches, per string X, the reversed literal sequence and
/// its suffix automaton with end-position index, which a Gram matrix
/// build would otherwise reconstruct N-1 times per string. A pair then
/// costs O(|A| + |B|) for the matching statistics against the partner's
/// automaton, plus sorting the candidate features, locating each
/// distinct one in both automata (O(its length)) and O(1) per
/// occurrence to weigh it with the prefix-sum rangeWeight — output
/// sensitive, with no rescan of either string. UseReferenceMatcher
/// swaps all of this for the quadratic matcher and a scan per feature.
class KastSpectrumKernel : public StringKernel {
public:
  explicit KastSpectrumKernel(KastKernelOptions Options = {});

  double evaluate(const WeightedString &A,
                  const WeightedString &B) const override;
  std::unique_ptr<KernelPrecomputation>
  precompute(const WeightedString &X) const override;
  double evaluatePrepared(const WeightedString &A,
                          const KernelPrecomputation *PrepA,
                          const WeightedString &B,
                          const KernelPrecomputation *PrepB) const override;
  std::string name() const override;

  /// Computes the explicit shared-feature embedding of (A, B); the
  /// kernel value is the inner product of the two weight columns.
  std::vector<KastFeature> features(const WeightedString &A,
                                    const WeightedString &B) const;

  const KastKernelOptions &options() const { return Options; }

private:
  KastKernelOptions Options;
};

} // namespace kast

#endif // KAST_CORE_KASTKERNEL_H
