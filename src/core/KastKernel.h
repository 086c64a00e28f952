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
#include <map>
#include <span>
#include <vector>

namespace kast {

class Matrix;

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
/// precompute() caches the reversed literal sequence and its suffix
/// automaton with end-position index, which depend on X's literal ids
/// alone. evaluatePrepared() then costs O(|A| + |B|) for the matching
/// statistics against each partner's automaton, which also name every
/// maximal match by its (state, length) there; locating each distinct
/// candidate in its own string's automaton (O(its length)); and O(1)
/// per occurrence to weigh it with the prefix-sum rangeWeight — output
/// sensitive, with no rescan of either string and no literal
/// comparison. evaluate() and features() are the reference: candidates
/// sorted lexicographically and the inner product summed in double in
/// that order, which evaluatePrepared() matches bit for bit (see
/// KastGramGroups). UseReferenceMatcher swaps the matching for the
/// quadratic matcher and a scan per feature.
class KastSpectrumKernel final : public StringKernel {
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

/// The grouped Kast Gram: the fill core/KernelMatrix runs for a
/// KastSpectrumKernel on the suffix-automaton matcher with UsePrecompute
/// on (one cut weight), and computeKastGrams' for a list of cut weights.
///
/// Which substrings become features depends only on the two strings'
/// literal-id sequences; token weights and the cut enter only when
/// occurrences are weighed. So rows are grouped by literal-id sequence,
/// each group keeps one precomputation, and each pair of groups finds
/// its candidate features and their occurrences once for all of its
/// member pairs and all cut weights — the work grows with the distinct
/// structure, not with the number of rows or cuts. Candidates come from
/// one matching walk per direction over the partner's frozen automaton
/// (visitMaximalMatches), into buffers each worker reuses across its
/// group pairs. A member entry is then, per cut, the dot of the two
/// members' per-candidate qualifying weights, summed exactly in 128
/// bits. Every product is an integer, so below 2^53 the exact sum is
/// also the double sum in any order, the reference's lexicographic
/// order included; an entry that reaches 2^53 takes the reference's
/// ordered sum instead. KastSpectrumKernel::evaluatePrepared runs the
/// same group-pair routine on two one-row groups.
class KastGramGroups {
public:
  /// A Gram per cut weight in \p Cuts, all under \p Policy.
  KastGramGroups(std::vector<uint64_t> Cuts, CutPolicy Policy);

  /// Groups the rows \p Strings[size()..] and writes, for each cut
  /// weight Cuts[C], every entry of \p Raw[C] they introduce — (I, J)
  /// and (J, I) for each I <= J with J >= size(), the diagonal
  /// included — in parallel over the group pairs with a new member on
  /// \p Threads workers (0 = hardware concurrency, 1 = inline). Entries
  /// of rows the cut ignores are left as they are (zero in a freshly
  /// grown matrix). \p Strings must extend the strings of earlier
  /// calls, and \p Raw holds one matrix per cut weight, each at least
  /// |Strings| square.
  void appendRows(std::span<const WeightedString> Strings,
                  std::span<Matrix> Raw, size_t Threads);

private:
  std::vector<uint64_t> Cuts;
  CutPolicy Policy;
  size_t Rows = 0;
  /// Literal-id sequence -> group.
  std::map<std::vector<uint32_t>, uint32_t> GroupOf;
  /// Per group: its precomputation and its rows, ascending.
  std::vector<std::unique_ptr<KernelPrecomputation>> Prep;
  std::vector<std::vector<uint32_t>> Members;
};

} // namespace kast

#endif // KAST_CORE_KASTKERNEL_H
