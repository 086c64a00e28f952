//===- core/KernelMatrix.h - Gram matrix construction ----------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the similarity (Gram) matrix a kernel induces over a corpus,
/// with the post-processing the paper's evaluation applies: cosine
/// normalization (Eq. 12) and PSD repair by negative-eigenvalue
/// clipping (§4.1). Pairwise evaluations run in parallel.
///
/// Two entry points:
///
///   * computeKernelMatrix — one-shot: the whole corpus in, the
///     post-processed matrix out.
///   * KernelMatrix — stateful and incrementally growable: appendRows
///     extends an existing N×N Gram to (N+M)×(N+M) by evaluating only
///     the N·M + M(M+1)/2 entries the new strings introduce, reusing
///     the cached per-string state for the old rows. This is what lets
///     a served corpus grow one batch of traces at a time without the
///     O(N²·dot) rebuild.
///
/// With UsePrecompute on, three fills share that contract:
///
///   * ProfiledStringKernel instances keep their per-string state in a
///     core/ProfileStore arena — one flat structure-of-arrays for the
///     whole corpus instead of one heap vector per string — and the
///     pair fill is cache-blocked: entries are computed tile-by-tile
///     over ProfileView pairs, so the hash arrays of one row tile stay
///     cache-resident while a column tile sweeps past them.
///   * A KastSpectrumKernel on the suffix-automaton matcher hands the
///     rows to core/KastKernel's KastGramGroups, which groups them by
///     literal-id sequence and finds each group pair's candidate
///     features once for all of its member pairs.
///   * Other kernels (combinators, plain pairwise kernels) keep the
///     opaque KernelPrecomputation handle per row.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_KERNELMATRIX_H
#define KAST_CORE_KERNELMATRIX_H

#include "core/KastKernel.h"
#include "core/ProfileStore.h"
#include "core/StringKernel.h"
#include "linalg/Matrix.h"

#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace kast {

/// Options for Gram matrix construction.
struct KernelMatrixOptions {
  /// Divide entries by sqrt(k(i,i) k(j,j)); rows with vanishing
  /// self-kernel get zero off-diagonals and a unit diagonal.
  bool Normalize = true;
  /// Clip negative eigenvalues to zero and rebuild (§4.1). Only
  /// meaningful together with Normalize in the paper's pipeline, but
  /// honored either way.
  bool RepairPsd = false;
  /// Worker threads for pairwise evaluation; 0 = hardware concurrency,
  /// 1 = inline (deterministic execution order).
  size_t Threads = 0;
  /// Build every string's kernel precomputation (feature profile,
  /// suffix automaton, ...) once up front and reuse it for all N-1
  /// pairs — the O(N·build + N²·dot) fast path. Off = evaluate every
  /// pair from scratch (the differential-testing baseline).
  bool UsePrecompute = true;
};

/// A pair of string indices into a Gram matrix.
struct GramPair {
  size_t I = 0;
  size_t J = 0;

  bool operator==(const GramPair &Rhs) const = default;
};

/// Closed-form inversion of the flattened strict-upper-triangle index:
/// over N strings, pair P in [0, N(N-1)/2) maps to (I, J) with I < J
/// and P = I(2N-I-1)/2 + (J-I-1). One sqrt plus a ±1 nudge for the
/// float root; exposed so the randomized differential test can compare
/// it against a loop-based inversion.
GramPair invertTrianglePairIndex(size_t P, size_t N);

/// Closed-form inversion of the flattened append-fill index: with
/// \p OldN existing rows, new-pair P maps to (I, J) with I >= OldN,
/// J < I, and P = R·OldN + R(R-1)/2 + J where R = I - OldN. Covers
/// both the old-vs-new rectangle and the new-vs-new triangle in one
/// index space; exposed for the same differential test.
GramPair invertAppendPairIndex(size_t P, size_t OldN);

/// Incrementally grown Gram matrix over one kernel.
///
/// Owns the raw (unnormalized) symmetric kernel matrix of the strings
/// appended so far, plus the per-string state of the active fill and
/// each string's self-kernel value. Post-processing (normalization,
/// PSD repair) is applied by materialize() to a copy, so the raw state
/// stays growable. \p Kernel is captured by reference and must outlive
/// the KernelMatrix.
class KernelMatrix {
public:
  explicit KernelMatrix(const StringKernel &Kernel,
                        KernelMatrixOptions Options = {});

  /// Appends \p NewStrings, precomputing their per-string state and
  /// evaluating only the entries they introduce: M self-kernels, the
  /// old-N × M rectangle and the M(M-1)/2 new-pair triangle. No
  /// existing entry is re-evaluated.
  void appendRows(const std::vector<WeightedString> &NewStrings);

  /// Number of strings appended so far.
  size_t size() const { return Strings.size(); }

  /// The raw (unnormalized, un-repaired) symmetric kernel matrix.
  const Matrix &raw() const { return Raw; }

  /// Raw self-kernel values k(i, i) (the diagonal of raw()).
  const std::vector<double> &diagonal() const { return Diag; }

  /// The strings appended so far, in order.
  const std::vector<WeightedString> &strings() const { return Strings; }

  /// The profile arena backing the fast path, or nullptr when the
  /// kernel is not profiled (or UsePrecompute is off) and another fill
  /// is active instead.
  const ProfileStore *profileStore() const {
    return UseStore() ? &Store : nullptr;
  }

  /// A copy of raw() with the configured post-processing applied:
  /// cosine normalization (zero-self-kernel rows get zero
  /// off-diagonals and an exact unit diagonal) and PSD repair.
  Matrix materialize() const;

private:
  bool UseStore() const { return Profiled != nullptr; }
  void fillTiled(size_t OldN, size_t N);
  void fillPrepared(size_t OldN, size_t N);

  const StringKernel &Kernel;
  /// Non-null iff Kernel is a ProfiledStringKernel and UsePrecompute
  /// is on — then Store (not Prep) carries the per-string state.
  const ProfiledStringKernel *Profiled = nullptr;
  KernelMatrixOptions Options;
  std::vector<WeightedString> Strings;
  std::vector<std::unique_ptr<KernelPrecomputation>> Prep;
  ProfileStore Store;
  /// Engaged iff Kernel is a KastSpectrumKernel on the automaton
  /// matcher and UsePrecompute is on — then it (not Prep) carries the
  /// per-group state.
  std::optional<KastGramGroups> Kast;
  std::vector<double> Diag;
  Matrix Raw;
};

/// Computes the full symmetric Gram matrix of \p Kernel over
/// \p Strings (one-shot KernelMatrix build + materialize).
///
/// Per-string work is amortized through StringKernel::precompute: all N
/// precomputations are built in one parallelFor, then the N(N-1)/2
/// upper-triangle entries are filled with evaluatePrepared. For
/// ProfiledStringKernel instances the pair step is a sparse-profile dot
/// product, turning Gram construction from O(N²·build) into
/// O(N·build + N²·dot).
Matrix computeKernelMatrix(const StringKernel &Kernel,
                           const std::vector<WeightedString> &Strings,
                           const KernelMatrixOptions &Options = {});

/// The Kast Spectrum Kernel's Gram over \p Strings at each cut weight
/// of \p Cuts under \p Policy, post-processed as \p Options says: for
/// each cut C, the matrix computeKernelMatrix gives for
/// KastSpectrumKernel({C, Policy}), bit for bit. One KastGramGroups
/// fills every cut's raw matrix, finding each group pair's candidate
/// features once for all the cuts. Options.UsePrecompute is not
/// consulted.
std::vector<Matrix> computeKastGrams(const std::vector<WeightedString> &Strings,
                                     std::span<const uint64_t> Cuts,
                                     CutPolicy Policy,
                                     const KernelMatrixOptions &Options = {});

} // namespace kast

#endif // KAST_CORE_KERNELMATRIX_H
