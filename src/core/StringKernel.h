//===- core/StringKernel.h - Kernel function interface ---------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel-function abstraction shared by the Kast Spectrum Kernel
/// (core) and the baseline string kernels (src/kernels). A kernel maps
/// two weighted strings to the inner product of their implicit feature
/// vectors; learning algorithms only ever consume the resulting Gram
/// matrix (§2.2: "the learning algorithms ... need only the kernel
/// matrix").
///
/// Because the Gram matrix evaluates every string against N-1 partners,
/// the interface exposes a per-string precomputation seam: precompute()
/// returns an opaque handle (a feature profile, a suffix automaton,
/// ...) that evaluatePrepared() reuses for every pair the string
/// participates in. Kernels with an explicit per-string embedding
/// implement the stronger ProfiledStringKernel contract, where the
/// handle is a KernelProfile and pairwise evaluation is a sparse dot
/// product — the O(N·build + N²·dot) fast path of computeKernelMatrix.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_STRINGKERNEL_H
#define KAST_CORE_STRINGKERNEL_H

#include "core/KernelProfile.h"
#include "core/Token.h"

#include <memory>
#include <string>

namespace kast {

/// Opaque per-string state a kernel derives once and reuses across all
/// pairwise evaluations involving that string (e.g. a feature profile
/// or a suffix automaton). Lifetime is managed by the caller; handles
/// are immutable after construction and safe to share across threads.
class KernelPrecomputation {
public:
  virtual ~KernelPrecomputation();
};

/// Abstract kernel function over weighted strings.
class StringKernel {
public:
  virtual ~StringKernel();

  /// Unnormalized kernel value k(A, B).
  virtual double evaluate(const WeightedString &A,
                          const WeightedString &B) const = 0;

  /// Derives the reusable per-string state for \p X, or nullptr when
  /// this kernel has nothing to precompute (the default).
  virtual std::unique_ptr<KernelPrecomputation>
  precompute(const WeightedString &X) const;

  /// k(A, B) given the strings' precomputation handles. Either handle
  /// may be nullptr (then the kernel recomputes what it needs); when
  /// non-null, a handle must come from precompute() on the same string
  /// of the same kernel instance. Default: plain evaluate().
  virtual double evaluatePrepared(const WeightedString &A,
                                  const KernelPrecomputation *PrepA,
                                  const WeightedString &B,
                                  const KernelPrecomputation *PrepB) const;

  /// Human-readable kernel name (for bench/table output).
  virtual std::string name() const = 0;

  /// Cosine-normalized value k(A,B)/sqrt(k(A,A)k(B,B)); 0 when either
  /// self-kernel vanishes (and 1 when A and B coincide token-wise).
  /// For the Kast kernel this reproduces the paper's Eq. (12)
  /// normalization by weight(A) * weight(B); see KastKernel.h.
  double evaluateNormalized(const WeightedString &A,
                            const WeightedString &B) const;
};

/// A kernel with an explicit per-string embedding: k(A, B) equals the
/// inner product of two independently computed sparse feature vectors.
/// Subclasses implement profile(); evaluate() and the precomputation
/// seam come for free, and computeKernelMatrix amortizes profile
/// construction across the whole Gram matrix.
class ProfiledStringKernel : public StringKernel {
public:
  /// The explicit (hashed) feature embedding of \p X, finalized.
  virtual KernelProfile profile(const WeightedString &X) const = 0;

  /// Inner product of two profiles. Deliberately non-virtual: the
  /// ProfiledStringKernel contract is that k(A, B) *is* the plain
  /// merge-join dot of the two profiles — the arena fast paths
  /// (KernelMatrix's tiled fill, IndexService retrieval) dot stored
  /// ProfileViews directly without consulting the kernel, so a kernel
  /// whose value is not the plain dot must not be profiled; fold the
  /// transform into profile() instead.
  double dot(const KernelProfile &A, const KernelProfile &B) const;

  /// k(A, B) = dot(profile(A), profile(B)).
  double evaluate(const WeightedString &A,
                  const WeightedString &B) const override;

  /// Wraps profile(X) in a precomputation handle.
  std::unique_ptr<KernelPrecomputation>
  precompute(const WeightedString &X) const override;

  /// Dots the cached profiles, recomputing any missing side.
  double evaluatePrepared(const WeightedString &A,
                          const KernelPrecomputation *PrepA,
                          const WeightedString &B,
                          const KernelPrecomputation *PrepB) const override;
};

/// The handle ProfiledStringKernel::precompute returns; exposed so
/// combinators can unwrap nested profiles.
class ProfilePrecomputation final : public KernelPrecomputation {
public:
  explicit ProfilePrecomputation(KernelProfile P) : Profile(std::move(P)) {}
  const KernelProfile &profile() const { return Profile; }

private:
  KernelProfile Profile;
};

} // namespace kast

#endif // KAST_CORE_STRINGKERNEL_H
