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
/// kernels with an explicit per-string embedding implement the stronger
/// ProfiledStringKernel contract: each string's features are one
/// KernelProfile, built once, and pairwise evaluation is a sparse dot
/// product — the O(N·build + N²·dot) fast path of computeKernelMatrix.
/// The Kast kernel's Gram amortizes per literal-id sequence instead
/// (KastGramGroups); every other kernel is evaluated pair by pair.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_STRINGKERNEL_H
#define KAST_CORE_STRINGKERNEL_H

#include "core/KernelProfile.h"
#include "core/Token.h"

#include <string>

namespace kast {

/// Abstract kernel function over weighted strings.
class StringKernel {
public:
  virtual ~StringKernel();

  /// Unnormalized kernel value k(A, B).
  virtual double evaluate(const WeightedString &A,
                          const WeightedString &B) const = 0;

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
/// Subclasses implement profile(); evaluate() comes for free, and
/// computeKernelMatrix amortizes profile construction across the whole
/// Gram matrix.
///
/// The contract is that k(A, B) *is* the plain merge-join dot of the
/// two profiles (KernelProfile::dot): the arena fast paths
/// (KernelMatrix's tiled fill, IndexService retrieval) dot stored
/// ProfileViews directly without consulting the kernel, so a kernel
/// whose value is not the plain dot must not be profiled; fold the
/// transform into profile() instead.
class ProfiledStringKernel : public StringKernel {
public:
  /// The explicit (hashed) feature embedding of \p X, finalized.
  virtual KernelProfile profile(const WeightedString &X) const = 0;

  /// k(A, B) = profile(A).dot(profile(B)).
  double evaluate(const WeightedString &A,
                  const WeightedString &B) const override;
};

} // namespace kast

#endif // KAST_CORE_STRINGKERNEL_H
