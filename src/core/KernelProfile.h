//===- core/KernelProfile.h - Sparse feature profiles ----------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-string feature representation of the profiled-kernel fast
/// path. A KernelProfile is a flat, hash-sorted sparse vector of
/// (feature hash, feature value) pairs: kernels that admit an explicit
/// per-string embedding (the spectrum family, bag-of-words) emit one
/// profile per string, and any pairwise kernel value is then the
/// merge-join dot product of two profiles. Building all N profiles
/// once and dotting the N(N-1)/2 pairs turns Gram-matrix construction
/// from O(N²·build) into O(N·build + N²·dot); see KernelMatrix.
///
/// Features are identified by 64-bit hashes (util/Hashing.h) of their
/// literal-id sequences, replacing the map<vector<uint32_t>, double>
/// representation: no per-feature allocation, and the intersection of
/// two profiles is a cache-friendly linear merge instead of O(n log n)
/// tree probes.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_CORE_KERNELPROFILE_H
#define KAST_CORE_KERNELPROFILE_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace kast {

/// One sparse feature: the hash of its literal sequence and its
/// (decay- and weight-scaled) value in the string's embedding.
struct ProfileEntry {
  uint64_t Hash = 0;
  double Value = 0.0;

  bool operator==(const ProfileEntry &Rhs) const = default;
};

/// A flat sorted sparse feature vector.
///
/// Build protocol: add() every occurrence (duplicates allowed, in any
/// order), then finalize() once, which sorts by hash and merges
/// duplicate features by summing their values. dot() requires both
/// operands to be finalized.
class KernelProfile {
public:
  /// Appends one feature occurrence; cheap, unordered, duplicates OK.
  void add(uint64_t Hash, double Value) { Entries.push_back({Hash, Value}); }

  /// Sorts by hash and coalesces duplicate hashes (summing values).
  /// Zero-valued features are dropped and over-reserved build capacity
  /// is released (profiles are long-lived corpus state). Idempotent.
  void finalize();

  /// Merge-join inner product with \p Rhs; both must be finalized.
  double dot(const KernelProfile &Rhs) const;

  /// sqrt(dot(*this, *this)) without the merge join — the cosine
  /// denominator of a one-off query profile. The one definition the
  /// retrieval engine (index/ScoringEngine) divides by, so a query's
  /// scores are the same bits on every path that scores it.
  double norm() const {
    double SelfDot = 0.0;
    for (const ProfileEntry &E : Entries)
      SelfDot += E.Value * E.Value;
    return std::sqrt(SelfDot);
  }

  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }
  void reserve(size_t N) { Entries.reserve(N); }

  const std::vector<ProfileEntry> &entries() const { return Entries; }

private:
  std::vector<ProfileEntry> Entries;
};

namespace detail {

/// The one merge-join inner-product implementation behind
/// KernelProfile::dot and the ProfileView dot overloads
/// (core/ProfileStore.h). Hash/value access is abstracted over index
/// so the AoS staging type and the SoA arena share one loop — the
/// bit-exactness contract between them (asserted in ProfileStoreTest)
/// then holds by construction. \p AHash/\p AValue (and the B pair)
/// are callables from index to hash/value.
template <typename AHashFn, typename AValueFn, typename BHashFn,
          typename BValueFn>
double mergeJoinDot(size_t ASize, AHashFn AHash, AValueFn AValue,
                    size_t BSize, BHashFn BHash, BValueFn BValue) {
  double Sum = 0.0;
  size_t I = 0, J = 0;
  while (I < ASize && J < BSize) {
    if (AHash(I) < BHash(J))
      ++I;
    else if (BHash(J) < AHash(I))
      ++J;
    else {
      Sum += AValue(I) * BValue(J);
      ++I;
      ++J;
    }
  }
  return Sum;
}

} // namespace detail

} // namespace kast

#endif // KAST_CORE_KERNELPROFILE_H
