//===- util/SimdDot.h - Vectorized sparse dot-product kernels --*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one hot loop of the whole system — the merge-join inner product
/// over two hash-sorted sparse vectors — restructured for vector
/// hardware. Every layer bottoms out here: Gram tiles
/// (core/KernelMatrix), exact retrieval scans (index/ScoringEngine),
/// centroid routing (index/ClusterRouter), and the quantized scan tier
/// all call through this dispatch layer.
///
/// Three implementations of the same contract:
///
///   - scalar: the reference two-pointer merge join (what the system
///     shipped with through PR 6).
///   - AVX2:   blocked intersection — 4x4 all-pairs hash compares per
///     step via cmpeq + lane rotations, advancing whichever block's
///     maximum is smaller (Schlegel/Katsogridakis-style block merge).
///   - NEON:   the same scheme at 2-lane width (aarch64 baseline).
///
/// The selection is made once per process: compile-time availability
/// (the AVX2 translation unit is built only when the compiler supports
/// -mavx2), a runtime CPUID check, and the KAST_FORCE_SCALAR
/// environment escape hatch (any non-empty value other than "0"
/// forces the reference scalar merge join — the differential-testing
/// knob CI exercises across the full suite).
///
/// THE EXACTNESS CONTRACT: every implementation — scalar, galloping,
/// and blocked-SIMD — discovers the matching hash pairs in ascending
/// hash order and accumulates their products one double-precision
/// addition at a time, in that order. Vectorization accelerates only
/// the hash-compare phase; the floating-point reduction is the same
/// sequence of operations in the same order as the scalar merge join.
/// Results are therefore bit-identical across implementations (pinned
/// by tests/SimdDotTest.cpp), and every consumer that promised
/// bit-reproducibility — Gram tiles, exhaustive-mode retrieval, the
/// k-means fit — keeps that promise on top of any kernel.
///
/// Skew handling: when one side is much smaller than the other
/// (query-vs-centroid, query-vs-posting-segment), a galloping
/// (exponential-probe + binary-search) intersection over the smaller
/// side replaces the linear merge. The strategy switch is a pure
/// performance decision — order of matches, and hence the sum, is
/// unchanged.
///
/// The quantized variants implement the scan tier's asymmetric dot
/// (ADC): the stored side is int8 with one f64 scale per profile, the
/// query side stays f64. dotQuantized returns
///     Scale * sum over matches of (queryValue * int8Value)
/// with the inner sum accumulated in f64 match order, so the quantized
/// kernels are bit-identical across implementations too; only the
/// quantization itself (value -> int8) approximates, with per-pair
/// error bounded by Scale/2 * l1(query restricted to matches) — see
/// core/ProfileStore.h's QuantizedStore.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_UTIL_SIMDDOT_H
#define KAST_UTIL_SIMDDOT_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kast {
namespace simd {

/// Which dot-product implementation the process selected.
enum class DotKernel { Scalar, Avx2, Neon };

/// Human-readable kernel name ("scalar", "avx2", "neon") for bench
/// counters and diagnostics.
const char *kernelName(DotKernel K);

/// The uncached selection: compile-time availability, runtime CPU
/// support, and the KAST_FORCE_SCALAR environment override, evaluated
/// now. Exposed so tests can pin the override's behavior after
/// setenv(); production code goes through activeKernel().
DotKernel detectKernel();

/// The process-wide selection, made once on first use.
DotKernel activeKernel();

/// True when KAST_FORCE_SCALAR pinned the process to the reference
/// scalar merge join (which also disables the galloping strategy, so
/// the forced path is exactly the pre-SIMD code shape).
bool scalarForced();

/// Exact merge-join inner product of two hash-sorted sparse vectors,
/// dispatched to the selected kernel. Bit-identical to dotScalar for
/// all inputs.
double dotExact(const uint64_t *AHashes, const double *AValues, size_t ASize,
                const uint64_t *BHashes, const double *BValues, size_t BSize);

/// The reference two-pointer scalar merge join (always available;
/// differential baseline and forced-scalar path).
double dotScalar(const uint64_t *AHashes, const double *AValues, size_t ASize,
                 const uint64_t *BHashes, const double *BValues, size_t BSize);

/// Quantized (asymmetric) inner product: f64 query side against an
/// int8 stored side with one scale. Returns
/// Scale * sum(QValues[i] * SValues[j]) over hash matches, inner sum
/// in f64 match order. Dispatched like dotExact; bit-identical to
/// dotQuantizedScalar for all inputs.
double dotQuantized(const uint64_t *QHashes, const double *QValues,
                    size_t QSize, const uint64_t *SHashes,
                    const int8_t *SValues, size_t SSize, double Scale);

/// Reference scalar implementation of dotQuantized.
double dotQuantizedScalar(const uint64_t *QHashes, const double *QValues,
                          size_t QSize, const uint64_t *SHashes,
                          const int8_t *SValues, size_t SSize, double Scale);

/// One-query-against-many exact scan: the query's features go into a
/// bucketized probe table once, then each stored profile's dot costs
/// one branchless table probe per *stored* element — no query-side
/// iteration, no data-dependent branches for the predictor to miss on,
/// unlike the merge join whose advance direction flips per element.
///
/// Buckets are addressed by the hashes' top bits (feature hashes are
/// uniformly distributed) and hold four slots, padded with hashes that
/// cannot reach the bucket, so a probe is: load four candidate hashes,
/// compare against the stored hash, fold the mask. Each matched
/// product is appended to a match buffer with a branchless conditional
/// advance, then the buffer is summed serially.
///
/// Exactness: stored hashes are strictly increasing, so products land
/// in the match buffer in ascending stored-hash order — exactly the
/// merge join's discovery order — and the serial summation performs
/// the identical f64 addition sequence (f64 multiplication is
/// commutative bit-for-bit). dot() is therefore bit-identical to
/// dotScalar(query, stored) for all inputs, probe table or not.
///
/// Falls back to dotExact when the table could not be built (tiny or
/// pathologically clustered query, KAST_FORCE_SCALAR) and for stored
/// sides so much larger than the query that galloping beats probing.
/// Not thread-safe: one ExactScan per scanning thread.
class ExactScan {
public:
  /// Rebuilds the probe table for a new query, reusing capacity. The
  /// query arrays must stay alive and unchanged until the next
  /// assign() — dot() reads them on the fallback paths.
  void assign(const uint64_t *QHashes, const double *QValues, size_t QSize);

  /// Exact inner product of the assigned query with one stored
  /// profile; bit-identical to dotScalar for all inputs.
  double dot(const uint64_t *SHashes, const double *SValues, size_t SSize);

  /// Whether the probe table is live (false: every dot() takes the
  /// dotExact fallback). Exposed for tests and bench labels.
  bool usingTable() const { return TableOk; }

private:
  const uint64_t *QHashes = nullptr;
  const double *QValues = nullptr;
  size_t QSize = 0;
  /// Four slots per bucket, hashes and values in parallel arrays.
  std::vector<uint64_t> BucketHashes;
  std::vector<double> BucketValues;
  /// Matched products in discovery order; one extra slot absorbs the
  /// speculative write of a non-matching probe.
  std::vector<double> Matches;
  /// hash >> Shift is the bucket index.
  int Shift = 64;
  bool TableOk = false;
};

} // namespace simd
} // namespace kast

#endif // KAST_UTIL_SIMDDOT_H
