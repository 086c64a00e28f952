//===- runtime/ServerStats.h - Lock-free serving telemetry -----*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instrumentation for the serving runtime: per-request lifecycle
/// counters and latency histograms that any number of threads can
/// record into without locks. A histogram is a fixed array of atomic
/// bucket counters in a log-linear layout (16 linear sub-buckets per
/// power of two), so record() is two shifts and one relaxed
/// fetch_add, and percentiles are recovered from the bucket
/// boundaries with bounded relative error (one sub-bucket width,
/// ≤ 6.25%).
///
/// Reads (snapshot(), percentile()) are racy-by-design: they observe
/// each bucket atomically but not the histogram as a whole, which is
/// the standard monitoring trade — exact when the recorders are
/// quiesced, momentarily approximate while they run, never torn or
/// blocking.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_RUNTIME_SERVERSTATS_H
#define KAST_RUNTIME_SERVERSTATS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace kast {

/// Percentile summary of one histogram, in the unit recorded
/// (nanoseconds for the latency histograms, requests for batch size).
struct HistogramSummary {
  uint64_t Count = 0;
  double Mean = 0.0;
  /// Upper bucket boundaries containing the percentile; 0 when empty.
  double P50 = 0.0;
  double P95 = 0.0;
  double P99 = 0.0;
  double Max = 0.0;
};

/// Lock-free log-linear histogram of uint64 samples.
class LatencyHistogram {
public:
  /// Records one sample. Wait-free: one relaxed fetch_add per counter.
  void record(uint64_t Value);

  /// Value at or below which \p Fraction of recorded samples fall,
  /// reported as the containing bucket's upper boundary (relative
  /// error bounded by the sub-bucket width). 0 for an empty histogram.
  double percentile(double Fraction) const;

  HistogramSummary summarize() const;

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }

private:
  /// 2^6 = 64 octaves × 16 sub-buckets covers [0, 2^63] — every
  /// uint64 nanosecond value maps somewhere.
  static constexpr size_t SubBucketBits = 4;
  static constexpr size_t SubBuckets = size_t(1) << SubBucketBits;
  static constexpr size_t Octaves = 60;
  static constexpr size_t NumBuckets = Octaves * SubBuckets;

  static size_t bucketOf(uint64_t Value);
  /// Inclusive upper boundary of bucket \p B.
  static double bucketUpper(size_t B);

  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> MaxSeen{0};
};

/// Counter + histogram bundle one QueryServer exposes. Writers are the
/// submitting threads (admission counters) and the batcher (everything
/// else); readers are monitoring threads and the load generator.
class ServerStats {
public:
  /// Admission outcomes.
  std::atomic<uint64_t> Submitted{0}; ///< Accepted into the queue.
  std::atomic<uint64_t> Rejected{0};  ///< Bounced by backpressure.
  std::atomic<uint64_t> RejectedShutdown{0}; ///< Bounced: shutting down.
  /// Execution outcomes.
  std::atomic<uint64_t> Completed{0}; ///< Responses delivered.
  std::atomic<uint64_t> Batches{0};   ///< Admission batches executed.

  /// Enqueue → batch admission (time spent waiting in the queue).
  LatencyHistogram QueueWaitNs;
  /// Batch admission → response ready (snapshot + scoring + merge).
  LatencyHistogram ExecuteNs;
  /// Enqueue → response ready: what the caller observes.
  LatencyHistogram TotalNs;
  /// Requests per executed admission batch.
  LatencyHistogram BatchSize;

  /// One consistent-enough view for reporting (racy while serving, see
  /// file comment).
  struct Snapshot {
    uint64_t Submitted = 0;
    uint64_t Rejected = 0;
    uint64_t RejectedShutdown = 0;
    uint64_t Completed = 0;
    uint64_t Batches = 0;
    HistogramSummary QueueWaitNs;
    HistogramSummary ExecuteNs;
    HistogramSummary TotalNs;
    HistogramSummary BatchSize;
  };
  Snapshot snapshot() const;

  /// Human-readable percentile table (used by examples/serve_queries).
  static std::string formatNanos(double Nanos);
};

} // namespace kast

#endif // KAST_RUNTIME_SERVERSTATS_H
