//===- perfbench/src/Spans.h - In-memory span tracing ----------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. The benchmark opens a span around each
/// call it makes into a KAST layer; spans (name, start, end, parent,
/// request id) stay in memory and are written out once, at exit. A
/// span's self time is its duration minus its children's, so the self
/// times under one root add up to the root's duration, and a layer's
/// share of a pass is the sum of its spans' self times.
///
/// One recorder belongs to one thread. A disabled recorder (the
/// untraced run) records nothing; Scope on it costs one branch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
uint64_t nowNs();

/// CPU nanoseconds the calling thread has run (CLOCK_THREAD_CPUTIME_ID).
uint64_t threadCpuNs();

struct Span {
  const char *Name = ""; ///< Static string, e.g. "trace.parse".
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int64_t Parent = -1; ///< Index of the parent span, -1 for a root.
  uint64_t Request = 0;
};

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled, std::string Thread = "main")
      : Enabled(Enabled), Thread(std::move(Thread)) {}

  bool enabled() const { return Enabled; }

  /// Opens a span as a child of the innermost open one; \returns its
  /// index, or -1 when disabled.
  int64_t open(const char *Name, uint64_t Request = 0);
  void close(int64_t Id);

  /// Records an already-timed span under \p Parent. Used for calls
  /// measured beside a public entry point whose internals the
  /// benchmark cannot see (they count as that span's children).
  void addChild(int64_t Parent, const char *Name, uint64_t StartNs,
                uint64_t EndNs);

  /// Seconds of self time per span name, over \p Root and every span
  /// beneath it. Self times below zero (a beside measurement that
  /// outran its parent) are clamped to zero.
  std::map<std::string, double> selfSeconds(int64_t Root) const;

  double durationSeconds(int64_t Id) const;

  const std::vector<Span> &spans() const { return Spans; }
  const std::string &thread() const { return Thread; }

  /// RAII span on an optional recorder.
  class Scope {
  public:
    Scope(SpanRecorder *R, const char *Name, uint64_t Request = 0)
        : R(R && R->Enabled ? R : nullptr),
          Id(this->R ? this->R->open(Name, Request) : -1) {}
    ~Scope() {
      if (R)
        R->close(Id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int64_t id() const { return Id; }

  private:
    SpanRecorder *R;
    int64_t Id;
  };

private:
  bool Enabled;
  std::string Thread;
  std::vector<Span> Spans;
  std::vector<int64_t> Stack;
};

/// Writes every recorder's spans to \p Path as one JSON document.
/// \returns false on I/O failure.
bool writeSpans(const std::string &Path,
                const std::vector<const SpanRecorder *> &Recorders);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
