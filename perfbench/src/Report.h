//===- perfbench/src/Report.h - Metrics, gates and provenance --*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one benchmark run hands back: named metrics with units and
/// sample counts, the count of operations attempted and failed
/// (correctness gates included), and provenance. print() writes a
/// human-readable table and, as its last line, one machine-readable
/// "PERFBENCH_RESULT {...}" JSON object that perfbench/run.py turns
/// into the benchmark's result line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line settings shared by every workload.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Scratch directory (inside the checkout) for flat images and the
  /// span dump; created by the caller.
  std::string WorkDir;
};

/// Every thread width the benchmark passes to KAST.
inline constexpr size_t Width = 1;

class Report {
public:
  /// Records metric \p Name (replacing an earlier value). \p Samples is
  /// the count behind a median or percentile, 1 for a single reading.
  void set(const std::string &Name, double Value, const std::string &Unit,
           size_t Samples = 1);

  /// Counts operations attempted / failed (rejected queries, failed
  /// ingests).
  void attempted(uint64_t N = 1) { Attempted += N; }
  void failed(uint64_t N, const std::string &What);

  /// A correctness gate: one attempted operation, failed unless \p Ok.
  void gate(const std::string &Name, bool Ok, const std::string &Detail = "");

  void provenance(const std::string &Key, const std::string &Value);
  void provenance(const std::string &Key, double Value);

  bool ok() const { return Failed == 0; }

  /// Prints the table and the final PERFBENCH_RESULT line.
  void print(std::FILE *Out) const;

private:
  struct Entry {
    std::string Name;
    double Value = 0.0;
    std::string Unit;
    size_t Samples = 1;
  };
  std::vector<Entry> Metrics;
  std::vector<std::pair<std::string, std::string>> Provenance;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Median of \p V (0 for an empty sample).
double median(std::vector<double> V);

/// Nearest-rank percentile, \p P in [0, 100] (0 for an empty sample).
double percentile(std::vector<double> V, double P);

/// Peak resident set size of this process, in MB (getrusage).
double peakRssMb();

/// Escapes \p S for a JSON string literal.
std::string jsonEscape(const std::string &S);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
