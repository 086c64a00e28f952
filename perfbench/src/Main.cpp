//===- perfbench/src/Main.cpp - benchmark entry point ---------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// kast_perfbench --workload paper|ranks|serve --seed N --seconds S
//                --trace 0|1 --work-dir DIR
//
// Runs one workload and prints its metrics, ending with a
// "PERFBENCH_RESULT {...}" line (see Report.h); each timed pass, build
// or phase is also logged to stderr. Exits 1 when a
// correctness gate or an operation failed, 2 on bad usage or a
// non-Release build. Normally started by perfbench/run.py, which builds
// this program first.
//
//===----------------------------------------------------------------------===//

#include "Analysis.h"
#include "Report.h"
#include "Rotation.h"
#include "Serve.h"
#include "Spans.h"

#include "util/SimdDot.h"
#include "util/StringUtil.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper|ranks|serve --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Options;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I];
    const std::string Value = Argv[I + 1];
    if (Key == "--workload") {
      Options.Workload = Value;
    } else if (Key == "--seed") {
      std::optional<uint64_t> N = kast::parseUnsigned(Value);
      if (!N)
        return usage(Argv[0]);
      Options.Seed = *N;
    } else if (Key == "--seconds") {
      char *End = nullptr;
      Options.Seconds = std::strtod(Value.c_str(), &End);
      if (!End || *End || Options.Seconds <= 0.0)
        return usage(Argv[0]);
    } else if (Key == "--trace") {
      if (Value != "0" && Value != "1")
        return usage(Argv[0]);
      Options.Trace = Value == "1";
    } else if (Key == "--work-dir") {
      Options.WorkDir = Value;
    } else {
      return usage(Argv[0]);
    }
  }
  if (Argc % 2 == 0 || Options.WorkDir.empty() ||
      (Options.Workload != "paper" && Options.Workload != "ranks" &&
       Options.Workload != "serve"))
    return usage(Argv[0]);

  const std::string BuildType = PERFBENCH_BUILD_TYPE;
  if (BuildType != "Release") {
    std::fprintf(stderr,
                 "error: kast_perfbench is a '%s' build, not Release; numbers "
                 "from it are not comparable\n",
                 BuildType.c_str());
    return 2;
  }

  Report Out;
  Out.provenance("workload", Options.Workload);
  Out.provenance("seed", static_cast<double>(Options.Seed));
  Out.provenance("seconds", Options.Seconds);
  Out.provenance("trace", Options.Trace ? "1" : "0");
  Out.provenance("build_type", BuildType);
  Out.provenance("hardware_threads",
                 static_cast<double>(std::thread::hardware_concurrency()));
  Out.provenance("thread_width", static_cast<double>(Width));
  Out.provenance("rotation_period_ms",
                 static_cast<double>(CpuRotation::Period.count()));
  Out.provenance("simd_path",
                 kast::simd::kernelName(kast::simd::activeKernel()));
  Out.provenance("simd_scalar_forced",
                 kast::simd::scalarForced() ? "yes" : "no");

  SpanRecorder Spans(Options.Trace);
  SpanRecorder WriterSpans(Options.Trace, "writer");
  if (Options.Workload == "paper")
    runPaper(Options, Out, Spans);
  else if (Options.Workload == "ranks")
    runRanks(Options, Out, Spans);
  else
    runServe(Options, Out, Spans, WriterSpans);

  Out.set("peak_rss_mb", peakRssMb(), "MB");
  if (Options.Trace) {
    const std::string Path = Options.WorkDir + "/spans-" + Options.Workload +
                             "-" + std::to_string(Options.Seed) + ".json";
    if (!writeSpans(Path, {&Spans, &WriterSpans}))
      Out.failed(1, "cannot write " + Path);
    else
      Out.provenance("spans_file", Path);
  }
  Out.print(stdout);
  return Out.ok() ? 0 : 1;
}
