//===- perfbench/src/Serve.h - serve workload ------------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving path from strace text: set-up cold-builds an 8-shard
/// IndexService from rendered strace logs and fits the serving routing;
/// the timed window then saves flat images and restarts from them,
/// serves routed top-5 queries open loop at a fixed rate through
/// QueryServer while one writer ingests and removes logs, measures
/// capacity in a closed loop, and checks recall on the quiesced
/// snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVE_H
#define PERFBENCH_SERVE_H

#include "Report.h"
#include "Spans.h"

namespace perfbench {

/// \p Spans records the main thread (set-up and the timed phases),
/// \p WriterSpans the ingest writer thread.
void runServe(const RunOptions &Options, Report &Out, SpanRecorder &Spans,
              SpanRecorder &WriterSpans);

} // namespace perfbench

#endif // PERFBENCH_SERVE_H
