//===- perfbench/src/Analysis.h - paper and ranks workloads ----*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper path as one pass: canonical trace text -> parseTrace ->
/// Pipeline -> Kast Gram (normalized, §4.1 PSD repair) -> kernelPca ->
/// single linkage -> purity/ARI, at every configured representation and
/// cut weight, with fresh Pipeline and kernel objects each pass.
///
///  * paper — the 110-trace corpus of §4.1 (generateCorpus defaults),
///    both representations, cut weights 2^1..2^10, 3-cut. The seed
///    only permutes the order the traces are handed over in.
///  * ranks — 4 categories x 4 interleaved multi-rank bases (16..48
///    ranks, one rank count per base, shuffled by the seed) x (base + 4
///    mutants), with bytes, cut weight 2, 4-cut.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ANALYSIS_H
#define PERFBENCH_ANALYSIS_H

#include "Report.h"
#include "Spans.h"

namespace perfbench {

void runPaper(const RunOptions &Options, Report &Out, SpanRecorder &Spans);
void runRanks(const RunOptions &Options, Report &Out, SpanRecorder &Spans);

} // namespace perfbench

#endif // PERFBENCH_ANALYSIS_H
