//===- perfbench/src/StraceText.h - strace log renderer --------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a generated trace as the text `strace -f -o` writes: one
/// syscall per line behind a PID column (one PID per rank, taken from
/// the rank's disjoint handle range), openat/read/write/lseek/fsync/close
/// for the trace's own events, plus noise parseStrace must discard —
/// mmap/futex lines it skips and `= -1 ENOENT` opens it drops.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STRACETEXT_H
#define PERFBENCH_STRACETEXT_H

#include "trace/Trace.h"
#include "util/Rng.h"

#include <string>

namespace perfbench {

/// Noise lines of each kind one rendered log holds.
struct StraceLineCounts {
  size_t Skipped = 0; ///< mmap/futex lines parseStrace skips.
  size_t Failed = 0;  ///< Failed calls it drops.
};

/// Appends the strace text of \p T to \p Out. \p R places the noise
/// lines (about one in eight). Handles are file descriptors; events of
/// handle h are attributed to PID 4000 + h / 1000 (disjointHandles'
/// default stride).
StraceLineCounts renderStrace(const kast::Trace &T, kast::Rng &R,
                              std::string &Out);

/// The events parseStrace must recover from renderStrace(T): T's own,
/// with the fields strace does not carry (addresses; bytes of anything
/// but read/write) zeroed.
std::vector<kast::TraceEvent> straceVisibleEvents(const kast::Trace &T);

} // namespace perfbench

#endif // PERFBENCH_STRACETEXT_H
