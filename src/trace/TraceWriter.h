//===- trace/TraceWriter.h - Trace serialization ---------------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes traces back to the plain-text format accepted by the
/// parser, guaranteeing parse(write(t)) == t. Used by the examples to
/// materialize generated workloads as files and by round-trip tests.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_TRACE_TRACEWRITER_H
#define KAST_TRACE_TRACEWRITER_H

#include "trace/Trace.h"

#include <string>

namespace kast {

/// Renders one event as a canonical trace line (no newline).
std::string formatTraceEvent(const TraceEvent &Event);

/// Renders the whole trace, one line per event, each newline-terminated,
/// preceded by a comment header naming the trace (each '\n' of the name
/// written as a space, so the header stays one line).
std::string formatTrace(const Trace &T);

/// Writes formatTrace(T) to \p Path. \returns false on I/O failure.
bool writeTraceFile(const Trace &T, const std::string &Path);

} // namespace kast

#endif // KAST_TRACE_TRACEWRITER_H
