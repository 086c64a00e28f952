//===- trace/TraceParser.h - Plain-text trace parsing ----------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parser for the plain-text access pattern format ("plain text files
/// where each line corresponds to an operation", §3.1). The canonical
/// line grammar is
///
///   line    := ws op ws handle fields ws comment?
///   op      := [A-Za-z0-9_+]+            (lowercased on input)
///   handle  := decimal integer
///   fields  := (ws field)*
///   field   := "bytes=" decimal | "addr=" hex | decimal
///   comment := "#" anything
///
/// A bare trailing decimal is accepted as the byte count, so both
/// "read 3 bytes=4096" and "read 3 4096" parse; a later "bytes=" field
/// overrides an earlier count. Blank and comment-only lines are
/// skipped. Errors carry 1-based line numbers.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_TRACE_TRACEPARSER_H
#define KAST_TRACE_TRACEPARSER_H

#include "trace/Trace.h"
#include "util/Error.h"

#include <string_view>

namespace kast {

/// Parses a whole access pattern document.
///
/// \param Text  the document
/// \param Name  name recorded on the resulting trace
/// \returns the trace, or a diagnostic naming the offending line.
Expected<Trace> parseTrace(std::string_view Text, std::string Name = "");

/// Reads and parses a trace file from disk; the trace is named by the
/// file's basename.
Expected<Trace> parseTraceFile(const std::string &Path);

} // namespace kast

#endif // KAST_TRACE_TRACEPARSER_H
