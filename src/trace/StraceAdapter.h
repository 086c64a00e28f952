//===- trace/StraceAdapter.h - strace output ingestion ---------*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts strace(1)-style output into KAST traces, so real program
/// recordings can be analyzed without hand-converting them to the
/// canonical format. Recognized line shapes (one syscall per line):
///
///   openat(AT_FDCWD, "data.bin", O_RDONLY) = 3
///   open("data.bin", O_RDONLY)             = 3
///   read(3, "..."..., 4096)                = 4096
///   write(3, "...", 512)                   = 512
///   pread64(3, "...", 4096, 8192)          = 4096
///   lseek(3, 1024, SEEK_SET)               = 1024
///   _llseek(3, 0, [1024], SEEK_SET)        = 0     (32-bit targets)
///   fsync(3)                               = 0
///   close(3)                               = 0
///
/// Any of them may follow PID and timestamp columns, and the time
/// strace -T prints may follow the return value:
///
///   12345 14:03:22 read(3, "x", 1)         = 1     (strace -f -o, -t)
///   [pid  1234] read(3, "x", 1)            = 1     (strace -f)
///   read(3, "x", 1)                        = 1 <0.000012>
///
/// and a call strace -f splits when another thread's line interrupts
/// it, as two lines of the same PID:
///
///   [pid  1234] read(3,  <unfinished ...>
///   [pid  1234] <... read resumed>"x", 1)  = 1
///
/// Mapping rules:
///  * the first argument of read/write/lseek/fsync/close is the
///    handle; open/openat take the handle from the *return value*;
///  * read/write byte counts come from the return value (actual bytes
///    moved); pread64/pwrite64 map to read/write;
///  * syscall names match case-insensitively;
///  * failed calls (return -1 or -ERRNO) are dropped;
///  * a decimal return value must fit int64_t (-2^63 is an ordinary
///    failure); a recognized I/O call whose return is out of that
///    range fails the conversion;
///  * unrecognized syscalls are skipped (strace logs everything; only
///    file-I/O calls are access-pattern relevant);
///  * a call strace splits across two lines is stitched: the line
///    ending in "<unfinished ...>" is held for its PID ("[pid N]", the
///    leading PID column, or one shared slot without either) and
///    counted as skipped; the "<... NAME resumed>" line of the same PID
///    and syscall then decodes the call — the descriptor from the first
///    half, the return value from the second — and emits its event, or
///    names itself in an error. A half that never pairs stays skipped,
///    and a quoted path that merely contains either word is kept;
///  * when no ')' precedes the line's last " = ", that " = " lies inside
///    a quoted argument: the line's last ')' ends the argument list and
///    the call printed no return value.
///
/// Each line is decoded in one forward pass over views into the text.
/// The syscall name is classified as soon as it is read, so a non-I/O
/// line is skipped there; only an I/O line goes on to its return
/// value, found from the line's end, and its descriptor, the digits
/// that open its argument list. Holding split halves allocates only
/// when a log splits a call.
///
//===----------------------------------------------------------------------===//

#ifndef KAST_TRACE_STRACEADAPTER_H
#define KAST_TRACE_STRACEADAPTER_H

#include "trace/Trace.h"
#include "util/Error.h"

#include <string_view>

namespace kast {

/// Statistics of one conversion.
struct StraceStats {
  size_t LinesTotal = 0;
  size_t EventsEmitted = 0;
  size_t LinesSkipped = 0; ///< Unrecognized or non-I/O syscalls.
  size_t CallsFailed = 0;  ///< Syscalls that returned an error.
};

/// Converts strace output to a trace. Never fails on unknown syscalls
/// (they are skipped); fails only on lines that look like recognized
/// I/O calls but cannot be decoded.
Expected<Trace> parseStrace(std::string_view Text, std::string Name = "",
                            StraceStats *Stats = nullptr);

/// Reads and converts an strace log file; the trace is named by the
/// file's basename.
Expected<Trace> parseStraceFile(const std::string &Path,
                                StraceStats *Stats = nullptr);

} // namespace kast

#endif // KAST_TRACE_STRACEADAPTER_H
