//===- perfbench/src/StraceText.cpp - strace log renderer -----------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "StraceText.h"

#include <cinttypes>
#include <cstdio>

using namespace kast;
using namespace perfbench;

namespace {

void line(std::string &Out, const char *Fmt, auto... Args) {
  char Buf[256];
  int N = std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
  if (N > 0)
    Out.append(Buf, static_cast<size_t>(N) < sizeof(Buf)
                        ? static_cast<size_t>(N)
                        : sizeof(Buf) - 1);
}

} // namespace

StraceLineCounts perfbench::renderStrace(const Trace &T, Rng &R,
                                         std::string &Out) {
  StraceLineCounts Counts;
  uint64_t Offset = 0;
  for (const TraceEvent &E : T.events()) {
    const unsigned Pid = 4000 + static_cast<unsigned>(E.Handle / 1000);
    const uint64_t Fd = E.Handle;
    switch (R.uniformInt(0, 23)) {
    case 0:
      line(Out,
           "%u mmap(NULL, 262144, PROT_READ|PROT_WRITE, "
           "MAP_PRIVATE|MAP_ANONYMOUS, -1, 0) = 0x7f3a%08" PRIx64 "\n",
           Pid, R.uniformInt(0, 0xFFFFFF) << 8);
      ++Counts.Skipped;
      break;
    case 1:
      line(Out, "%u futex(0x55d4%08" PRIx64 ", FUTEX_WAKE_PRIVATE, 1) = 0\n",
           Pid, R.uniformInt(0, 0xFFFFFF) << 4);
      ++Counts.Skipped;
      break;
    case 2:
      line(Out,
           "%u openat(AT_FDCWD, \"/etc/kast/rank%u.conf\", O_RDONLY) = -1 "
           "ENOENT (No such file or directory)\n",
           Pid, Pid - 4000);
      ++Counts.Failed;
      break;
    default:
      break;
    }

    const unsigned long long Bytes = E.Bytes;
    if (E.Op == "open") {
      line(Out,
           "%u openat(AT_FDCWD, \"/scratch/run/out.%" PRIu64
           ".dat\", O_RDWR|O_CREAT, 0644) = %" PRIu64 "\n",
           Pid, Fd, Fd);
    } else if (E.Op == "read") {
      line(Out, "%u read(%" PRIu64 ", \"\\0\\0\\0\\0\"..., %llu) = %llu\n", Pid,
           Fd, Bytes, Bytes);
    } else if (E.Op == "write") {
      line(Out, "%u write(%" PRIu64 ", \"\\1\\1\\1\\1\"..., %llu) = %llu\n",
           Pid, Fd, Bytes, Bytes);
    } else if (E.Op == "lseek") {
      Offset += 4096;
      line(Out, "%u lseek(%" PRIu64 ", %" PRIu64 ", SEEK_SET) = %" PRIu64 "\n",
           Pid, Fd, Offset, Offset);
    } else if (E.Op == "fsync") {
      line(Out, "%u fsync(%" PRIu64 ") = 0\n", Pid, Fd);
    } else if (E.Op == "close") {
      line(Out, "%u close(%" PRIu64 ") = 0\n", Pid, Fd);
    }
  }
  return Counts;
}

std::vector<TraceEvent> perfbench::straceVisibleEvents(const Trace &T) {
  std::vector<TraceEvent> Out;
  for (const TraceEvent &E : T.events()) {
    if (E.Op != "open" && E.Op != "read" && E.Op != "write" &&
        E.Op != "lseek" && E.Op != "fsync" && E.Op != "close")
      continue;
    TraceEvent V(E.Op, E.Handle);
    if (E.Op == "read" || E.Op == "write")
      V.Bytes = E.Bytes;
    Out.push_back(std::move(V));
  }
  return Out;
}
