//===- trace/TraceWriter.cpp - Trace serialization -------------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceWriter.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace kast;

std::string kast::formatTraceEvent(const TraceEvent &Event) {
  std::string Line = Event.Op + " " + std::to_string(Event.Handle);
  if (Event.Bytes != 0)
    Line += " bytes=" + std::to_string(Event.Bytes);
  if (Event.Address != 0) {
    char Buffer[32];
    std::snprintf(Buffer, sizeof(Buffer), " addr=0x%llx",
                  static_cast<unsigned long long>(Event.Address));
    Line += Buffer;
  }
  return Line;
}

std::string kast::formatTrace(const Trace &T) {
  std::string Out;
  if (!T.name().empty()) {
    // One header line whatever the name holds: a '\n' in it would start
    // a line of its own, which parseTrace would read as an event.
    std::string Name = T.name();
    std::replace(Name.begin(), Name.end(), '\n', ' ');
    Out += "# trace: " + Name + "\n";
  }
  for (const TraceEvent &E : T.events()) {
    Out += formatTraceEvent(E);
    Out += '\n';
  }
  return Out;
}

bool kast::writeTraceFile(const Trace &T, const std::string &Path) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << formatTrace(T);
  return static_cast<bool>(Out);
}
