//===- perfbench/src/Rotation.cpp - Rotate a thread over the CPUs ---------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Rotation.h"

#include <sys/syscall.h>
#include <unistd.h>

using namespace perfbench;

CpuRotation::CpuRotation() {
  Tid = static_cast<pid_t>(syscall(SYS_gettid));
  CPU_ZERO(&Original);
  if (sched_getaffinity(Tid, sizeof(Original), &Original) != 0)
    return;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Original))
      Cpus.push_back(C);
  if (Cpus.size() < 2)
    return;
  Worker = std::thread([this] { loop(); });
}

CpuRotation::~CpuRotation() {
  if (!Worker.joinable())
    return;
  {
    std::lock_guard<std::mutex> Lock(M);
    Stop = true;
  }
  Cv.notify_all();
  Worker.join();
  sched_setaffinity(Tid, sizeof(Original), &Original);
}

void CpuRotation::loop() {
  std::unique_lock<std::mutex> Lock(M);
  for (size_t Step = 0; !Cv.wait_for(Lock, Period, [this] { return Stop; });
       ++Step) {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Step % Cpus.size()], &One);
    // A failed move leaves the thread where it is; timing goes on.
    sched_setaffinity(Tid, sizeof(One), &One);
  }
}
