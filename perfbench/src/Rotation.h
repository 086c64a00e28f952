//===- perfbench/src/Rotation.h - Rotate a thread over the CPUs -*- C++ -*-===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Moves the thread that creates a CpuRotation round-robin over every
/// CPU the process may use, one step per period, until the rotation is
/// destroyed.
///
/// Why: on a shared host each virtual CPU runs as fast as whatever else
/// shares its physical core lets it, and that changes from second to
/// second. A single-threaded loop the scheduler leaves on one CPU takes
/// on that core's state for tens of seconds, so one slow core sets a
/// whole run's time. Rotating every 50 ms makes each ~1 s analysis pass
/// visit every CPU several times, so a pass times the machine rather
/// than one core of it. The timed thread stays the only busy one; the
/// rotating thread sleeps between steps.
///
/// Only single-threaded stretches rotate: rotating QueryServer's batcher
/// the same way cut serve's closed-loop capacity by about a fifth, so
/// the serving threads are left to the scheduler. The destructor gives
/// the thread back its original CPU set before any later code spawns
/// threads that would inherit it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ROTATION_H
#define PERFBENCH_ROTATION_H

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class CpuRotation {
public:
  /// Step period of every rotation the benchmark runs.
  static constexpr std::chrono::milliseconds Period{50};

  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// CPUs the thread rotates over; fewer than two means it stays put.
  size_t cpus() const { return Cpus.size(); }

private:
  void loop();

  pid_t Tid = 0;
  cpu_set_t Original;
  std::vector<int> Cpus;
  std::mutex M;
  std::condition_variable Cv;
  bool Stop = false; ///< Guarded by M.
  std::thread Worker;
};

} // namespace perfbench

#endif // PERFBENCH_ROTATION_H
