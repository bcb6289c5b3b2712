// Deterministic process-crash scheduling for kill-anywhere chaos tests.
//
// The service driver consults the scheduler at each instrumented point in
// its commit path (see net::ProcessCrashPoint). Hits are counted per point;
// when a scheduled event's count is reached the scheduler "fires" and the
// whole service halts as if the process died -- in-flight requests abort,
// and only the WAL + checkpoints survive for RecoverAllShards. Because hits
// are tied to the serialized commit sequence (not wall time), the same
// FaultPlan crashes at the same logical instant on every run and at every
// thread count.

#ifndef NELA_DURABILITY_CRASH_SCHEDULER_H_
#define NELA_DURABILITY_CRASH_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/fault_plan.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nela::durability {

class CrashPointScheduler {
 public:
  explicit CrashPointScheduler(std::vector<net::ProcessCrashEvent> events)
      : events_(std::move(events)) {}

  // Counts one execution of `point`; true when a scheduled event fires.
  // After the first firing every later call returns false -- the process is
  // already "dead" and the driver is unwinding.
  bool ShouldCrash(net::ProcessCrashPoint point) EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (fired_.has_value()) return false;
    const uint64_t hits = ++hits_[static_cast<size_t>(point)];
    for (const net::ProcessCrashEvent& event : events_) {
      if (event.point == point && event.after_hits == hits) {
        fired_ = point;
        return true;
      }
    }
    return false;
  }

  bool crashed() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return fired_.has_value();
  }

 private:
  mutable util::Mutex mu_;
  std::array<uint64_t, 4> hits_ GUARDED_BY(mu_){};
  // Immutable after construction; read without the lock would also be
  // safe, but ShouldCrash already holds it on every path that looks.
  const std::vector<net::ProcessCrashEvent> events_;
  std::optional<net::ProcessCrashPoint> fired_ GUARDED_BY(mu_);
};

}  // namespace nela::durability

#endif  // NELA_DURABILITY_CRASH_SCHEDULER_H_
