// Measurement-only time sources. This header (plus util/rng.* for
// randomness) is the only place in the tree allowed to touch a clock:
// tools/nela_lint rule `raw-time` rejects `::now()` / `time(...)` /
// `clock_gettime` anywhere else, so wall time can never silently become a
// protocol input and break run-to-run determinism.

#ifndef NELA_UTIL_TIMER_H_
#define NELA_UTIL_TIMER_H_

#include <chrono>
#include <ctime>

namespace nela::util {

// Simple wall-clock timer for the CPU-time measurements of Fig. 13(d) and
// the service-driver latency accounting.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// CPU seconds consumed by the calling thread so far. Under a fork-join
// static block partition every worker gets ~1/N of the work, so the
// caller's CPU per parallel region ≈ total work / N: reference-vs-caller
// CPU ratios estimate the achievable wall speedup even on core-starved
// runners where wall clock cannot scale (used by bench_micro's WPG sweep).
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace nela::util

#endif  // NELA_UTIL_TIMER_H_
