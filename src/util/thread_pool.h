// Fixed-size pool of persistent worker threads for deterministic fork-join
// parallelism.
//
// The pool is a low-level primitive shared by the parallel WPG builder,
// sharded recovery, and the service driver: callers dispatch one task per
// worker and block until every invocation returns. Worker 0 is the thread
// that calls RunOnAllThreads / ParallelForChunks, so a 1-thread pool
// spawns nothing and runs inline, and dispatch cost is one notify +
// countdown — cheap enough to reuse the same pool across many short
// phases.
//
// Determinism contract: the pool never decides what a work item computes.
// ParallelForChunks schedules chunks by *work stealing* over per-worker
// Chase-Lev deques (util/steal_deque.h): chunk boundaries are a pure
// function of (n, grain), but which worker executes a chunk — and in what
// order — depends on scheduling. Pipelines built on it stay bit-identical
// at every thread count by indexing every output slot by item or by chunk,
// never by executing worker or execution order.

#ifndef NELA_UTIL_THREAD_POOL_H_
#define NELA_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nela::util {

// Observed execution counters for one chunked dispatch. These describe how
// the schedule happened to unfold (perf attribution only) — they never
// influence, and must never be folded into, a computed result.
struct ChunkDispatchStats {
  // CPU seconds each worker spent inside task bodies (not idle/steal spin).
  std::vector<double> worker_busy_seconds;
  uint64_t chunks = 0;
  // Chunks executed by a worker other than the one whose deque initially
  // held them.
  uint64_t steals = 0;
  // False when the call ran inline on the caller (sequential bypass).
  bool dispatched = false;

  double TotalBusySeconds() const;
  double MaxWorkerBusySeconds() const;
};

// Tuning knobs for ParallelForChunks.
struct ChunkOptions {
  // Items per chunk; 0 picks a grain that yields ~kAutoChunksPerWorker
  // chunks per worker. Chunk boundaries are a pure function of (n, grain).
  uint64_t grain = 0;
  // Calls with n below this run inline on the caller — no workers are
  // woken, no deques are built. Pass 0 to force dispatch (tests exercise
  // stealing at tiny n this way); pass UINT64_MAX to force inline.
  uint64_t sequential_cutoff = kDefaultSequentialCutoff;
  // Optional out-param, overwritten (not accumulated) per call.
  ChunkDispatchStats* stats = nullptr;

  static constexpr uint64_t kDefaultSequentialCutoff = 8192;
  static constexpr uint64_t kAutoChunksPerWorker = 16;
};

class ThreadPool {
 public:
  // A pool with `thread_count` >= 1 workers; thread_count - 1 threads are
  // spawned, the calling thread acts as worker 0.
  explicit ThreadPool(uint32_t thread_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t thread_count() const { return thread_count_; }

  // std::thread::hardware_concurrency(), floored at 1 (the value is 0 when
  // the hardware cannot be queried).
  static uint32_t DefaultThreadCount();

  // Invokes task(worker) once for every worker index in
  // [0, thread_count()), concurrently, and blocks until all invocations
  // return. All workers are live simultaneously, so tasks may synchronize
  // with each other (the service driver's commit turnstile relies on
  // this). Tasks must not throw and must not dispatch on the same pool.
  void RunOnAllThreads(const std::function<void(uint32_t worker)>& task);

  // Work-stealing loop: [0, n) is cut into chunks of `options.grain`
  // items (chunk c covers [c*grain, min(n, (c+1)*grain))), chunks are
  // dealt to per-worker Chase-Lev deques in contiguous ascending blocks,
  // and idle workers steal (randomized victim, then a full sweep) until
  // every chunk has run exactly once. task(worker, chunk, begin, end) may
  // run for any chunk on any worker, in any order — outputs must be
  // indexed by `chunk` or by item so the result is schedule-independent.
  // Calls with n < options.sequential_cutoff (or a 1-thread pool) run
  // inline on the caller as a single chunk: task(0, 0, 0, n).
  void ParallelForChunks(
      uint64_t n, const ChunkOptions& options,
      const std::function<void(uint32_t worker, uint64_t chunk,
                               uint64_t begin, uint64_t end)>& task);

  // The grain ParallelForChunks will use for (n, options): options.grain,
  // or the auto policy when it is 0.
  uint64_t ChunkGrain(uint64_t n, const ChunkOptions& options) const;

  // Number of task invocations ParallelForChunks will make for (n,
  // options) — 1 for the sequential bypass, ceil(n / grain) otherwise.
  // Callers pre-size per-chunk output buffers with this.
  uint64_t ChunkCount(uint64_t n, const ChunkOptions& options) const;

 private:
  void WorkerLoop(uint32_t worker) EXCLUDES(mu_);

  const uint32_t thread_count_;
  std::vector<std::thread> threads_;

  Mutex mu_;
  CondVar work_cv_;  // workers wait here for a dispatch
  CondVar done_cv_;  // the dispatcher waits here for workers
  const std::function<void(uint32_t)>* task_ GUARDED_BY(mu_) = nullptr;
  uint64_t generation_ GUARDED_BY(mu_) = 0;   // bumped once per dispatch
  // Spawned workers still inside the task.
  uint32_t outstanding_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
};

}  // namespace nela::util

#endif  // NELA_UTIL_THREAD_POOL_H_
