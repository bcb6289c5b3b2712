#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/check.h"
#include "util/steal_deque.h"
#include "util/timer.h"

namespace nela::util {

namespace {

// SplitMix64 step for victim selection. Steal order is the one place the
// scheduler is allowed to be arbitrary: it decides who executes a chunk,
// never what the chunk computes, so this stream needs no global seeding
// discipline (and stays off util::Rng, which would drag a per-dispatch
// allocation into the idle loop).
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

double ChunkDispatchStats::TotalBusySeconds() const {
  double total = 0.0;
  for (const double busy : worker_busy_seconds) total += busy;
  return total;
}

double ChunkDispatchStats::MaxWorkerBusySeconds() const {
  double max_busy = 0.0;
  for (const double busy : worker_busy_seconds) {
    max_busy = std::max(max_busy, busy);
  }
  return max_busy;
}

ThreadPool::ThreadPool(uint32_t thread_count) : thread_count_(thread_count) {
  NELA_CHECK_GE(thread_count, 1u);
  threads_.reserve(thread_count - 1);
  for (uint32_t w = 1; w < thread_count; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
}

uint32_t ThreadPool::DefaultThreadCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::WorkerLoop(uint32_t worker) {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(uint32_t)>* task = nullptr;
    {
      MutexLock lock(mu_);
      // Explicit predicate loop (not the lambda-predicate wait overload):
      // thread-safety analysis treats a predicate lambda as a separate
      // function with no lock context, so the guarded reads below would
      // be invisible to it.
      while (!stopping_ && generation_ == seen) work_cv_.Wait(lock);
      if (stopping_) return;
      seen = generation_;
      task = task_;
    }
    (*task)(worker);
    {
      MutexLock lock(mu_);
      if (--outstanding_ == 0) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::RunOnAllThreads(
    const std::function<void(uint32_t)>& task) {
  if (thread_count_ == 1) {
    task(0);
    return;
  }
  {
    MutexLock lock(mu_);
    task_ = &task;
    outstanding_ = thread_count_ - 1;
    ++generation_;
  }
  work_cv_.NotifyAll();
  task(0);
  MutexLock lock(mu_);
  while (outstanding_ != 0) done_cv_.Wait(lock);
  task_ = nullptr;
}

uint64_t ThreadPool::ChunkGrain(uint64_t n,
                                const ChunkOptions& options) const {
  if (options.grain != 0) return options.grain;
  const uint64_t target_chunks =
      static_cast<uint64_t>(thread_count_) *
      ChunkOptions::kAutoChunksPerWorker;
  return std::max<uint64_t>(1, (n + target_chunks - 1) / target_chunks);
}

uint64_t ThreadPool::ChunkCount(uint64_t n,
                                const ChunkOptions& options) const {
  if (thread_count_ == 1 || n < options.sequential_cutoff) return 1;
  const uint64_t grain = ChunkGrain(n, options);
  return std::max<uint64_t>(1, (n + grain - 1) / grain);
}

void ThreadPool::ParallelForChunks(
    uint64_t n, const ChunkOptions& options,
    const std::function<void(uint32_t, uint64_t, uint64_t, uint64_t)>&
        task) {
  ChunkDispatchStats local_stats;
  ChunkDispatchStats& stats =
      options.stats != nullptr ? *options.stats : local_stats;
  stats.worker_busy_seconds.assign(thread_count_, 0.0);
  stats.steals = 0;

  // Sequential bypass: below the cutoff (or on a 1-thread pool) dispatch
  // overhead dominates, so run inline as one chunk — no wakeups, no
  // deques, no atomics.
  if (thread_count_ == 1 || n < options.sequential_cutoff) {
    stats.chunks = 1;
    stats.dispatched = false;
    const double cpu_start = ThreadCpuSeconds();
    task(0, 0, 0, n);
    stats.worker_busy_seconds[0] = ThreadCpuSeconds() - cpu_start;
    return;
  }

  const uint64_t grain = ChunkGrain(n, options);
  const uint64_t chunk_count = std::max<uint64_t>(1, (n + grain - 1) / grain);
  stats.chunks = chunk_count;
  stats.dispatched = true;

  // Deal chunks to per-worker deques in contiguous ascending blocks
  // (worker w initially owns chunks [C*w/W, C*(w+1)/W)), pushed in reverse
  // so the owner's LIFO pops walk its block in ascending order while
  // thieves steal from the far end of it. `initial_owner` lets the steal
  // counter attribute chunks that migrated.
  // StealDeque holds atomics, so it is neither copyable nor movable; an
  // indirection keeps the per-worker array simple.
  std::vector<std::unique_ptr<StealDeque>> deques(thread_count_);
  std::vector<uint32_t> initial_owner(chunk_count, 0);
  for (uint32_t w = 0; w < thread_count_; ++w) {
    const uint64_t lo = chunk_count * w / thread_count_;
    const uint64_t hi = chunk_count * (w + 1) / thread_count_;
    deques[w] = std::make_unique<StealDeque>(hi - lo);
    for (uint64_t c = hi; c > lo; --c) {
      deques[w]->Push(c - 1);
      initial_owner[c - 1] = w;
    }
  }

  std::atomic<uint64_t> remaining{chunk_count};
  std::atomic<uint64_t> stolen{0};
  RunOnAllThreads([&](uint32_t worker) {
    double busy = 0.0;
    uint64_t rng_state = 0x6b797374656cull ^ (worker + 1);
    uint64_t local_steals = 0;
    const auto run_chunk = [&](uint64_t chunk) {
      const uint64_t begin = chunk * grain;
      const uint64_t end = std::min(n, begin + grain);
      const double cpu_start = ThreadCpuSeconds();
      task(worker, chunk, begin, end);
      busy += ThreadCpuSeconds() - cpu_start;
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    };
    for (;;) {
      uint64_t chunk = 0;
      if (deques[worker]->Pop(&chunk)) {
        run_chunk(chunk);
        continue;
      }
      if (remaining.load(std::memory_order_acquire) == 0) break;
      // Own deque drained: steal. A few randomized probes first (avoids
      // every thief hammering the same victim), then one deterministic
      // sweep so a lone loaded victim is always found.
      bool got = false;
      for (uint32_t probe = 0; probe + 1 < thread_count_ && !got; ++probe) {
        const uint32_t victim = static_cast<uint32_t>(
            NextRandom(&rng_state) % thread_count_);
        if (victim == worker) continue;
        got = deques[victim]->Steal(&chunk);
      }
      for (uint32_t step = 1; step < thread_count_ && !got; ++step) {
        const uint32_t victim = (worker + step) % thread_count_;
        got = deques[victim]->Steal(&chunk);
      }
      if (got) {
        if (initial_owner[chunk] != worker) ++local_steals;
        run_chunk(chunk);
        continue;
      }
      if (remaining.load(std::memory_order_acquire) == 0) break;
      // Work exists but is claimed or in flight: yield instead of
      // spinning, which matters on runners with fewer cores than workers.
      std::this_thread::yield();
    }
    stats.worker_busy_seconds[worker] = busy;
    if (local_steals != 0) {
      stolen.fetch_add(local_steals, std::memory_order_relaxed);
    }
  });
  stats.steals = stolen.load(std::memory_order_relaxed);
}

}  // namespace nela::util
