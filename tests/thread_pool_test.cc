#include "util/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/steal_deque.h"

namespace nela::util {
namespace {

TEST(ThreadPoolTest, RunsEveryWorkerExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<uint32_t>> hits(4);
  pool.RunOnAllThreads([&](uint32_t worker) {
    ASSERT_LT(worker, 4u);
    hits[worker].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  uint32_t calls = 0;
  pool.RunOnAllThreads([&](uint32_t worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, AllWorkersAreLiveSimultaneously) {
  // The service driver's commit turnstile blocks workers on each other, so
  // RunOnAllThreads must provide genuine concurrency: every worker waits
  // until all of them have arrived, which can only terminate if all
  // thread_count() invocations run at the same time.
  constexpr uint32_t kThreads = 4;
  ThreadPool pool(kThreads);
  std::mutex mu;
  std::condition_variable cv;
  uint32_t arrived = 0;
  pool.RunOnAllThreads([&](uint32_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return arrived == kThreads; });
  });
  EXPECT_EQ(arrived, kThreads);
}

TEST(ThreadPoolTest, ReusableAcrossManyDispatches) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  for (uint32_t round = 0; round < 100; ++round) {
    pool.RunOnAllThreads([&](uint32_t worker) {
      sum.fetch_add(worker + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 100u * (1 + 2 + 3));
}

TEST(ThreadPoolTest, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

// --- StealDeque semantics (suite names carry the ThreadPool prefix so the
// TSan CI lane's filter picks them up).

TEST(ThreadPoolStealDequeTest, OwnerPopsLifoThievesStealFifo) {
  StealDeque deque(4);
  for (uint64_t item = 1; item <= 4; ++item) deque.Push(item);
  EXPECT_EQ(deque.ApproxSize(), 4u);

  uint64_t got = 0;
  ASSERT_TRUE(deque.Steal(&got));
  EXPECT_EQ(got, 1u);  // thieves take the oldest end
  ASSERT_TRUE(deque.Pop(&got));
  EXPECT_EQ(got, 4u);  // the owner takes the newest end
  ASSERT_TRUE(deque.Steal(&got));
  EXPECT_EQ(got, 2u);
  ASSERT_TRUE(deque.Pop(&got));
  EXPECT_EQ(got, 3u);

  EXPECT_FALSE(deque.Pop(&got));
  EXPECT_FALSE(deque.Steal(&got));
  EXPECT_EQ(deque.ApproxSize(), 0u);
}

TEST(ThreadPoolStealDequeTest, ConcurrentPopAndStealCoverEveryItemOnce) {
  // One owner popping, three thieves stealing, all hammering the same
  // deque: every item must surface exactly once. Runs on the pool so the
  // TSan lane checks the memory-order reasoning, not just the counts.
  constexpr uint64_t kItems = 10000;
  constexpr uint32_t kThreads = 4;
  ThreadPool pool(kThreads);
  StealDeque deque(kItems);
  for (uint64_t item = 0; item < kItems; ++item) deque.Push(item);

  std::vector<std::atomic<uint32_t>> seen(kItems);
  pool.RunOnAllThreads([&](uint32_t worker) {
    uint64_t got = 0;
    if (worker == 0) {
      while (deque.Pop(&got)) seen[got].fetch_add(1);
    } else {
      // A failed Steal can be a lost race, not exhaustion; retry until
      // the deque is visibly empty, yielding so the owner makes progress
      // on core-starved runners.
      while (deque.ApproxSize() != 0) {
        if (deque.Steal(&got)) {
          seen[got].fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    }
  });
  for (uint64_t item = 0; item < kItems; ++item) {
    EXPECT_EQ(seen[item].load(), 1u) << "item " << item;
  }
}

// --- ParallelForChunks.

TEST(ThreadPoolTest, ParallelForChunksCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr uint64_t kN = 1013;
  ChunkDispatchStats stats;
  ChunkOptions options;
  options.grain = 1;  // maximum stealing pressure
  options.sequential_cutoff = 0;
  options.stats = &stats;
  std::vector<std::atomic<uint32_t>> seen(kN);
  pool.ParallelForChunks(
      kN, options, [&](uint32_t, uint64_t, uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) seen[i].fetch_add(1);
      });
  for (uint64_t i = 0; i < kN; ++i) EXPECT_EQ(seen[i].load(), 1u);
  EXPECT_TRUE(stats.dispatched);
  EXPECT_EQ(stats.chunks, kN);
  EXPECT_EQ(stats.worker_busy_seconds.size(), 4u);
}

TEST(ThreadPoolTest, ParallelForChunksBoundariesAreScheduleIndependent) {
  // Chunk c must cover [c*grain, min(n, (c+1)*grain)) no matter which
  // worker runs it — this is the whole determinism contract.
  ThreadPool pool(4);
  constexpr uint64_t kN = 10;
  ChunkOptions options;
  options.grain = 4;
  options.sequential_cutoff = 0;
  ASSERT_EQ(pool.ChunkCount(kN, options), 3u);
  std::vector<std::atomic<uint64_t>> begins(3);
  std::vector<std::atomic<uint64_t>> ends(3);
  pool.ParallelForChunks(
      kN, options,
      [&](uint32_t, uint64_t chunk, uint64_t begin, uint64_t end) {
        ASSERT_LT(chunk, 3u);
        begins[chunk].store(begin);
        ends[chunk].store(end);
      });
  EXPECT_EQ(begins[0].load(), 0u);
  EXPECT_EQ(ends[0].load(), 4u);
  EXPECT_EQ(begins[1].load(), 4u);
  EXPECT_EQ(ends[1].load(), 8u);
  EXPECT_EQ(begins[2].load(), 8u);
  EXPECT_EQ(ends[2].load(), 10u);  // last chunk clamps to n
}

TEST(ThreadPoolTest, ParallelForChunksMatchesSerialLoopUnderSkewedCost) {
  // Work stealing must produce the same slot-indexed result as a plain
  // serial loop even when per-item cost is wildly skewed (the first 1/16th
  // of items cost ~200x the rest, so worker 0's initial block holds almost
  // all the work and thieves migrate chunks).
  constexpr uint64_t kN = 4096;
  const auto item_value = [](uint64_t i) {
    const uint64_t spins = (i < kN / 16) ? 2000 : 10;
    uint64_t acc = i + 1;
    for (uint64_t k = 0; k < spins; ++k) {
      acc = acc * 6364136223846793005ull + i;
    }
    return acc;
  };

  std::vector<uint64_t> from_loop(kN, 0);
  for (uint64_t i = 0; i < kN; ++i) from_loop[i] = item_value(i);

  ThreadPool pool(4);

  ChunkDispatchStats stats;
  ChunkOptions options;
  options.grain = 16;
  options.sequential_cutoff = 0;
  options.stats = &stats;
  std::vector<uint64_t> from_stealing(kN, 0);
  pool.ParallelForChunks(
      kN, options, [&](uint32_t, uint64_t, uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          from_stealing[i] = item_value(i);
        }
      });

  EXPECT_TRUE(stats.dispatched);
  EXPECT_EQ(from_loop, from_stealing);
}

TEST(ThreadPoolTest, ParallelForChunksBypassesDispatchBelowCutoff) {
  ThreadPool pool(4);
  ChunkDispatchStats stats;
  ChunkOptions options;
  options.stats = &stats;
  ASSERT_LT(100u, ChunkOptions::kDefaultSequentialCutoff);
  const std::thread::id caller = std::this_thread::get_id();
  uint32_t invocations = 0;
  pool.ParallelForChunks(
      100, options,
      [&](uint32_t worker, uint64_t chunk, uint64_t begin, uint64_t end) {
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(chunk, 0u);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 100u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++invocations;
      });
  EXPECT_EQ(invocations, 1u);
  EXPECT_FALSE(stats.dispatched);
  EXPECT_EQ(stats.chunks, 1u);
  EXPECT_EQ(pool.ChunkCount(100, options), 1u);
}

TEST(ThreadPoolTest, ParallelForChunksCutoffBoundaryIsExact) {
  // n < cutoff runs inline; n == cutoff dispatches. Pins the threshold
  // semantics the WPG sequential fallback builds on.
  ThreadPool pool(2);
  const uint64_t cutoff = ChunkOptions::kDefaultSequentialCutoff;
  ChunkDispatchStats stats;
  ChunkOptions options;
  options.stats = &stats;
  pool.ParallelForChunks(cutoff - 1, options,
                         [&](uint32_t, uint64_t, uint64_t, uint64_t) {});
  EXPECT_FALSE(stats.dispatched);
  pool.ParallelForChunks(cutoff, options,
                         [&](uint32_t, uint64_t, uint64_t, uint64_t) {});
  EXPECT_TRUE(stats.dispatched);
  // UINT64_MAX forces inline at any size; 0 forces dispatch at any size.
  options.sequential_cutoff = UINT64_MAX;
  pool.ParallelForChunks(1000000, options,
                         [&](uint32_t, uint64_t, uint64_t, uint64_t) {});
  EXPECT_FALSE(stats.dispatched);
  options.sequential_cutoff = 0;
  pool.ParallelForChunks(3, options,
                         [&](uint32_t, uint64_t, uint64_t, uint64_t) {});
  EXPECT_TRUE(stats.dispatched);
}

TEST(ThreadPoolTest, ParallelForChunksHandlesEmptyAndSingleThread) {
  ThreadPool pool(4);
  ChunkDispatchStats stats;
  ChunkOptions options;
  options.sequential_cutoff = 0;
  options.stats = &stats;
  uint32_t invocations = 0;
  pool.ParallelForChunks(0, options,
                         [&](uint32_t, uint64_t, uint64_t begin,
                             uint64_t end) {
                           EXPECT_EQ(begin, end);
                           ++invocations;
                         });
  EXPECT_EQ(invocations, 1u);  // n == 0 still invokes once, as [0, 0)

  // A 1-thread pool always runs inline, even with cutoff 0.
  ThreadPool solo(1);
  ChunkDispatchStats solo_stats;
  ChunkOptions solo_options;
  solo_options.sequential_cutoff = 0;
  solo_options.stats = &solo_stats;
  uint32_t solo_invocations = 0;
  solo.ParallelForChunks(100000, solo_options,
                         [&](uint32_t, uint64_t, uint64_t, uint64_t) {
                           ++solo_invocations;
                         });
  EXPECT_EQ(solo_invocations, 1u);
  EXPECT_FALSE(solo_stats.dispatched);
}

TEST(ThreadPoolTest, ChunkGrainAutoPolicyAndOverride) {
  ThreadPool pool(4);
  ChunkOptions options;
  // Auto grain targets kAutoChunksPerWorker chunks per worker.
  EXPECT_EQ(pool.ChunkGrain(1024, options),
            1024 / (4 * ChunkOptions::kAutoChunksPerWorker));
  EXPECT_EQ(pool.ChunkGrain(1, options), 1u);  // floored at one item
  options.grain = 7;
  EXPECT_EQ(pool.ChunkGrain(1024, options), 7u);
  options.sequential_cutoff = 0;
  EXPECT_EQ(pool.ChunkCount(1024, options), (1024 + 6) / 7);
}

}  // namespace
}  // namespace nela::util
