// Tests for the service driver's rendezvous points in isolation: the
// commit sequencer's rank order, halt, and watchdog rescue, and the region
// latch's publisher election. The driver-level consequences (digests,
// traces, crash recovery) are pinned by the service driver suites.

#include "sim/commit_sequencer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/registry.h"
#include "geo/rect.h"
#include "net/fault_plan.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace nela::sim {
namespace {

using Decision = RegionLatch::Decision;
using TurnResult = CommitSequencer::TurnResult;

constexpr uint32_t kWorkers = 4;

// A registry holding one cluster with no region, for the latch to elect a
// publisher on.
struct Fixture {
  cluster::Registry registry{16};
  cluster::ClusterId cluster = cluster::kNoCluster;

  Fixture() {
    auto registered = registry.Register({0, 1, 2}, 1.0, true);
    NELA_CHECK(registered.ok());
    cluster = registered.value();
  }

  CommitSequencer::Options Options() {
    CommitSequencer::Options options;
    options.registry = &registry;
    return options;
  }

  // A turn that places its request in the fixture's cluster.
  std::function<TurnResult()> JoinCluster() {
    return [this] {
      TurnResult turn;
      turn.cluster = cluster;
      return turn;
    };
  }
};

// Waits until `count` workers have announced themselves, then gives them a
// moment to block in the sequencer. The assertions hold either way; the
// pause only makes the blocking path the one that usually runs.
void AwaitArrivals(const std::atomic<uint32_t>& arrived, uint32_t count) {
  while (arrived.load() < count) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

// Ranks order requests as their ordinals do, so the smallest unresolved
// rank is the smallest unresolved ordinal.
TEST(RegionLatchTest, PublisherIsTheSmallestUnresolvedOrdinal) {
  RegionLatch latch;
  for (uint64_t rank : {7u, 3u, 5u}) latch.Join(0, rank);
  latch.Join(1, 9);
  EXPECT_EQ(latch.Decide(0, 7, false), Decision::kWait);
  EXPECT_EQ(latch.Decide(0, 5, false), Decision::kWait);
  EXPECT_EQ(latch.Decide(0, 3, false), Decision::kPublish);
  // 5 is now the smallest unresolved rank, but 3 is still computing.
  EXPECT_EQ(latch.Decide(0, 5, false), Decision::kWait);
  // Clusters elect independently.
  EXPECT_EQ(latch.Decide(1, 9, false), Decision::kPublish);
  latch.Release(0);
  EXPECT_EQ(latch.Decide(0, 5, false), Decision::kPublish);
  EXPECT_EQ(latch.Decide(0, 7, true), Decision::kReuse);
}

TEST(CommitSequencerTest, OutOfOrderArrivalsPassInRankOrder) {
  Fixture fixture;
  CommitSequencer sequencer(fixture.Options(), [](uint64_t) {});
  constexpr uint64_t kRanks = 64;
  // Appended only inside turns, which the sequencer serializes.
  std::vector<uint64_t> order;
  std::atomic<uint32_t> arrived{0};
  util::ThreadPool pool(kWorkers);
  pool.RunOnAllThreads([&](uint32_t worker) {
    for (uint64_t rank = worker; rank < kRanks; rank += kWorkers) {
      // Rank 0 arrives last: ranks 1..3 are already waiting.
      if (rank == 0) AwaitArrivals(arrived, kWorkers - 1);
      arrived.fetch_add(1);
      const bool passed = sequencer.Pass(rank, [&order, rank] {
        order.push_back(rank);
        return TurnResult{};
      });
      EXPECT_TRUE(passed) << "rank " << rank;
    }
  });
  std::vector<uint64_t> expected(kRanks);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  EXPECT_FALSE(sequencer.halted());
}

TEST(CommitSequencerTest, HaltWakesTurnAndRegionWaiters) {
  Fixture fixture;
  CommitSequencer sequencer(fixture.Options(), [](uint64_t) {});
  // Ranks 0 and 1 pass and queue on the cluster; 0 becomes publisher.
  ASSERT_TRUE(sequencer.Pass(0, fixture.JoinCluster()));
  ASSERT_TRUE(sequencer.Pass(1, fixture.JoinCluster()));
  bool publish = false;
  ASSERT_TRUE(sequencer.AwaitRegion(fixture.cluster, 0, &publish));
  ASSERT_TRUE(publish);

  std::atomic<uint32_t> arrived{0};
  std::atomic<uint32_t> turns_run{0};
  util::ThreadPool pool(kWorkers);
  pool.RunOnAllThreads([&](uint32_t worker) {
    if (worker == 0) {
      // Rank 2's commit fires a crash point once everyone else waits.
      AwaitArrivals(arrived, kWorkers - 1);
      EXPECT_FALSE(sequencer.Pass(2, [] {
        TurnResult turn;
        turn.status = util::UnavailableError("crash");
        turn.crashed = net::ProcessCrashPoint::kPostCommit;
        return turn;
      }));
    } else if (worker == 1) {
      // Waits for the region rank 0 is computing.
      arrived.fetch_add(1);
      bool unused = false;
      EXPECT_FALSE(sequencer.AwaitRegion(fixture.cluster, 1, &unused));
    } else {
      // Ranks 3 and 4 wait for rank 2's turn; theirs never runs.
      arrived.fetch_add(1);
      EXPECT_FALSE(sequencer.Pass(worker + 1, [&turns_run] {
        turns_run.fetch_add(1);
        return TurnResult{};
      }));
    }
  });
  EXPECT_TRUE(sequencer.halted());
  EXPECT_EQ(turns_run.load(), 0u);
  EXPECT_EQ(sequencer.report().crash_point,
            net::ProcessCrashPoint::kPostCommit);
}

TEST(CommitSequencerTest, WaiterRescuesOlderParkedRank) {
  Fixture fixture;
  CommitSequencer::Options options = fixture.Options();
  options.stall_rank = 0;
  std::vector<uint64_t> order;
  std::unique_ptr<CommitSequencer> sequencer;
  auto pass = [&](uint64_t rank) {
    return sequencer->Pass(rank, [&order, rank] {
      order.push_back(rank);
      return TurnResult{};
    });
  };
  // The rescue re-executes the parked request: here, just its pass.
  sequencer = std::make_unique<CommitSequencer>(
      options, [&](uint64_t rank) { EXPECT_TRUE(pass(rank)); });

  ASSERT_TRUE(sequencer->ParkIfStalled(0));
  // Rank 1 cannot pass before rank 0, so its wait rescues rank 0 -- on this
  // one thread, with nothing ever blocking.
  EXPECT_TRUE(pass(1));
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(sequencer->report().rescues, 1u);
  // The rescue re-executes without stalling again.
  EXPECT_FALSE(sequencer->ParkIfStalled(0));
}

TEST(CommitSequencerTest, RescueNeverTakesAYoungerRank) {
  Fixture fixture;
  CommitSequencer::Options options = fixture.Options();
  options.stall_rank = 3;
  std::vector<uint64_t> rescued;
  CommitSequencer sequencer(
      options, [&rescued](uint64_t rank) { rescued.push_back(rank); });
  EXPECT_FALSE(sequencer.ParkIfStalled(2));  // not the stall rank
  ASSERT_TRUE(sequencer.ParkIfStalled(3));
  // A waiter of rank <= 3 would wait behind the parked rank 3 itself.
  EXPECT_FALSE(sequencer.TryRescue(2));
  EXPECT_FALSE(sequencer.TryRescue(3));
  EXPECT_TRUE(rescued.empty());
  EXPECT_TRUE(sequencer.TryRescue(4));
  EXPECT_EQ(rescued, (std::vector<uint64_t>{3}));
  EXPECT_FALSE(sequencer.TryRescue(4));  // the lot is empty
  EXPECT_EQ(sequencer.report().rescues, 1u);
}

// Every rank of `fixture`'s cluster awaits its region on its own worker;
// a publisher listed in `degrade` finishes without a region, any other
// publishes one. Returns the ranks that published, in order.
std::vector<uint64_t> ElectPublishers(Fixture& fixture,
                                      const std::vector<uint64_t>& degrade) {
  CommitSequencer sequencer(fixture.Options(), [](uint64_t) {});
  for (uint64_t rank = 0; rank < kWorkers; ++rank) {
    EXPECT_TRUE(sequencer.Pass(rank, fixture.JoinCluster()));
  }
  // Appended only by the publisher, which the latch makes exclusive.
  std::vector<uint64_t> publishers;
  std::atomic<uint32_t> reused{0};
  util::ThreadPool pool(kWorkers);
  pool.RunOnAllThreads([&](uint32_t worker) {
    bool publish = false;
    EXPECT_TRUE(sequencer.AwaitRegion(fixture.cluster, worker, &publish));
    if (!publish) {
      EXPECT_TRUE(fixture.registry.RegionOf(fixture.cluster).has_value());
      reused.fetch_add(1);
      return;
    }
    publishers.push_back(worker);
    const bool degraded =
        std::find(degrade.begin(), degrade.end(), worker) != degrade.end();
    if (!degraded) {
      fixture.registry.SetRegion(fixture.cluster,
                                 geo::Rect(0.1, 0.1, 0.2, 0.2));
    }
    EXPECT_TRUE(sequencer.ReleaseRegion(fixture.cluster, util::Status::Ok()));
  });
  EXPECT_EQ(reused.load() + publishers.size(), kWorkers);
  return publishers;
}

TEST(CommitSequencerTest, LaterWaitersReuseThePublishedRegion) {
  Fixture fixture;
  EXPECT_EQ(ElectPublishers(fixture, {}), (std::vector<uint64_t>{0}));
}

TEST(CommitSequencerTest, NextOldestWaiterPublishesWhenPublisherDegrades) {
  Fixture fixture;
  EXPECT_EQ(ElectPublishers(fixture, {0}), (std::vector<uint64_t>{0, 1}));
}

}  // namespace
}  // namespace nela::sim
