// Tests for the concurrency controller (§VII future work): claim
// atomicity, wound-wait conflict resolution, and end-to-end serialization
// of simultaneous cloaking requests without deadlock or reciprocity
// violations.

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/concurrency.h"
#include "cluster/distributed_tconn.h"
#include "data/generators.h"
#include "graph/wpg_builder.h"
#include "scenario_fixtures.h"
#include "util/rng.h"

namespace nela::cluster {
namespace {

using graph::VertexId;

// ------------------------------------------------------- ClaimCoordinator

TEST(ClaimCoordinatorTest, ClaimAndRelease) {
  ClaimCoordinator coordinator(5);
  const Ticket a = coordinator.OpenRequest();
  EXPECT_TRUE(coordinator.TryClaim(a, {0, 1, 2}));
  EXPECT_EQ(coordinator.HolderOf(0), a);
  EXPECT_EQ(coordinator.HolderOf(3), kNoTicket);
  coordinator.Release(a);
  EXPECT_EQ(coordinator.HolderOf(0), kNoTicket);
}

TEST(ClaimCoordinatorTest, TicketsAreMonotone) {
  ClaimCoordinator coordinator(1);
  const Ticket a = coordinator.OpenRequest();
  const Ticket b = coordinator.OpenRequest();
  EXPECT_LT(a, b);
}

TEST(ClaimCoordinatorTest, OlderHolderBlocksYoungerClaim) {
  ClaimCoordinator coordinator(4);
  const Ticket older = coordinator.OpenRequest();
  const Ticket younger = coordinator.OpenRequest();
  EXPECT_TRUE(coordinator.TryClaim(older, {1, 2}));
  // Younger overlaps an older holder: the whole claim fails atomically.
  EXPECT_FALSE(coordinator.TryClaim(younger, {2, 3}));
  EXPECT_EQ(coordinator.HolderOf(3), kNoTicket);  // nothing partial
  EXPECT_EQ(coordinator.conflicts_observed(), 1u);
}

TEST(ClaimCoordinatorTest, OlderClaimWoundsYoungerHolder) {
  ClaimCoordinator coordinator(4);
  const Ticket older = coordinator.OpenRequest();
  const Ticket younger = coordinator.OpenRequest();
  EXPECT_TRUE(coordinator.TryClaim(younger, {0, 1}));
  // The older request takes what it needs; the younger loses EVERYTHING.
  EXPECT_TRUE(coordinator.TryClaim(older, {1, 2}));
  EXPECT_EQ(coordinator.HolderOf(1), older);
  EXPECT_EQ(coordinator.HolderOf(0), kNoTicket);  // revoked wholesale
  EXPECT_TRUE(coordinator.WasWounded(younger));
  EXPECT_FALSE(coordinator.WasWounded(younger));  // flag resets
  EXPECT_FALSE(coordinator.WasWounded(older));
  EXPECT_EQ(coordinator.wounds_inflicted(), 1u);
}

TEST(ClaimCoordinatorTest, ReclaimBySameTicketIsIdempotent) {
  ClaimCoordinator coordinator(3);
  const Ticket a = coordinator.OpenRequest();
  EXPECT_TRUE(coordinator.TryClaim(a, {0, 1}));
  EXPECT_TRUE(coordinator.TryClaim(a, {1, 2}));
  EXPECT_EQ(coordinator.HolderOf(0), a);
  EXPECT_EQ(coordinator.HolderOf(2), a);
}

// Batched contention with REAL threads: N workers race overlapping claims
// through the coordinator, then commit in ticket order (the service
// driver's turnstile discipline). Must hold:
//  * reciprocity -- no user is committed by two tickets;
//  * liveness    -- the oldest ticket commits its full candidate without
//                   retrying, and every worker terminates;
//  * determinism -- the final committed partition equals the sequential
//                   turn-order computation, independent of scheduling.
TEST(ClaimCoordinatorTest, BatchedContentionPreservesReciprocity) {
  constexpr uint32_t kUsers = 60;
  constexpr uint32_t kThreads = 8;
  constexpr uint64_t kSeed = 2024;

  // Every candidate shares user 0 (a guaranteed hotspot) plus 10 seeded
  // draws, so claims genuinely overlap.
  std::vector<std::vector<VertexId>> candidates(kThreads);
  for (uint32_t i = 0; i < kThreads; ++i) {
    util::Rng rng(kSeed + i);
    candidates[i].push_back(0);
    for (uint32_t draw : rng.SampleWithoutReplacement(kUsers - 1, 10)) {
      candidates[i].push_back(draw + 1);
    }
  }

  ClaimCoordinator coordinator(kUsers);
  std::vector<Ticket> tickets(kThreads);
  for (uint32_t i = 0; i < kThreads; ++i) {
    tickets[i] = coordinator.OpenRequest();
  }

  std::vector<Ticket> committed_owner(kUsers, kNoTicket);
  std::vector<uint32_t> claim_retries(kThreads, 0);
  std::atomic<bool> double_commit{false};
  std::mutex mu;
  std::condition_variable turn_cv;
  uint32_t turn = 0;
  std::atomic<uint32_t> at_barrier{0};

  auto worker = [&](uint32_t index) {
    const Ticket ticket = tickets[index];
    const std::vector<VertexId>& members = candidates[index];
    // Start line: maximize genuine claim races.
    at_barrier.fetch_add(1);
    while (at_barrier.load() < kThreads) std::this_thread::yield();
    // Speculation: race for the claim against everyone else.
    while (!coordinator.TryClaim(ticket, members)) {
      ++claim_retries[index];
      std::this_thread::yield();
    }
    // Turnstile: commit strictly in ticket order.
    std::unique_lock<std::mutex> lock(mu);
    turn_cv.wait(lock, [&] { return turn == index; });
    // Re-validate: a wound (or a revoked hold) means an older request took
    // our members while we waited; re-claim -- at our turn every older
    // ticket has released, so the claim must succeed.
    bool holds = !coordinator.WasWounded(ticket);
    for (VertexId v : members) {
      holds = holds && coordinator.HolderOf(v) == ticket;
    }
    if (!holds) {
      EXPECT_TRUE(coordinator.TryClaim(ticket, members))
          << "re-claim at own turn must always succeed";
    }
    for (VertexId v : members) {
      if (committed_owner[v] == kNoTicket) {
        committed_owner[v] = ticket;
      } else if (committed_owner[v] == ticket) {
        double_commit.store(true);  // same ticket committing twice
      }
      // Owned by an older ticket: dropped, exactly as the service driver
      // drops users already registered in a committed cluster.
    }
    coordinator.Release(ticket);
    ++turn;
    turn_cv.notify_all();
  };

  // Adversarial scheduling against the claim coordinator is the point of
  // this test; the deterministic pool would serialize the contention away.
  // nela-lint: allow(raw-thread) real contention needs real threads
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < kThreads; ++i) threads.emplace_back(worker, i);
  // nela-lint: allow(raw-thread) joining the same ad-hoc threads
  for (std::thread& t : threads) t.join();  // liveness: all terminate

  EXPECT_FALSE(double_commit.load());
  // The oldest ticket never loses a claim and commits everything it asked
  // for (wound-wait: only OLDER holders can reject a claim).
  EXPECT_EQ(claim_retries[0], 0u);
  for (VertexId v : candidates[0]) {
    EXPECT_EQ(committed_owner[v], tickets[0]) << "user " << v;
  }
  // With 8 threads racing a shared hotspot, contention must be observed.
  EXPECT_GT(coordinator.conflicts_observed() +
                coordinator.wounds_inflicted(),
            0u);

  // Determinism: the committed partition equals the sequential turn-order
  // computation -- each ticket takes whatever of its candidate is still
  // unowned. Scheduling may vary who retried; never who owns what.
  std::vector<Ticket> expected(kUsers, kNoTicket);
  for (uint32_t i = 0; i < kThreads; ++i) {
    for (VertexId v : candidates[i]) {
      if (expected[v] == kNoTicket) expected[v] = tickets[i];
    }
  }
  EXPECT_EQ(committed_owner, expected);
}

// ----------------------------------------------- ConcurrentCloakingSession

using World = fixtures::SmallWorld;

// This suite's worlds span 100-500 users; delta=0.1 keeps the larger ones
// connected without blowing up peer lists.
World MakeWorld(uint64_t seed, uint32_t users) {
  return fixtures::MakeWorld(seed, users, /*delta=*/0.1);
}

TEST(ConcurrentCloakingTest, NeighborsRequestingSimultaneously) {
  // Hosts picked adjacent to each other so their candidates overlap: the
  // classic conflict the paper's future work worries about.
  World world = MakeWorld(3, 300);
  Registry registry(world.dataset.size());
  ConcurrentCloakingSession session(world.graph, 5, &registry);
  // Host 0 and two of its graph neighbors.
  std::vector<VertexId> hosts = {0};
  for (const auto& edge : world.graph.Neighbors(0)) {
    hosts.push_back(edge.to);
    if (hosts.size() == 3) break;
  }
  ASSERT_GE(hosts.size(), 2u);
  auto outcomes = session.RunAll(hosts);
  ASSERT_TRUE(outcomes.ok());
  // Every host ends in exactly one cluster, and clusters are disjoint by
  // registry construction (reciprocity preserved under concurrency).
  for (size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_NE(outcomes.value()[i].cluster_id, kNoCluster);
    EXPECT_TRUE(registry.IsClustered(hosts[i]));
  }
}

TEST(ConcurrentCloakingTest, ManyConcurrentHostsSerializeWithoutDeadlock) {
  World world = MakeWorld(7, 500);
  Registry registry(world.dataset.size());
  ConcurrentCloakingSession session(world.graph, 5, &registry);
  util::Rng rng(11);
  std::vector<VertexId> hosts;
  for (uint32_t id : rng.SampleWithoutReplacement(500, 40)) {
    hosts.push_back(id);
  }
  auto outcomes = session.RunAll(hosts);
  ASSERT_TRUE(outcomes.ok());
  ASSERT_EQ(outcomes.value().size(), hosts.size());
  for (size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_NE(outcomes.value()[i].cluster_id, kNoCluster) << i;
  }
  // Reciprocity: no user is in two clusters (Register enforces it; the
  // session must never have tripped that error to get here). Spot-check
  // membership consistency:
  std::set<VertexId> seen;
  for (ClusterId id = 0; id < registry.cluster_count(); ++id) {
    for (VertexId v : registry.info(id).members) {
      EXPECT_TRUE(seen.insert(v).second) << "user in two clusters";
    }
  }
}

TEST(ConcurrentCloakingTest, ContentionIsObservedAndResolved) {
  // A dense clique-ish neighborhood with many simultaneous hosts must
  // produce real conflicts/wounds, and still terminate with everyone
  // served.
  World world = MakeWorld(13, 200);
  Registry registry(world.dataset.size());
  ConcurrentCloakingSession session(world.graph, 8, &registry);
  std::vector<VertexId> hosts;
  for (VertexId v = 0; v < 24; ++v) hosts.push_back(v);
  auto outcomes = session.RunAll(hosts);
  ASSERT_TRUE(outcomes.ok());
  uint32_t total_retries = 0;
  for (const auto& outcome : outcomes.value()) {
    EXPECT_NE(outcome.cluster_id, kNoCluster);
    total_retries += outcome.retries;
  }
  // With 24 overlapping requests some contention must have occurred.
  EXPECT_GT(session.coordinator().conflicts_observed() + total_retries, 0u);
}

TEST(ConcurrentCloakingTest, DuplicateHostsShareOneCluster) {
  World world = MakeWorld(17, 200);
  Registry registry(world.dataset.size());
  ConcurrentCloakingSession session(world.graph, 5, &registry);
  auto outcomes = session.RunAll({42, 42, 42});
  ASSERT_TRUE(outcomes.ok());
  const ClusterId id = outcomes.value()[0].cluster_id;
  EXPECT_EQ(outcomes.value()[1].cluster_id, id);
  EXPECT_EQ(outcomes.value()[2].cluster_id, id);
}

TEST(ConcurrentCloakingTest, RejectsBadHost) {
  World world = MakeWorld(19, 100);
  Registry registry(world.dataset.size());
  ConcurrentCloakingSession session(world.graph, 5, &registry);
  EXPECT_FALSE(session.RunAll({1000}).ok());
}

TEST(ConcurrentCloakingTest, MatchesSequentialResultWhenDisjoint) {
  // Hosts far apart never conflict; the concurrent session must produce
  // exactly the clusters a sequential run produces.
  World world = MakeWorld(23, 400);
  std::vector<VertexId> hosts = {1, 399};

  Registry concurrent_registry(world.dataset.size());
  ConcurrentCloakingSession session(world.graph, 5, &concurrent_registry);
  auto outcomes = session.RunAll(hosts);
  ASSERT_TRUE(outcomes.ok());

  Registry sequential_registry(world.dataset.size());
  DistributedTConnClusterer clusterer(world.graph, 5, &sequential_registry);
  for (VertexId host : hosts) {
    ASSERT_TRUE(clusterer.ClusterFor(host).ok());
  }
  for (size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_EQ(
        concurrent_registry.info(outcomes.value()[i].cluster_id).members,
        sequential_registry.info(sequential_registry.ClusterOf(hosts[i]))
            .members);
  }
}

}  // namespace
}  // namespace nela::cluster
