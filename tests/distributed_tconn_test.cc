// Algorithm 2 tests: worked traces on the Fig. 6/7 graph, cluster-isolation
// (Property 4.1), smallest-valid-cluster optimality, and accounting.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/centralized_tconn.h"
#include "cluster/distributed_tconn.h"
#include "graph/connectivity.h"
#include "graph/hierarchy.h"
#include "graph/wpg.h"
#include "util/rng.h"

namespace nela::cluster {
namespace {

using graph::VertexId;
using graph::Wpg;

Wpg Fig6Graph() {
  auto graph = Wpg::FromEdges(7, {{0, 1, 3.0},
                                  {1, 2, 5.0},
                                  {0, 2, 6.0},
                                  {3, 4, 3.0},
                                  {5, 6, 3.0},
                                  {4, 5, 6.0},
                                  {3, 6, 4.0},
                                  {2, 3, 7.0},
                                  {0, 5, 8.0}});
  NELA_CHECK(graph.ok());
  return std::move(graph).value();
}

// Host 2, k=2 (the Fig. 7 pattern: all border vertices pass).
TEST(DistributedTConnTest, BorderVerticesAllPass) {
  const Wpg graph = Fig6Graph();
  Registry registry(7);
  DistributedTConnClusterer clusterer(graph, 2, &registry);
  auto outcome = clusterer.ClusterFor(2);
  ASSERT_TRUE(outcome.ok());

  const auto& trace = clusterer.last_trace();
  // Step 1: Prim from 2 picks edge (1,2,5); saturation at t=5 pulls in 0
  // (t-connected via (0,1,3)).
  EXPECT_EQ(trace.smallest_valid_cluster, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(trace.initial_t, 5.0);
  // Step 2: borders are 3 (edge 7) and 5 (edge 8); both own a valid
  // 5-connectivity 2-cluster ({3,4} and {5,6}).
  EXPECT_EQ(trace.border_checks, 2u);
  EXPECT_EQ(trace.border_failures, 0u);
  EXPECT_EQ(trace.candidate, (std::vector<VertexId>{0, 1, 2}));
  // Step 3: the candidate partitions into itself.
  EXPECT_EQ(registry.info(outcome.value().cluster_id).members,
            (std::vector<VertexId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(registry.info(outcome.value().cluster_id).connectivity,
                   5.0);
  // Involved: the 3 cluster members + the border components {3,4}, {5,6}.
  EXPECT_EQ(outcome.value().involved_users, 7u);
}

// Host 3, k=2: border vertex 2 has no 3-connectivity 2-cluster outside C,
// so it is absorbed and t rises to 7 (the Fig. 7 "w fails" pattern).
TEST(DistributedTConnTest, FailingBorderVertexIsAbsorbed) {
  const Wpg graph = Fig6Graph();
  Registry registry(7);
  DistributedTConnClusterer clusterer(graph, 2, &registry);
  auto outcome = clusterer.ClusterFor(3);
  ASSERT_TRUE(outcome.ok());

  const auto& trace = clusterer.last_trace();
  EXPECT_EQ(trace.smallest_valid_cluster, (std::vector<VertexId>{3, 4}));
  EXPECT_DOUBLE_EQ(trace.initial_t, 3.0);
  EXPECT_GE(trace.border_failures, 1u);
  EXPECT_DOUBLE_EQ(trace.final_t, 7.0);
  // Re-spanning at t=7 engulfs every vertex (only the weight-8 edge is
  // excluded, and both its endpoints are already inside).
  EXPECT_EQ(trace.candidate, (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6}));
  // Step 3 partitions the candidate like the centralized algorithm.
  EXPECT_EQ(registry.info(outcome.value().cluster_id).members,
            (std::vector<VertexId>{3, 4}));
  EXPECT_EQ(registry.cluster_count(), 3u);  // {0,1,2}, {3,4}, {5,6}
  EXPECT_EQ(registry.clustered_user_count(), 7u);
}

TEST(DistributedTConnTest, ReuseAfterClusterFormation) {
  const Wpg graph = Fig6Graph();
  Registry registry(7);
  DistributedTConnClusterer clusterer(graph, 2, &registry);
  auto first = clusterer.ClusterFor(2);
  ASSERT_TRUE(first.ok());
  // Users 0 and 1 were clustered alongside 2 and now answer for free.
  for (VertexId host : {0u, 1u, 2u}) {
    auto outcome = clusterer.ClusterFor(host);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.value().reused);
    EXPECT_EQ(outcome.value().involved_users, 0u);
    EXPECT_EQ(outcome.value().cluster_id, first.value().cluster_id);
  }
}

TEST(DistributedTConnTest, SmallComponentYieldsInvalidCluster) {
  auto built = Wpg::FromEdges(5, {{0, 1, 1.0}, {2, 3, 1.0}, {3, 4, 2.0}});
  ASSERT_TRUE(built.ok());
  Registry registry(5);
  DistributedTConnClusterer clusterer(built.value(), 3, &registry);
  auto outcome = clusterer.ClusterFor(0);  // component {0,1} < k=3
  ASSERT_TRUE(outcome.ok());
  const ClusterInfo& info = registry.info(outcome.value().cluster_id);
  EXPECT_FALSE(info.valid);
  EXPECT_EQ(info.members, (std::vector<VertexId>{0, 1}));
}

TEST(DistributedTConnTest, IsolatedHostGetsSingletonInvalidCluster) {
  auto built = Wpg::FromEdges(3, {{0, 1, 1.0}});
  ASSERT_TRUE(built.ok());
  Registry registry(3);
  DistributedTConnClusterer clusterer(built.value(), 2, &registry);
  auto outcome = clusterer.ClusterFor(2);
  ASSERT_TRUE(outcome.ok());
  const ClusterInfo& info = registry.info(outcome.value().cluster_id);
  EXPECT_FALSE(info.valid);
  EXPECT_EQ(info.members, (std::vector<VertexId>{2}));
  EXPECT_EQ(outcome.value().involved_users, 1u);
}

TEST(DistributedTConnTest, KOneReturnsSingleton) {
  const Wpg graph = Fig6Graph();
  Registry registry(7);
  DistributedTConnClusterer clusterer(graph, 1, &registry);
  auto outcome = clusterer.ClusterFor(4);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(registry.info(outcome.value().cluster_id).members,
            (std::vector<VertexId>{4}));
  EXPECT_TRUE(registry.info(outcome.value().cluster_id).valid);
}

TEST(DistributedTConnTest, RejectsBadHost) {
  const Wpg graph = Fig6Graph();
  Registry registry(7);
  DistributedTConnClusterer clusterer(graph, 2, &registry);
  EXPECT_FALSE(clusterer.ClusterFor(7).ok());
}

// ----------------------------------------------------- property: step 1

Wpg RandomGraph(util::Rng& rng, uint32_t n, uint32_t extra_edges,
                uint32_t weight_range) {
  Wpg graph(n);
  std::set<uint64_t> used;
  auto try_add = [&](uint32_t a, uint32_t b, double w) {
    if (a == b) return;
    const uint64_t key =
        (static_cast<uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
    if (used.insert(key).second) graph.AddEdge(a, b, w);
  };
  for (uint32_t v = 1; v < n; ++v) {
    try_add(static_cast<uint32_t>(rng.NextUint64(v)), v,
            static_cast<double>(1 + rng.NextUint64(weight_range)));
  }
  for (uint32_t i = 0; i < extra_edges; ++i) {
    try_add(static_cast<uint32_t>(rng.NextUint64(n)),
            static_cast<uint32_t>(rng.NextUint64(n)),
            static_cast<double>(1 + rng.NextUint64(weight_range)));
  }
  graph.SortAdjacencyByWeight();
  return graph;
}

class DistributedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Step 1's output must equal the smallest valid t-connectivity cluster:
// the lowest hierarchy ancestor of the host with size >= k.
TEST_P(DistributedPropertyTest, Step1FindsSmallestValidCluster) {
  util::Rng rng(GetParam());
  const uint32_t n = 20 + static_cast<uint32_t>(rng.NextUint64(30));
  const Wpg graph = RandomGraph(rng, n, n, 4);
  const graph::TConnHierarchy hierarchy(graph);
  const uint32_t k = 2 + static_cast<uint32_t>(rng.NextUint64(5));

  for (VertexId host = 0; host < n; host += 3) {
    Registry registry(n);  // fresh: full WPG
    DistributedTConnClusterer clusterer(graph, k, &registry);
    ASSERT_TRUE(clusterer.ClusterFor(host).ok());
    const auto& trace = clusterer.last_trace();

    const int32_t ancestor = hierarchy.SmallestValidAncestor(host, k);
    if (ancestor < 0) continue;  // component < k: invalid-cluster path
    EXPECT_EQ(trace.smallest_valid_cluster,
              hierarchy.VerticesOf(static_cast<uint32_t>(ancestor)))
        << "host " << host << " k " << k;
    EXPECT_DOUBLE_EQ(
        trace.initial_t,
        hierarchy.node(static_cast<uint32_t>(ancestor)).key.weight);
  }
}

// Property 4.1 / Corollary 4.5 (cluster-isolation), end-to-end: after
// serving host u, the FINAL cluster any still-unclustered vertex v obtains
// from the remaining graph equals the cluster v would have obtained from
// the full graph. With the freeze partitioner this held in every one of
// hundreds of fuzzed instances (the seeds below are a pinned subset).
TEST_P(DistributedPropertyTest, FinalClusterIsolation) {
  util::Rng rng(GetParam() * 31 + 5);
  const uint32_t n = 15 + static_cast<uint32_t>(rng.NextUint64(20));
  const Wpg graph = RandomGraph(rng, n, n / 2, 3);
  const uint32_t k = 2 + static_cast<uint32_t>(rng.NextUint64(3));

  for (VertexId u = 0; u < n; u += 4) {
    Registry after_u(n);
    DistributedTConnClusterer clusterer_u(graph, k, &after_u);
    ASSERT_TRUE(clusterer_u.ClusterFor(u).ok());

    for (VertexId v = 0; v < n; ++v) {
      if (after_u.IsClustered(v)) continue;
      // v's final cluster in the remaining graph...
      DistributedTConnClusterer continue_clusterer(graph, k, &after_u);
      auto remaining = continue_clusterer.ClusterFor(v);
      ASSERT_TRUE(remaining.ok());
      const std::vector<VertexId> remaining_members =
          after_u.info(remaining.value().cluster_id).members;

      // ... must equal the one from the full graph.
      Registry fresh(n);
      DistributedTConnClusterer fresh_clusterer(graph, k, &fresh);
      auto full = fresh_clusterer.ClusterFor(v);
      ASSERT_TRUE(full.ok());
      EXPECT_EQ(remaining_members,
                fresh.info(full.value().cluster_id).members)
          << "u=" << u << " v=" << v << " k=" << k;
      break;  // one v per u keeps the test fast; u varies across the sweep
    }
  }
}

// Reproduction note (documented in EXPERIMENTS.md): the case-2 argument of
// Theorem 4.4 has a gap. A non-border vertex v whose own clustering
// threshold exceeds the host's t can legitimately contain the host's
// cluster C(u) inside its *smallest valid t-connectivity cluster*, so that
// intermediate object is NOT preserved when C(u) is removed. In this fuzz-
// found instance (seed 208): host u=20 forms C(u)={13,15,20,21,22} with
// every border check passing, yet v=0's smallest valid cluster in the full
// graph contains all of C(u) (v needs a higher threshold). The *final*
// cluster of v is nevertheless identical in both runs -- the step-3
// partition re-splits the larger candidate the same way -- which is why
// the end-to-end isolation property above still holds.
TEST(DistributedTConnTest, TheoremFourFourCaseTwoGap) {
  util::Rng rng(208 * 31 + 5);
  const uint32_t n = 15 + static_cast<uint32_t>(rng.NextUint64(20));
  const Wpg graph = RandomGraph(rng, n, n / 2, 3);
  const uint32_t k = 2 + static_cast<uint32_t>(rng.NextUint64(3));
  ASSERT_EQ(n, 26u);
  ASSERT_EQ(k, 3u);
  const VertexId u = 20;
  const VertexId v = 0;

  Registry after_u(n);
  DistributedTConnClusterer clusterer_u(graph, k, &after_u);
  ASSERT_TRUE(clusterer_u.ClusterFor(u).ok());
  const auto u_members = after_u.info(after_u.ClusterOf(u)).members;
  EXPECT_EQ(u_members, (std::vector<VertexId>{13, 15, 20, 21, 22}));
  ASSERT_FALSE(after_u.IsClustered(v));

  DistributedTConnClusterer continue_clusterer(graph, k, &after_u);
  auto remaining = continue_clusterer.ClusterFor(v);
  ASSERT_TRUE(remaining.ok());
  const auto remaining_svc =
      continue_clusterer.last_trace().smallest_valid_cluster;
  const auto remaining_members =
      after_u.info(remaining.value().cluster_id).members;

  Registry fresh(n);
  DistributedTConnClusterer fresh_clusterer(graph, k, &fresh);
  auto full = fresh_clusterer.ClusterFor(v);
  ASSERT_TRUE(full.ok());
  const auto full_svc = fresh_clusterer.last_trace().smallest_valid_cluster;

  // The intermediate smallest valid cluster differs (the gap): in the full
  // graph it swallows every member of C(u)...
  EXPECT_NE(remaining_svc, full_svc);
  for (VertexId member : u_members) {
    EXPECT_NE(std::find(full_svc.begin(), full_svc.end(), member),
              full_svc.end());
  }
  // ... but the algorithm's final output is isolated anyway.
  EXPECT_EQ(remaining_members, fresh.info(full.value().cluster_id).members);
}

// Every cluster registered by a request is >= k whenever the host's
// component allows it, and the registered set covers exactly the step-2
// candidate.
TEST_P(DistributedPropertyTest, RegisteredClustersAreValid) {
  util::Rng rng(GetParam() * 57 + 11);
  const uint32_t n = 25 + static_cast<uint32_t>(rng.NextUint64(25));
  const Wpg graph = RandomGraph(rng, n, n, 5);
  const uint32_t k = 2 + static_cast<uint32_t>(rng.NextUint64(4));

  Registry registry(n);
  DistributedTConnClusterer clusterer(graph, k, &registry);
  // Serve hosts until everyone is clustered.
  for (VertexId host = 0; host < n; ++host) {
    ASSERT_TRUE(clusterer.ClusterFor(host).ok());
  }
  EXPECT_EQ(registry.clustered_user_count(), n);
  for (ClusterId id = 0; id < registry.cluster_count(); ++id) {
    const ClusterInfo& info = registry.info(id);
    if (info.valid) {
      EXPECT_GE(info.members.size(), k);
    } else {
      // Invalid clusters must be whole components smaller than k.
      const auto component = graph::ThresholdComponent(
          graph, info.members.front(), 1e18, nullptr);
      EXPECT_LT(component.size(), k);
    }
  }
}

// Propose reads and writes no registry, and registering its clusters in
// order reproduces ClusterFor exactly: the same clusters (hence the same
// digest), the same host cluster and the same involved-user count.
TEST_P(DistributedPropertyTest, ProposeThenRegisterMatchesClusterFor) {
  util::Rng rng(GetParam() * 43 + 7);
  const uint32_t n = 25 + static_cast<uint32_t>(rng.NextUint64(25));
  const Wpg graph = RandomGraph(rng, n, n, 5);
  const uint32_t k = 2 + static_cast<uint32_t>(rng.NextUint64(4));

  Registry direct(n);
  DistributedTConnClusterer direct_clusterer(graph, k, &direct);
  Registry proposed(n);
  DistributedTConnClusterer proposer(graph, k, &proposed);
  for (VertexId host = 0; host < n; ++host) {
    auto outcome = direct_clusterer.ClusterFor(host);
    ASSERT_TRUE(outcome.ok());
    if (outcome.value().reused) {
      auto refused = proposer.Propose(host, proposed.ActiveMask(), nullptr);
      ASSERT_FALSE(refused.ok());
      EXPECT_EQ(refused.status().code(),
                util::StatusCode::kFailedPrecondition);
      continue;
    }
    uint64_t version = 0;
    auto proposal = proposer.Propose(host, proposed.ActiveMask(&version),
                                     nullptr);
    ASSERT_TRUE(proposal.ok());
    EXPECT_EQ(proposed.version(), version) << "Propose registered";
    EXPECT_EQ(proposal.value().involved_users,
              outcome.value().involved_users);
    int64_t host_clusters = 0;
    for (const ClusterInfo& info : proposal.value().clusters) {
      EXPECT_TRUE(std::is_sorted(info.members.begin(), info.members.end()));
      host_clusters += std::count(info.members.begin(), info.members.end(),
                                  host);
      ASSERT_TRUE(
          proposed.Register(info.members, info.connectivity, info.valid)
              .ok());
    }
    EXPECT_EQ(host_clusters, 1);
    EXPECT_EQ(proposed.ClusterOf(host), outcome.value().cluster_id);
    ASSERT_EQ(proposed.Digest(), direct.Digest()) << "host " << host;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributedPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

TEST(DistributedTConnTest, NetworkAccountingMatchesInvolvedUsers) {
  const Wpg graph = Fig6Graph();
  Registry registry(7);
  net::Network network(7);
  DistributedTConnClusterer clusterer(graph, 2, &registry, &network);
  auto outcome = clusterer.ClusterFor(2);
  ASSERT_TRUE(outcome.ok());
  // One adjacency message per involved user except the host itself.
  EXPECT_EQ(network.total().messages, outcome.value().involved_users - 1);
}

}  // namespace
}  // namespace nela::cluster
