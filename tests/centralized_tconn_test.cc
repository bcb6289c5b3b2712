// Algorithm 1 tests: the Fig. 6 worked example, the equivalence of the
// hierarchy-based implementation with the reference pseudocode, the
// induced-subgraph property test (label `proptest`), and the clusterer
// adapter semantics.

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/centralized_tconn.h"
#include "data/generators.h"
#include "graph/connectivity.h"
#include "graph/metrics.h"
#include "graph/wpg.h"
#include "graph/wpg_builder.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace nela::cluster {
namespace {

using graph::Edge;
using graph::VertexId;
using graph::Wpg;

// A concrete instance of the Fig. 6 scenario: two communities (a triangle
// {0,1,2} and a 4-cycle-ish {3,4,5,6}) joined by heavy edges of weights 7
// and 8. 2-clustering must (a) split off the two communities by removing
// weights 8 and 7, (b) leave {0,1,2} whole (splitting it would isolate
// vertex 2), and (c) split {3,4,5,6} into {3,4} and {5,6} by removing
// weights 6 and 4 -- exactly the process the paper walks through.
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

std::set<std::vector<VertexId>> AsSet(const Partition& partition) {
  std::set<std::vector<VertexId>> out;
  for (const auto& cluster : partition.clusters) out.insert(cluster);
  return out;
}

TEST(CentralizedTConnTest, Fig6TwoClustering) {
  const Wpg graph = Fig6Graph();
  const Partition partition = CentralizedKClustering(graph, 2);
  EXPECT_EQ(AsSet(partition),
            (std::set<std::vector<VertexId>>{{0, 1, 2}, {3, 4}, {5, 6}}));
  // Connectivity values: {0,1,2} needs t=5, the pairs need t=3.
  for (size_t i = 0; i < partition.clusters.size(); ++i) {
    if (partition.clusters[i].size() == 3) {
      EXPECT_DOUBLE_EQ(partition.connectivity[i], 5.0);
    } else {
      EXPECT_DOUBLE_EQ(partition.connectivity[i], 3.0);
    }
  }
}

TEST(CentralizedTConnTest, Fig6ReferenceAgrees) {
  const Wpg graph = Fig6Graph();
  const Partition reference =
      ReferenceCentralizedKClustering(graph, {0, 1, 2, 3, 4, 5, 6}, 2);
  EXPECT_EQ(AsSet(reference),
            (std::set<std::vector<VertexId>>{{0, 1, 2}, {3, 4}, {5, 6}}));
}

TEST(CentralizedTConnTest, Fig6LiteralPseudocodeAgrees) {
  // On the paper's own worked example every split along the way is valid,
  // so the verbatim first-disconnect recursion matches the production
  // semantics.
  const Wpg graph = Fig6Graph();
  const Partition literal =
      LiteralFirstDisconnectKClustering(graph, {0, 1, 2, 3, 4, 5, 6}, 2);
  EXPECT_EQ(AsSet(literal),
            (std::set<std::vector<VertexId>>{{0, 1, 2}, {3, 4}, {5, 6}}));
}

TEST(CentralizedTConnTest, LiteralPseudocodeDegeneratesOnInvalidFirstSplit) {
  // Reproduction note (EXPERIMENTS.md): a pendant vertex hanging off a
  // splittable core. The heaviest edge is inside the core, but removal
  // order reaches the pendant bridge first...: construct so the first
  // disconnection isolates the pendant -> invalid -> the literal recursion
  // keeps the WHOLE graph as one cluster, while the freeze semantics still
  // split the core and absorb the pendant.
  //   core: 0-1 (1), 2-3 (1), 1-2 (4); pendant: 4 attached to 0 with (5).
  // Descending removal: (0,4,5) disconnects {4} first -> invalid -> stop.
  auto built = Wpg::FromEdges(
      5, {{0, 1, 1.0}, {2, 3, 1.0}, {1, 2, 4.0}, {0, 4, 5.0}});
  ASSERT_TRUE(built.ok());
  const Partition literal =
      LiteralFirstDisconnectKClustering(built.value(), {0, 1, 2, 3, 4}, 2);
  ASSERT_EQ(literal.clusters.size(), 1u);
  EXPECT_EQ(literal.clusters[0].size(), 5u);  // one giant cluster

  const Partition freeze = CentralizedKClustering(built.value(), 2);
  EXPECT_EQ(AsSet(freeze),
            (std::set<std::vector<VertexId>>{{0, 1, 4}, {2, 3}}));
}

TEST(CentralizedTConnTest, KEqualsOneShattersToSingletons) {
  const Wpg graph = Fig6Graph();
  const Partition partition = CentralizedKClustering(graph, 1);
  EXPECT_EQ(partition.clusters.size(), 7u);
  for (const auto& cluster : partition.clusters) {
    EXPECT_EQ(cluster.size(), 1u);
  }
}

TEST(CentralizedTConnTest, KLargerThanGraphKeepsOneCluster) {
  const Wpg graph = Fig6Graph();
  const Partition partition = CentralizedKClustering(graph, 7);
  ASSERT_EQ(partition.clusters.size(), 1u);
  EXPECT_EQ(partition.clusters[0].size(), 7u);
  EXPECT_DOUBLE_EQ(partition.connectivity[0], 7.0);
}

TEST(CentralizedTConnTest, KBeyondComponentYieldsInvalidSmallCluster) {
  const Wpg graph = Fig6Graph();
  const Partition partition = CentralizedKClustering(graph, 10);
  // The whole graph (size 7) cannot reach k=10 but is still emitted.
  ASSERT_EQ(partition.clusters.size(), 1u);
  EXPECT_EQ(partition.clusters[0].size(), 7u);
}

TEST(CentralizedTConnTest, IsolatedVerticesBecomeSingletonClusters) {
  auto graph = Wpg::FromEdges(4, {{0, 1, 1.0}});
  ASSERT_TRUE(graph.ok());
  const Partition partition = CentralizedKClustering(graph.value(), 2);
  EXPECT_EQ(AsSet(partition),
            (std::set<std::vector<VertexId>>{{0, 1}, {2}, {3}}));
}

TEST(CentralizedTConnTest, ReferenceSubsetRestriction) {
  const Wpg graph = Fig6Graph();
  // Restricted to the right community only.
  const Partition partition =
      ReferenceCentralizedKClustering(graph, {3, 4, 5, 6}, 2);
  EXPECT_EQ(AsSet(partition),
            (std::set<std::vector<VertexId>>{{3, 4}, {5, 6}}));
}

TEST(CentralizedTConnTest, EqualWeightCycleSplitsViaRefinement) {
  // All weights equal: under the strict total order the 4-cycle first
  // freezes into one component; the MST refinement then cuts it into two
  // valid pairs along the tree edges (0,1),(0,3),(1,2): cutting (0,1)
  // leaves {1,2} and {0,3}, both of size k.
  auto graph = Wpg::FromEdges(
      4, {{0, 1, 2.0}, {1, 2, 2.0}, {2, 3, 2.0}, {3, 0, 2.0}});
  ASSERT_TRUE(graph.ok());
  const Partition partition = CentralizedKClustering(graph.value(), 2);
  EXPECT_EQ(AsSet(partition),
            (std::set<std::vector<VertexId>>{{0, 3}, {1, 2}}));
  for (double connectivity : partition.connectivity) {
    EXPECT_DOUBLE_EQ(connectivity, 2.0);
  }
}

// ---------------------------------------------------------------- fuzzing

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

struct FuzzParam {
  uint64_t seed;
  uint32_t n;
  uint32_t extra;
  uint32_t weights;  // small => many ties
  uint32_t k;
};

class CentralizedEquivalenceTest : public ::testing::TestWithParam<FuzzParam> {
};

// The O(E log E) hierarchy traversal and the literal pseudocode must
// produce identical partitions, including under heavy weight ties.
TEST_P(CentralizedEquivalenceTest, HierarchyMatchesReference) {
  const FuzzParam param = GetParam();
  util::Rng rng(param.seed);
  const Wpg graph = RandomGraph(rng, param.n, param.extra, param.weights);
  std::vector<VertexId> all(param.n);
  for (uint32_t v = 0; v < param.n; ++v) all[v] = v;

  const Partition fast = CentralizedKClustering(graph, param.k);
  const Partition reference =
      ReferenceCentralizedKClustering(graph, all, param.k);
  EXPECT_EQ(AsSet(fast), AsSet(reference));

  // Cross-check connectivity: each cluster's value is the MST bottleneck,
  // i.e. the smallest t making it one threshold component.
  std::set<std::vector<VertexId>> fast_set = AsSet(fast);
  for (size_t i = 0; i < reference.clusters.size(); ++i) {
    const auto& members = reference.clusters[i];
    auto it = std::find(fast.clusters.begin(), fast.clusters.end(), members);
    ASSERT_NE(it, fast.clusters.end());
    const size_t j =
        static_cast<size_t>(it - fast.clusters.begin());
    EXPECT_DOUBLE_EQ(fast.connectivity[j], reference.connectivity[i]);
  }
}

// Structural invariants of any valid partition.
TEST_P(CentralizedEquivalenceTest, PartitionInvariants) {
  const FuzzParam param = GetParam();
  util::Rng rng(param.seed * 977 + 13);
  const Wpg graph = RandomGraph(rng, param.n, param.extra, param.weights);
  const Partition partition = CentralizedKClustering(graph, param.k);

  // Disjoint cover of all vertices.
  std::vector<int> owner(param.n, -1);
  for (size_t c = 0; c < partition.clusters.size(); ++c) {
    for (VertexId v : partition.clusters[c]) {
      EXPECT_EQ(owner[v], -1);
      owner[v] = static_cast<int>(c);
    }
  }
  for (uint32_t v = 0; v < param.n; ++v) EXPECT_NE(owner[v], -1);

  // Every cluster from a component of size >= k must itself have >= k
  // members (validity), and sub-k clusters can only be whole components.
  for (const auto& cluster : partition.clusters) {
    if (cluster.size() >= param.k) continue;
    const auto component =
        graph::ThresholdComponent(graph, cluster.front(), 1e18, nullptr);
    EXPECT_EQ(component.size(), cluster.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, CentralizedEquivalenceTest,
    ::testing::Values(FuzzParam{101, 12, 10, 3, 2},
                      FuzzParam{102, 20, 25, 4, 3},
                      FuzzParam{103, 30, 10, 2, 4},
                      FuzzParam{104, 40, 60, 5, 5},
                      FuzzParam{105, 50, 20, 3, 2},
                      FuzzParam{106, 15, 40, 1, 3},   // all weights equal
                      FuzzParam{107, 60, 80, 8, 10},
                      FuzzParam{108, 25, 0, 4, 2},    // tree
                      FuzzParam{109, 80, 100, 6, 7},
                      FuzzParam{110, 10, 30, 2, 5}));

// ------------------------------------------------ induced-subgraph property

// The full scan the adjacency walk replaced: every stored edge with both
// endpoints in `subset`, in edges() order and stored orientation.
std::vector<Edge> ScanInducedEdges(const Wpg& graph,
                                   const std::vector<VertexId>& subset) {
  const std::set<VertexId> in(subset.begin(), subset.end());
  std::vector<Edge> out;
  for (const Edge& e : graph.edges()) {
    if (in.count(e.u) > 0 && in.count(e.v) > 0) out.push_back(e);
  }
  return out;
}

std::vector<graph::EdgeKey> SortedKeys(const std::vector<Edge>& edges) {
  std::vector<graph::EdgeKey> keys;
  for (const Edge& e : edges) keys.push_back(KeyOf(e));
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<VertexId> SortedDistinct(std::vector<VertexId> vertices) {
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  return vertices;
}

// Step 3 as it ran before it read adjacency directly: scan for the induced
// edges, build them into a Wpg over local ids, partition that whole graph,
// and translate back.
Partition PartitionBuiltSubgraph(const Wpg& graph,
                                 const std::vector<VertexId>& subset,
                                 uint32_t k) {
  const std::vector<VertexId> members = SortedDistinct(subset);
  auto local = [&members](VertexId v) {
    return static_cast<VertexId>(
        std::lower_bound(members.begin(), members.end(), v) -
        members.begin());
  };
  Wpg induced(static_cast<uint32_t>(members.size()));
  for (const Edge& e : ScanInducedEdges(graph, members)) {
    induced.AddEdge(local(e.u), local(e.v), e.weight);
  }
  induced.SortAdjacencyByWeight();
  Partition partition = CentralizedKClustering(induced, k);
  for (auto& cluster : partition.clusters) {
    for (VertexId& v : cluster) v = members[v];
    std::sort(cluster.begin(), cluster.end());
  }
  return partition;
}

bool SamePartition(const Partition& a, const Partition& b) {
  return a.clusters == b.clusters && a.connectivity == b.connectivity;
}

// Every induced-subgraph computation on `graph` restricted to `subset`
// against the same computation on the oracle's edges: the Wpg holding
// exactly the scanned induced edges, in stored orientation.
std::optional<std::string> CheckInducedSubset(
    const Wpg& graph, const std::vector<VertexId>& subset, uint32_t k) {
  const std::vector<Edge> oracle = ScanInducedEdges(graph, subset);
  const std::vector<Edge> induced = graph::InducedEdges(graph, subset);
  if (SortedKeys(induced) != SortedKeys(oracle)) {
    return "InducedEdges gave " + std::to_string(induced.size()) +
           " edges, the full scan " + std::to_string(oracle.size());
  }
  for (const Edge& e : induced) {
    if (e.u >= e.v) return "InducedEdges emitted an edge as (v, u)";
  }
  double oracle_mew = 0.0;
  for (const Edge& e : oracle) oracle_mew = std::max(oracle_mew, e.weight);
  if (graph::MaxEdgeWeightWithin(graph, subset) != oracle_mew) {
    return "MaxEdgeWeightWithin differs from the oracle edges'";
  }

  auto built = Wpg::FromEdges(graph.vertex_count(), oracle);
  if (!built.ok()) return "oracle edges do not form a graph";
  const Wpg& oracle_graph = built.value();
  const std::vector<VertexId> members = SortedDistinct(subset);
  const Partition reference =
      ReferenceCentralizedKClustering(graph, members, k);
  const Partition oracle_reference =
      ReferenceCentralizedKClustering(oracle_graph, members, k);
  if (!SamePartition(reference, oracle_reference)) {
    return "ReferenceCentralizedKClustering differs on the oracle edges";
  }
  const Partition first_disconnect =
      LiteralFirstDisconnectKClustering(graph, subset, k);
  const Partition oracle_first_disconnect =
      LiteralFirstDisconnectKClustering(oracle_graph, subset, k);
  if (!SamePartition(first_disconnect, oracle_first_disconnect)) {
    return "LiteralFirstDisconnectKClustering differs on the oracle edges";
  }
  const Partition step3 = CentralizedKClustering(graph, subset, k);
  if (!SamePartition(step3, PartitionBuiltSubgraph(graph, subset, k))) {
    return "subset CentralizedKClustering differs from the built subgraph";
  }
  if (AsSet(step3) != AsSet(reference)) {
    return "subset CentralizedKClustering differs from the reference";
  }
  return std::nullopt;
}

// Random subsets of an n-vertex graph: empty, a singleton, a draw with
// duplicates, and the whole vertex set.
std::vector<std::vector<VertexId>> RandomSubsets(util::Rng& rng, uint32_t n) {
  std::vector<std::vector<VertexId>> subsets = {{}};
  subsets.push_back({static_cast<VertexId>(rng.NextUint64(n))});
  std::vector<VertexId> drawn;
  const uint64_t draws = 1 + rng.NextUint64(2ull * n);
  for (uint64_t i = 0; i < draws; ++i) {
    drawn.push_back(static_cast<VertexId>(rng.NextUint64(n)));
  }
  subsets.push_back(std::move(drawn));
  std::vector<VertexId> all(n);
  for (uint32_t v = 0; v < n; ++v) all[v] = v;
  rng.Shuffle(all);
  subsets.push_back(all);
  return subsets;
}

// Three graphs per case: one random edge set stored as (lo, hi) and again
// as (hi, lo) in shuffled order, both through FromEdges, plus a BuildWpg
// graph over random users. The two orientations of one edge set must also
// give identical results.
std::optional<std::string> InducedSubgraphsMatchFullScan(util::Rng& rng,
                                                         uint32_t size) {
  const uint32_t n = 2 + size;
  const uint64_t weights = 1 + rng.NextUint64(6);  // few weights: many ties
  std::set<std::pair<VertexId, VertexId>> pairs;
  const uint64_t edge_draws = rng.NextUint64(3ull * n);
  for (uint64_t i = 0; i < edge_draws; ++i) {
    const auto a = static_cast<VertexId>(rng.NextUint64(n));
    const auto b = static_cast<VertexId>(rng.NextUint64(n));
    if (a != b) pairs.insert({std::min(a, b), std::max(a, b)});
  }
  std::vector<Edge> forward;
  std::vector<Edge> backward;
  for (const auto& [lo, hi] : pairs) {
    const double w = static_cast<double>(1 + rng.NextUint64(weights));
    forward.push_back(Edge{lo, hi, w});
    backward.push_back(Edge{hi, lo, w});
  }
  rng.Shuffle(backward);
  auto lo_hi = Wpg::FromEdges(n, forward);
  auto hi_lo = Wpg::FromEdges(n, backward);
  if (!lo_hi.ok() || !hi_lo.ok()) return "FromEdges rejected the edge set";

  graph::WpgBuildParams params;
  params.delta = rng.NextDouble(0.05, 0.4);
  params.max_peers = 1 + static_cast<uint32_t>(rng.NextUint64(10));
  auto built = graph::BuildWpg(data::GenerateUniform(n, rng), params);
  if (!built.ok()) return "BuildWpg failed";

  const uint32_t k = 1 + static_cast<uint32_t>(rng.NextUint64(5));
  for (const auto& subset : RandomSubsets(rng, n)) {
    for (const Wpg* graph : {&lo_hi.value(), &hi_lo.value(), &built.value()}) {
      if (auto failure = CheckInducedSubset(*graph, subset, k)) {
        return *failure + " (k=" + std::to_string(k) +
               ", |subset|=" + std::to_string(subset.size()) + ")";
      }
    }
    const std::vector<VertexId> members = SortedDistinct(subset);
    const bool same_reference = SamePartition(
        ReferenceCentralizedKClustering(lo_hi.value(), members, k),
        ReferenceCentralizedKClustering(hi_lo.value(), members, k));
    const bool same_step3 =
        SamePartition(CentralizedKClustering(lo_hi.value(), subset, k),
                      CentralizedKClustering(hi_lo.value(), subset, k));
    if (!same_reference || !same_step3) {
      return "edge orientation changed a partition";
    }
  }
  return std::nullopt;
}

TEST(InducedSubgraphProptest, AdjacencyWalkMatchesFullScan) {
  util::PropSpec spec;
  spec.name = "InducedSubgraphProptest";
  spec.base_seed = 0x1d0ced5ab9a9b5ull;
  spec.iterations = 60;  // CI elevates via NELA_PROPTEST_ITERS
  spec.min_size = 1;
  spec.max_size = 40;
  auto failure = util::RunProperty(spec, InducedSubgraphsMatchFullScan);
  ASSERT_FALSE(failure.has_value()) << failure->message << "\n"
                                    << failure->repro;
}

// --------------------------------------------------------------- adapter

TEST(CentralizedClustererTest, FirstRequestClustersEveryone) {
  const Wpg graph = Fig6Graph();
  Registry registry(7);
  CentralizedTConnClusterer clusterer(graph, 2, &registry);
  auto outcome = clusterer.ClusterFor(0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome.value().reused);
  EXPECT_EQ(outcome.value().involved_users, 7u);  // all users submit
  EXPECT_EQ(registry.clustered_user_count(), 7u);
  EXPECT_EQ(registry.info(outcome.value().cluster_id).members,
            (std::vector<VertexId>{0, 1, 2}));
}

TEST(CentralizedClustererTest, SubsequentRequestsAreFree) {
  const Wpg graph = Fig6Graph();
  Registry registry(7);
  CentralizedTConnClusterer clusterer(graph, 2, &registry);
  ASSERT_TRUE(clusterer.ClusterFor(0).ok());
  for (VertexId host = 0; host < 7; ++host) {
    auto outcome = clusterer.ClusterFor(host);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome.value().reused);
    EXPECT_EQ(outcome.value().involved_users, 0u);
  }
}

TEST(CentralizedClustererTest, RejectsBadHost) {
  const Wpg graph = Fig6Graph();
  Registry registry(7);
  CentralizedTConnClusterer clusterer(graph, 2, &registry);
  EXPECT_FALSE(clusterer.ClusterFor(99).ok());
}

TEST(CentralizedClustererTest, NetworkAccounting) {
  const Wpg graph = Fig6Graph();
  Registry registry(7);
  net::Network network(7);
  CentralizedTConnClusterer clusterer(graph, 2, &registry, &network);
  ASSERT_TRUE(clusterer.ClusterFor(3).ok());
  EXPECT_EQ(network.total().messages, 7u);
  EXPECT_EQ(
      network.of_kind(net::MessageKind::kAdjacencyExchange).messages, 7u);
}

}  // namespace
}  // namespace nela::cluster
