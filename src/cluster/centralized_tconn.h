// Centralized t-connectivity k-clustering (Algorithm 1).
//
// Partitions a WPG into the *smallest valid t-connectivity clusters*:
// recursively split each cluster by removing its heaviest edges until any
// further split would create a cluster smaller than k. Edges are ordered by
// the strict total order graph::EdgeKey: the paper's pseudocode pops one
// edge at a time from a sort, which leaves tie order implementation-
// defined, and the experiments' RSS-rank weights are full of ties -- an
// unrefined (batch) tie treatment produces giant unsplittable clusters.
//
// Three implementations:
//  * CentralizedKClustering -- production path, O(E log E): Kruskal over
//    ascending edge keys that "freezes" a merge when both sides already
//    have >= k members. Bottom-up growth of t-connectivity classes that
//    stops exactly when a class is valid and so is every neighbor that
//    could still claim it -- the constructive reading of "partition until
//    a further partition would be invalid". One implementation, over a
//    vertex count and an edge list, serves both entry points: the whole
//    graph hands it graph.edges() by reference, and a subset (step 3 of
//    Algorithm 2) hands it the subset's induced edges in local ids, read
//    from the members' adjacency without building a subgraph.
//  * ReferenceCentralizedKClustering -- same semantics, independently
//    coded as a naive repeated minimum-eligible-edge scan; the oracle for
//    the equivalence property tests.
//  * LiteralFirstDisconnectKClustering -- verbatim transcription of the
//    paper's top-down pseudocode (remove edges in descending order until
//    the first disconnection; recurse only if both sides are valid). It
//    agrees with the other two on the paper's worked example (Fig. 6), but
//    on realistic WPGs its first disconnection usually carves off a single
//    min-degree vertex, the split is invalid, and the whole component is
//    returned as one giant cluster. We keep it for study and document this
//    degeneracy in EXPERIMENTS.md; it must not be used in production.

#ifndef NELA_CLUSTER_CENTRALIZED_TCONN_H_
#define NELA_CLUSTER_CENTRALIZED_TCONN_H_

#include <vector>

#include "cluster/clusterer.h"
#include "cluster/registry.h"
#include "graph/wpg.h"
#include "net/network.h"

namespace nela::cluster {

struct Partition {
  // Disjoint vertex sets covering the input, each sorted ascending.
  std::vector<std::vector<graph::VertexId>> clusters;
  // connectivity[i]: smallest t for which clusters[i] is one t-connectivity
  // class (its MST bottleneck weight; 0 for singletons).
  std::vector<double> connectivity;
};

// Partitions the whole graph. Clusters smaller than k appear only where an
// entire connected component is smaller than k. Includes the MST
// refinement post-pass (below).
Partition CentralizedKClustering(const graph::Wpg& graph, uint32_t k);

// The same partition of the subgraph induced by `subset` (any order;
// duplicates ignored), in global ids: the host's step 3 of Algorithm 2.
// Costs O(sum of member degrees x log |subset| + E_C log E_C) for the E_C
// induced edges, independent of the size of the whole graph.
Partition CentralizedKClustering(const graph::Wpg& graph,
                                 std::vector<graph::VertexId> subset,
                                 uint32_t k);

// Post-pass shared by the implementations: any cluster with >= 2k members
// is split further by cutting its heaviest internal MST edges (in the
// strict total order) as long as both sides keep >= k members, recursively.
// Freezing alone can chain-absorb many sub-k pieces into one long cluster;
// the refinement cuts such chains back toward k-sized, minimum-MEW groups
// without ever violating validity. Deterministic, and a function of each
// cluster's induced subgraph only (so it preserves cluster isolation).
Partition RefinePartition(const graph::Wpg& graph, Partition partition,
                          uint32_t k);

// Same semantics restricted to the subgraph induced by `subset`,
// independently implemented (naive scan) as a test oracle for both
// CentralizedKClustering overloads.
Partition ReferenceCentralizedKClustering(
    const graph::Wpg& graph, const std::vector<graph::VertexId>& subset,
    uint32_t k);

// Verbatim Algorithm 1 pseudocode (first-disconnect recursion) over the
// subgraph induced by `subset`. See the file comment for why this is kept
// for study only.
Partition LiteralFirstDisconnectKClustering(
    const graph::Wpg& graph, const std::vector<graph::VertexId>& subset,
    uint32_t k);

// Clusterer adapter modeling the anonymizer deployment (path ¬ in Fig. 3):
// the first request makes every user submit its proximity information to the
// anonymizer (communication cost |D|), which then clusters the entire WPG;
// all later requests are answered from the registry for free.
class CentralizedTConnClusterer : public Clusterer {
 public:
  // `registry` must be empty and outlive the clusterer; `network` is
  // optional (message/byte accounting of the submission flood).
  CentralizedTConnClusterer(const graph::Wpg& graph, uint32_t k,
                            Registry* registry,
                            net::Network* network = nullptr);

  using Clusterer::ClusterFor;
  [[nodiscard]] util::Result<ClusteringOutcome> ClusterFor(
      graph::VertexId host, net::RequestScope* scope) override;
  const char* name() const override { return "centralized t-Conn"; }
  uint32_t k() const override { return k_; }

 private:
  const graph::Wpg& graph_;
  uint32_t k_;
  Registry* registry_;
  net::Network* network_;
  bool partitioned_ = false;
};

}  // namespace nela::cluster

#endif  // NELA_CLUSTER_CENTRALIZED_TCONN_H_
