#include "cluster/centralized_tconn.h"

#include <algorithm>
#include <unordered_map>

#include "graph/connectivity.h"
#include "graph/union_find.h"

namespace nela::cluster {

namespace {

// Recursively splits one cluster along its internal MST; emits results.
// `edges` must be exactly the induced edges of `members`.
void RefineCluster(std::vector<graph::VertexId> members,
                   std::vector<graph::Edge> edges, uint32_t k,
                   Partition* out) {
  if (members.size() < 2) {
    out->clusters.push_back(std::move(members));
    out->connectivity.push_back(0.0);
    return;
  }
  // MST of the induced subgraph under the strict total order.
  std::sort(edges.begin(), edges.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              return KeyOf(a) < KeyOf(b);
            });
  std::unordered_map<graph::VertexId, uint32_t> index;
  index.reserve(members.size());
  for (uint32_t i = 0; i < members.size(); ++i) index[members[i]] = i;

  graph::UnionFind dsu(static_cast<uint32_t>(members.size()));
  std::vector<graph::Edge> mst;
  mst.reserve(members.size() - 1);
  double connectivity = 0.0;
  for (const graph::Edge& e : edges) {
    if (dsu.Union(index.at(e.u), index.at(e.v))) {
      mst.push_back(e);
      connectivity = e.weight;
    }
  }
  NELA_CHECK_EQ(mst.size(), members.size() - 1);  // input is connected

  if (members.size() >= 2ull * k) {
    // Subtree sizes of the MST rooted at local vertex 0.
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> tree(
        members.size());  // (neighbor, mst edge index)
    for (uint32_t m = 0; m < mst.size(); ++m) {
      const uint32_t a = index.at(mst[m].u);
      const uint32_t b = index.at(mst[m].v);
      tree[a].push_back({b, m});
      tree[b].push_back({a, m});
    }
    std::vector<int32_t> parent(members.size(), -1);
    std::vector<uint32_t> dfs_order;
    dfs_order.reserve(members.size());
    std::vector<uint32_t> stack = {0};
    std::vector<uint8_t> seen(members.size(), 0);
    seen[0] = 1;
    while (!stack.empty()) {
      const uint32_t v = stack.back();
      stack.pop_back();
      dfs_order.push_back(v);
      for (const auto& [to, m] : tree[v]) {
        if (!seen[to]) {
          seen[to] = 1;
          parent[to] = static_cast<int32_t>(v);
          stack.push_back(to);
        }
      }
    }
    std::vector<uint32_t> subtree(members.size(), 1);
    for (auto it = dfs_order.rbegin(); it != dfs_order.rend(); ++it) {
      if (parent[*it] >= 0) subtree[parent[*it]] += subtree[*it];
    }

    // Heaviest MST edge whose removal keeps both sides valid.
    for (auto it = mst.rbegin(); it != mst.rend(); ++it) {
      const uint32_t a = index.at(it->u);
      const uint32_t b = index.at(it->v);
      const uint32_t child =
          parent[a] == static_cast<int32_t>(b) ? a : b;
      const uint32_t below = subtree[child];
      const uint32_t above =
          static_cast<uint32_t>(members.size()) - below;
      if (below < k || above < k) continue;
      // Split: vertices in `child`'s subtree vs the rest.
      std::vector<uint8_t> in_below(members.size(), 0);
      std::vector<uint32_t> walk = {child};
      in_below[child] = 1;
      while (!walk.empty()) {
        const uint32_t v = walk.back();
        walk.pop_back();
        for (const auto& [to, m] : tree[v]) {
          if (parent[to] == static_cast<int32_t>(v) && !in_below[to]) {
            in_below[to] = 1;
            walk.push_back(to);
          }
        }
      }
      std::vector<graph::VertexId> side_a;
      std::vector<graph::VertexId> side_b;
      for (uint32_t i = 0; i < members.size(); ++i) {
        (in_below[i] ? side_a : side_b).push_back(members[i]);
      }
      std::vector<graph::Edge> edges_a;
      std::vector<graph::Edge> edges_b;
      for (const graph::Edge& e : edges) {
        const bool u_below = in_below[index.at(e.u)];
        const bool v_below = in_below[index.at(e.v)];
        if (u_below && v_below) {
          edges_a.push_back(e);
        } else if (!u_below && !v_below) {
          edges_b.push_back(e);
        }
        // Crossing edges (the cut) vanish from both sides.
      }
      RefineCluster(std::move(side_a), std::move(edges_a), k, out);
      RefineCluster(std::move(side_b), std::move(edges_b), k, out);
      return;
    }
  }
  std::sort(members.begin(), members.end());
  out->clusters.push_back(std::move(members));
  out->connectivity.push_back(connectivity);
}

// The refinement post-pass over `edges`, which must hold every edge inside
// each cluster of `partition` (any order or orientation; other edges are
// ignored).
Partition RefineOverEdges(const std::vector<graph::Edge>& edges,
                          Partition partition, uint32_t k) {
  // Bucket each intra-cluster edge of an oversized cluster in one pass over
  // the edge list (re-scanning all edges per cluster is quadratic in
  // practice on large graphs).
  std::unordered_map<graph::VertexId, uint32_t> cluster_of;
  for (size_t i = 0; i < partition.clusters.size(); ++i) {
    if (partition.clusters[i].size() < 2ull * k) continue;
    for (graph::VertexId v : partition.clusters[i]) {
      cluster_of.emplace(v, static_cast<uint32_t>(i));
    }
  }
  std::unordered_map<uint32_t, std::vector<graph::Edge>> edges_of;
  for (const graph::Edge& e : edges) {
    auto u_it = cluster_of.find(e.u);
    if (u_it == cluster_of.end()) continue;
    auto v_it = cluster_of.find(e.v);
    if (v_it == cluster_of.end() || u_it->second != v_it->second) continue;
    edges_of[u_it->second].push_back(e);
  }

  Partition out;
  for (size_t i = 0; i < partition.clusters.size(); ++i) {
    if (partition.clusters[i].size() < 2ull * k) {
      out.clusters.push_back(std::move(partition.clusters[i]));
      out.connectivity.push_back(partition.connectivity[i]);
      continue;
    }
    RefineCluster(std::move(partition.clusters[i]),
                  std::move(edges_of[static_cast<uint32_t>(i)]), k, &out);
  }
  return out;
}

// Algorithm 1 over the vertices [0, vertex_count) and `edges` (any order or
// orientation): the single implementation behind both public overloads.
Partition KClusteringOverEdges(uint32_t vertex_count,
                               const std::vector<graph::Edge>& edges,
                               uint32_t k) {
  NELA_CHECK_GE(k, 1u);
  std::vector<uint32_t> order(edges.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&edges](uint32_t a, uint32_t b) {
    return KeyOf(edges[a]) < KeyOf(edges[b]);
  });

  graph::UnionFind dsu(vertex_count);
  // Connectivity (weight of the latest merge) per current DSU root.
  std::vector<double> connectivity(vertex_count, 0.0);
  for (uint32_t index : order) {
    const graph::Edge& e = edges[index];
    const uint32_t ru = dsu.Find(e.u);
    const uint32_t rv = dsu.Find(e.v);
    if (ru == rv) continue;
    // Freeze rule: once both sides are valid clusters on their own,
    // merging them could only grow the MEW -- keep them apart.
    if (dsu.SizeOf(ru) >= k && dsu.SizeOf(rv) >= k) continue;
    dsu.Union(ru, rv);
    connectivity[dsu.Find(e.u)] = e.weight;
  }

  std::unordered_map<uint32_t, uint32_t> cluster_of_root;
  Partition out;
  for (uint32_t v = 0; v < vertex_count; ++v) {
    const uint32_t root = dsu.Find(v);
    auto [it, inserted] = cluster_of_root.try_emplace(
        root, static_cast<uint32_t>(out.clusters.size()));
    if (inserted) {
      out.clusters.emplace_back();
      out.connectivity.push_back(connectivity[root]);
    }
    out.clusters[it->second].push_back(v);
  }
  return RefineOverEdges(edges, std::move(out), k);
}

}  // namespace

Partition CentralizedKClustering(const graph::Wpg& graph, uint32_t k) {
  return KClusteringOverEdges(graph.vertex_count(), graph.edges(), k);
}

Partition CentralizedKClustering(const graph::Wpg& graph,
                                 std::vector<graph::VertexId> subset,
                                 uint32_t k) {
  // Local ids are positions in the sorted subset. They order like the
  // global ids, so EdgeKey tie-breaking -- and with it the partition -- is
  // what the whole-graph algorithm gives on the induced subgraph, and the
  // translated clusters stay sorted.
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
  Partition partition =
      KClusteringOverEdges(static_cast<uint32_t>(subset.size()),
                           graph::InducedLocalEdges(graph, subset), k);
  for (auto& cluster : partition.clusters) {
    for (graph::VertexId& v : cluster) v = subset[v];
  }
  return partition;
}

Partition RefinePartition(const graph::Wpg& graph, Partition partition,
                          uint32_t k) {
  return RefineOverEdges(graph.edges(), std::move(partition), k);
}

Partition ReferenceCentralizedKClustering(
    const graph::Wpg& graph, const std::vector<graph::VertexId>& subset,
    uint32_t k) {
  NELA_CHECK_GE(k, 1u);
  // Naive freeze semantics: repeatedly merge across the globally smallest
  // eligible edge (one whose sides are distinct components and at least
  // one side is still smaller than k). Independent of the DSU fast path.
  std::vector<graph::Edge> edges = graph::InducedEdges(graph, subset);
  std::sort(edges.begin(), edges.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              return KeyOf(a) < KeyOf(b);
            });
  std::unordered_map<graph::VertexId, uint32_t> comp_of;
  std::vector<std::vector<graph::VertexId>> comps;
  std::vector<double> conn;
  for (graph::VertexId v : subset) {
    comp_of[v] = static_cast<uint32_t>(comps.size());
    comps.push_back({v});
    conn.push_back(0.0);
  }
  bool merged = true;
  while (merged) {
    merged = false;
    for (const graph::Edge& e : edges) {
      const uint32_t a = comp_of.at(e.u);
      const uint32_t b = comp_of.at(e.v);
      if (a == b) continue;
      if (comps[a].size() >= k && comps[b].size() >= k) continue;
      // Merge b into a.
      for (graph::VertexId v : comps[b]) {
        comp_of[v] = a;
        comps[a].push_back(v);
      }
      comps[b].clear();
      conn[a] = e.weight;
      merged = true;
      break;  // restart the scan from the smallest edge
    }
  }
  Partition out;
  for (uint32_t c = 0; c < comps.size(); ++c) {
    if (comps[c].empty()) continue;
    std::sort(comps[c].begin(), comps[c].end());
    out.clusters.push_back(std::move(comps[c]));
    out.connectivity.push_back(conn[c]);
  }
  return RefineOverEdges(edges, std::move(out), k);
}

namespace {

// Recursive step of the literal pseudocode: `component` is connected in
// the subgraph induced by the original subset. Removes edges one at a time
// in descending key order until the component disconnects; recurses when
// both sides are valid.
void PartitionConnected(const graph::Wpg& graph,
                        std::vector<graph::VertexId> component, uint32_t k,
                        Partition* out) {
  if (component.size() == 1) {
    out->clusters.push_back(std::move(component));
    out->connectivity.push_back(0.0);
    return;
  }

  std::vector<graph::Edge> edges = graph::InducedEdges(graph, component);
  NELA_CHECK(!edges.empty());  // connected with >= 2 vertices
  std::sort(edges.begin(), edges.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              return KeyOf(b) < KeyOf(a);  // descending
            });

  std::unordered_map<graph::VertexId, uint32_t> index;
  index.reserve(component.size());
  for (uint32_t i = 0; i < component.size(); ++i) index[component[i]] = i;

  // Pop edges from the descending queue until the component disconnects.
  for (size_t removed = 1; removed <= edges.size(); ++removed) {
    graph::UnionFind dsu(static_cast<uint32_t>(component.size()));
    for (size_t j = removed; j < edges.size(); ++j) {
      dsu.Union(index.at(edges[j].u), index.at(edges[j].v));
    }
    if (dsu.set_count() == 1) continue;  // still connected; keep removing
    NELA_CHECK_EQ(dsu.set_count(), 2u);  // single-edge removal: two sides
    std::unordered_map<uint32_t, std::vector<graph::VertexId>> groups;
    for (uint32_t i = 0; i < component.size(); ++i) {
      groups[dsu.Find(i)].push_back(component[i]);
    }
    std::vector<std::vector<graph::VertexId>> parts;
    for (auto& [root, members] : groups) parts.push_back(std::move(members));
    const bool all_valid = parts[0].size() >= k && parts[1].size() >= k;
    if (!all_valid) {
      // A further partition would create an invalid cluster: stop.
      out->clusters.push_back(std::move(component));
      out->connectivity.push_back(edges[removed - 1].weight);
      return;
    }
    std::sort(parts.begin(), parts.end(), [](const auto& a, const auto& b) {
      return a.front() < b.front();
    });
    for (auto& part : parts) {
      PartitionConnected(graph, std::move(part), k, out);
    }
    return;
  }
  NELA_CHECK(false);  // a connected component always disconnects eventually
}

}  // namespace

Partition LiteralFirstDisconnectKClustering(
    const graph::Wpg& graph, const std::vector<graph::VertexId>& subset,
    uint32_t k) {
  NELA_CHECK_GE(k, 1u);
  Partition out;
  for (auto& component : graph::InducedComponents(graph, subset)) {
    PartitionConnected(graph, std::move(component), k, &out);
  }
  return out;
}

CentralizedTConnClusterer::CentralizedTConnClusterer(const graph::Wpg& graph,
                                                     uint32_t k,
                                                     Registry* registry,
                                                     net::Network* network)
    : graph_(graph), k_(k), registry_(registry), network_(network) {
  NELA_CHECK(registry != nullptr);
  NELA_CHECK_EQ(registry->user_count(), graph.vertex_count());
  NELA_CHECK_GE(k, 1u);
}

util::Result<ClusteringOutcome> CentralizedTConnClusterer::ClusterFor(
    graph::VertexId host, net::RequestScope* scope) {
  if (host >= graph_.vertex_count()) {
    return util::InvalidArgumentError("host vertex out of range");
  }
  if (registry_->IsClustered(host)) {
    return ClusteringOutcome{registry_->ClusterOf(host), 0, true};
  }
  // First cloaking request: the anonymizer has everyone's proximity
  // information (each of the |D| users submits one adjacency message) and
  // clusters the entire WPG at once.
  NELA_CHECK(!partitioned_);
  Partition partition = CentralizedKClustering(graph_, k_);
  for (size_t i = 0; i < partition.clusters.size(); ++i) {
    const bool valid = partition.clusters[i].size() >= k_;
    auto registered = registry_->Register(std::move(partition.clusters[i]),
                                          partition.connectivity[i], valid);
    if (!registered.ok()) return registered.status();
  }
  partitioned_ = true;
  const uint64_t involved = graph_.vertex_count();
  if (network_ != nullptr) {
    for (graph::VertexId v = 0; v < graph_.vertex_count(); ++v) {
      // Payload: the adjacency list (8 bytes per entry, id + weight packed).
      net::Message message;
      message.from = v;
      message.to = host;
      message.kind = net::MessageKind::kAdjacencyExchange;
      message.bytes = 8ull * graph_.Degree(v);
      message.payload.Add(net::FieldTag::kAdjacencyList, v,
                          static_cast<double>(graph_.Degree(v)));
      network_->Send(message, scope);
    }
  }
  return ClusteringOutcome{registry_->ClusterOf(host), involved, false};
}

}  // namespace nela::cluster
