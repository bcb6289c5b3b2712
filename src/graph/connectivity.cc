#include "graph/connectivity.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_set>

namespace nela::graph {

std::vector<VertexId> ThresholdComponent(const Wpg& graph, VertexId start,
                                         EdgeKey t,
                                         const std::vector<bool>* active,
                                         uint32_t stop_size) {
  NELA_CHECK_LT(start, graph.vertex_count());
  if (active != nullptr) {
    NELA_CHECK_EQ(active->size(), graph.vertex_count());
    NELA_CHECK((*active)[start]);
  }
  std::vector<VertexId> component;
  std::unordered_set<VertexId> seen;
  std::deque<VertexId> queue;
  seen.insert(start);
  queue.push_back(start);
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    component.push_back(u);
    if (stop_size > 0 && component.size() >= stop_size) break;
    for (const HalfEdge& edge : graph.Neighbors(u)) {
      if (edge.weight > t.weight) break;  // adjacency sorted by weight
      if (KeyOf(u, edge) > t) continue;   // tie refinement
      if (active != nullptr && !(*active)[edge.to]) continue;
      if (seen.insert(edge.to).second) queue.push_back(edge.to);
    }
  }
  return component;
}

bool IsInducedConnected(const Wpg& graph,
                        const std::vector<VertexId>& vertices) {
  if (vertices.empty()) return true;
  const auto components = InducedComponents(graph, vertices);
  return components.size() == 1;
}

std::vector<std::vector<VertexId>> InducedComponents(
    const Wpg& graph, const std::vector<VertexId>& vertices) {
  std::unordered_set<VertexId> in_set(vertices.begin(), vertices.end());
  std::unordered_set<VertexId> seen;
  std::vector<std::vector<VertexId>> components;
  // Iterate over a sorted copy so the component order is deterministic.
  std::vector<VertexId> ordered(vertices);
  std::sort(ordered.begin(), ordered.end());
  for (VertexId root : ordered) {
    if (seen.count(root) > 0) continue;
    std::vector<VertexId> component;
    std::deque<VertexId> queue = {root};
    seen.insert(root);
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      component.push_back(u);
      for (const HalfEdge& edge : graph.Neighbors(u)) {
        if (in_set.count(edge.to) == 0) continue;
        if (seen.insert(edge.to).second) queue.push_back(edge.to);
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

std::vector<Edge> InducedEdges(const Wpg& graph,
                               const std::vector<VertexId>& vertices) {
  std::vector<VertexId> members(vertices);
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  std::vector<Edge> edges = InducedLocalEdges(graph, members);
  for (Edge& e : edges) {
    e.u = members[e.u];
    e.v = members[e.v];
  }
  return edges;
}

std::vector<Edge> InducedLocalEdges(const Wpg& graph,
                                    const std::vector<VertexId>& members) {
  NELA_CHECK(std::adjacent_find(members.begin(), members.end(),
                                std::greater_equal<VertexId>()) ==
             members.end());
  std::vector<Edge> out;
  for (uint32_t i = 0; i < members.size(); ++i) {
    const VertexId u = members[i];
    for (const HalfEdge& half : graph.Neighbors(u)) {
      if (half.to <= u) continue;  // taken from its smaller endpoint
      const auto it =
          std::lower_bound(members.begin(), members.end(), half.to);
      if (it == members.end() || *it != half.to) continue;
      out.push_back(
          Edge{i, static_cast<VertexId>(it - members.begin()), half.weight});
    }
  }
  return out;
}

}  // namespace nela::graph
