// Connectivity queries over (subsets of) a WPG.
//
// The distributed clustering algorithm works on the "remaining WPG": the
// graph minus already-clustered vertices. Rather than materializing
// subgraphs, these helpers take an `active` mask (nullptr = all vertices
// active).

#ifndef NELA_GRAPH_CONNECTIVITY_H_
#define NELA_GRAPH_CONNECTIVITY_H_

#include <cstdint>
#include <vector>

#include "graph/wpg.h"

namespace nela::graph {

// Vertices reachable from `start` via active vertices and edges with
// KeyOf(edge) <= `t` (the refined t-connectivity class of Definition 4.1;
// use EdgeKey::UpTo(w) for a plain scalar threshold). When `stop_size` > 0
// the search stops as soon as that many vertices are found (used by the
// "does v have a valid t-connectivity cluster" check, which only needs
// size >= k). Result is in BFS order, `start` first.
std::vector<VertexId> ThresholdComponent(const Wpg& graph, VertexId start,
                                         EdgeKey t,
                                         const std::vector<bool>* active,
                                         uint32_t stop_size = 0);

// Scalar-threshold convenience overload (admits every edge of weight <= t).
inline std::vector<VertexId> ThresholdComponent(
    const Wpg& graph, VertexId start, double t,
    const std::vector<bool>* active, uint32_t stop_size = 0) {
  return ThresholdComponent(graph, start, EdgeKey::UpTo(t), active,
                            stop_size);
}

// True when the subgraph induced by `vertices` is connected. An empty set
// is connected by convention.
bool IsInducedConnected(const Wpg& graph, const std::vector<VertexId>& vertices);

// Connected components of the subgraph induced by `vertices`, each sorted
// ascending; component order follows the smallest contained vertex.
std::vector<std::vector<VertexId>> InducedComponents(
    const Wpg& graph, const std::vector<VertexId>& vertices);

// Edges of the subgraph induced by `vertices` (any order; duplicates are
// ignored). Walks each member's adjacency once, taking every edge from its
// smaller endpoint, with a binary search in the sorted members per
// half-edge: O(sum of member degrees x log |vertices|), whatever the size
// of the whole graph. Each edge appears once, as Edge{u, v, weight} with
// u < v -- the orientation BuildWpg stores; a FromEdges graph may store
// (v, u) -- ordered by u ascending and then by u's adjacency order. That is
// not edges() order: a caller that needs an order sorts by KeyOf.
std::vector<Edge> InducedEdges(const Wpg& graph,
                               const std::vector<VertexId>& vertices);

// InducedEdges over `members`, which must be sorted ascending and
// distinct, with every endpoint given as its position in `members`. These
// local ids order like the vertex ids they stand for, so KeyOf ranks the
// local edges exactly as it ranks their originals.
std::vector<Edge> InducedLocalEdges(const Wpg& graph,
                                    const std::vector<VertexId>& members);

}  // namespace nela::graph

#endif  // NELA_GRAPH_CONNECTIVITY_H_
