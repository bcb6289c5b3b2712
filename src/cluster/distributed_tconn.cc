#include "cluster/distributed_tconn.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <unordered_map>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_set>

#include "cluster/centralized_tconn.h"
#include "graph/connectivity.h"

namespace nela::cluster {

namespace {

// Sentinel strictly above every real edge key.
graph::EdgeKey InfiniteKey() {
  return graph::EdgeKey{std::numeric_limits<double>::infinity(), 0, 0};
}

}  // namespace

DistributedTConnClusterer::DistributedTConnClusterer(const graph::Wpg& graph,
                                                     uint32_t k,
                                                     Registry* registry,
                                                     net::Network* network)
    : graph_(graph), k_(k), registry_(registry), network_(network) {
  NELA_CHECK(registry != nullptr);
  NELA_CHECK_EQ(registry->user_count(), graph.vertex_count());
  NELA_CHECK_GE(k, 1u);
}

util::Result<ClusteringOutcome> DistributedTConnClusterer::ClusterFor(
    graph::VertexId host, net::RequestScope* scope) {
  if (host >= graph_.vertex_count()) {
    return util::InvalidArgumentError("host vertex out of range");
  }
  if (registry_->IsClustered(host)) {
    return ClusteringOutcome{registry_->ClusterOf(host), 0, true};
  }
  auto proposal = Propose(host, registry_->ActiveMask(), scope);
  if (!proposal.ok()) return proposal.status();
  for (ClusterInfo& info : proposal.value().clusters) {
    auto registered = registry_->Register(std::move(info.members),
                                          info.connectivity, info.valid);
    if (!registered.ok()) return registered.status();
  }
  return ClusteringOutcome{registry_->ClusterOf(host),
                           proposal.value().involved_users, false,
                           proposal.value().members_lost};
}

util::Result<ClusterProposal> DistributedTConnClusterer::Propose(
    graph::VertexId host, std::vector<bool> usable,
    net::RequestScope* scope) {
  const uint32_t n = graph_.vertex_count();
  if (host >= n) {
    return util::InvalidArgumentError("host vertex out of range");
  }
  NELA_CHECK_EQ(usable.size(), n);
  if (!usable[host]) {
    return util::FailedPreconditionError("host " + std::to_string(host) +
                                         " is already clustered");
  }
  if (network_ != nullptr && !network_->IsAlive(host)) {
    return util::UnavailableError("host " + std::to_string(host) +
                                  " is offline");
  }
  trace_ = Trace{};
  ClusterProposal proposal;
  // Appends one cluster in registration order, members sorted as the
  // registry stores them.
  auto add_cluster = [&proposal](std::vector<graph::VertexId> members,
                                 double connectivity, bool valid) {
    std::sort(members.begin(), members.end());
    proposal.clusters.push_back(
        ClusterInfo{std::move(members), connectivity, valid, std::nullopt});
  };

  // `usable` -- the vertices this run may still use: unclustered (the
  // remaining WPG) minus anyone excluded after a failed adjacency exchange
  // or crash.
  std::vector<uint8_t> in_c(n, 0);
  std::vector<uint8_t> involved(n, 0);
  std::vector<uint8_t> exchanged(n, 0);
  auto mark_involved = [&](graph::VertexId v) {
    if (!involved[v]) {
      involved[v] = 1;
      ++proposal.involved_users;
    }
  };

  // The host pulls v's adjacency list, retransmitting lost exchanges.
  // Returns false when v churned out (crashed, or undeliverable within the
  // retry budget); v is then excluded from the rest of the run. A vertex
  // that answered -- or at least was contacted -- counts as involved.
  auto exchange = [&](graph::VertexId v) -> bool {
    if (!usable[v]) return false;
    if (v == host || network_ == nullptr || exchanged[v]) {
      mark_involved(v);
      return true;
    }
    net::Message message;
    message.from = v;
    message.to = host;
    message.kind = net::MessageKind::kAdjacencyExchange;
    message.bytes = 8ull * graph_.Degree(v);
    // The adjacency list reveals v's proximity ranks, which the clustering
    // phase is allowed to share; tagged so the audit observer can account
    // for it.
    message.payload.Add(net::FieldTag::kAdjacencyList, v,
                        static_cast<double>(graph_.Degree(v)));
    const net::SendOutcome sent = net::SendWithRetry(
        *network_, message, retry_policy_, retry_rng_, scope);
    if (sent.attempts > 0) mark_involved(v);
    if (sent.delivered) {
      exchanged[v] = 1;
      return true;
    }
    usable[v] = false;
    ++trace_.members_lost;
    return false;
  };

  // --- Step 1: grow the smallest valid t-connectivity cluster. Prim adds
  // vertices in order of bottleneck (minimax-key) distance from the host,
  // so the k-th accepted key is the smallest threshold whose class has at
  // least k members; the class itself is recovered by saturating.
  std::vector<graph::VertexId> c_members = {host};
  in_c[host] = 1;
  mark_involved(host);
  graph::EdgeKey t = graph::EdgeKey::Min();
  {
    using Item = std::pair<graph::EdgeKey, graph::VertexId>;
    auto greater = [](const Item& a, const Item& b) {
      return b.first < a.first ||
             (a.first == b.first && a.second > b.second);
    };
    std::priority_queue<Item, std::vector<Item>, decltype(greater)> heap(
        greater);
    auto push_neighbors = [&](graph::VertexId v) {
      for (const graph::HalfEdge& edge : graph_.Neighbors(v)) {
        if (usable[edge.to] && !in_c[edge.to]) {
          heap.push({KeyOf(v, edge), edge.to});
        }
      }
    };
    push_neighbors(host);
    while (c_members.size() < k_ && !heap.empty()) {
      const auto [key, v] = heap.top();
      heap.pop();
      if (in_c[v] || !usable[v]) continue;  // stale duplicate or churned out
      if (!exchange(v)) continue;           // lost mid-span: excluded
      in_c[v] = 1;
      c_members.push_back(v);
      if (t < key) t = key;
      push_neighbors(v);
    }
  }
  const bool reached_k = c_members.size() >= k_;

  // Saturates C to the full t-class over the usable vertices, re-pulling
  // adjacency from every newly included member; members lost during that
  // exchange shrink the usable set, so the span is recomputed until it is
  // churn-consistent (the usable set only shrinks -- this terminates).
  auto respan = [&](graph::EdgeKey threshold) -> bool {
    for (;;) {
      if (network_ != nullptr && !network_->IsAlive(host)) return false;
      for (graph::VertexId v : c_members) in_c[v] = 0;
      c_members = graph::ThresholdComponent(graph_, host, threshold, &usable);
      bool lost_member = false;
      for (graph::VertexId v : c_members) {
        if (!exchange(v)) lost_member = true;
      }
      if (!lost_member) break;
    }
    for (graph::VertexId v : c_members) in_c[v] = 1;
    return true;
  };
  const util::Status host_crashed = util::UnavailableError(
      "host " + std::to_string(host) + " crashed during clustering");

  if (reached_k && !respan(t)) return host_crashed;
  trace_.smallest_valid_cluster = c_members;
  std::sort(trace_.smallest_valid_cluster.begin(),
            trace_.smallest_valid_cluster.end());
  trace_.initial_t = t.weight;

  if (!reached_k) {
    // The host's entire remaining component (surviving churn) is smaller
    // than k: k-anonymity is unachievable. Propose the component as an
    // invalid cluster so the caller can see the degraded guarantee.
    add_cluster(std::move(c_members), t.weight, /*valid=*/false);
    trace_.candidate = trace_.smallest_valid_cluster;
    trace_.final_t = t.weight;
    proposal.members_lost = trace_.members_lost;
    return proposal;
  }

  // BFS over edges with key <= t restricted to usable, non-C vertices;
  // stops at `stop_size`. Every visited vertex exchanges adjacency with
  // the host; vertices that churn out are skipped and not counted.
  auto border_component_size = [&](graph::VertexId start, graph::EdgeKey t_cap,
                                   uint32_t stop_size) -> uint32_t {
    std::unordered_set<graph::VertexId> seen;
    std::deque<graph::VertexId> queue;
    seen.insert(start);
    queue.push_back(start);
    uint32_t size = 0;
    while (!queue.empty()) {
      const graph::VertexId u = queue.front();
      queue.pop_front();
      if (!exchange(u)) continue;  // churned out mid-check
      ++size;
      if (size >= stop_size) break;
      for (const graph::HalfEdge& edge : graph_.Neighbors(u)) {
        if (edge.weight > t_cap.weight) break;  // adjacency sorted by weight
        if (KeyOf(u, edge) > t_cap) continue;   // tie refinement
        if (!usable[edge.to] || in_c[edge.to]) continue;
        if (seen.insert(edge.to).second) queue.push_back(edge.to);
      }
    }
    return size;
  };

  // --- Step 2: border-vertex isolation checks (Theorem 4.4).
  if (isolation_check_enabled_) {
    std::deque<graph::VertexId> pending;
    std::vector<uint8_t> enqueued(n, 0);
    auto enqueue_border = [&]() {
      for (graph::VertexId v : c_members) {
        for (const graph::HalfEdge& edge : graph_.Neighbors(v)) {
          const graph::VertexId u = edge.to;
          if (usable[u] && !in_c[u] && !enqueued[u]) {
            enqueued[u] = 1;
            pending.push_back(u);
          }
        }
      }
    };
    enqueue_border();
    while (!pending.empty()) {
      const graph::VertexId v = pending.front();
      pending.pop_front();
      if (in_c[v] || !usable[v]) continue;  // absorbed, or churned out
      // Members of C may have crashed since the last re-span (crash events
      // fire on unrelated sends); evict them first so the isolation check
      // and the absorb threshold run against the surviving C.
      if (network_ != nullptr) {
        bool evicted = false;
        for (graph::VertexId c : c_members) {
          if (!network_->IsAlive(c) && usable[c]) {
            if (c == host) return host_crashed;
            usable[c] = false;
            ++trace_.members_lost;
            evicted = true;
          }
        }
        if (evicted) {
          if (!respan(t)) return host_crashed;
          enqueue_border();
          if (in_c[v]) continue;
        }
      }
      ++trace_.border_checks;
      const uint32_t size = border_component_size(v, t, k_);
      if (size >= k_) continue;  // passes now, passes forever (t only grows)
      if (!usable[v]) continue;  // v itself churned out during the check
      ++trace_.border_failures;
      // Absorb v: the new connectivity is the cheapest edge tying v to C
      // (all of them exceed the old t, otherwise saturation would have
      // included v already).
      graph::EdgeKey t_new = InfiniteKey();
      for (const graph::HalfEdge& edge : graph_.Neighbors(v)) {
        if (in_c[edge.to] && usable[edge.to]) {
          const graph::EdgeKey key = KeyOf(v, edge);
          if (key < t_new) t_new = key;
        }
      }
      // Churn can detach v from C entirely (every C-neighbor crashed); it
      // is then no longer a border vertex of C.
      if (t_new == InfiniteKey()) continue;
      NELA_CHECK(t < t_new);
      t = t_new;
      // Churn during the re-span can disconnect v after all (a member on
      // its only path crashed); isolation is then best-effort, which the
      // final churn re-validation below accounts for.
      if (!respan(t)) return host_crashed;
      enqueue_border();
    }
  }
  trace_.candidate = c_members;
  std::sort(trace_.candidate.begin(), trace_.candidate.end());
  trace_.final_t = t.weight;

  // Final churn re-validation: drop members that crashed after their
  // exchange, and if the surviving cluster fell below k, propose it as
  // invalid -- the caller sees the degraded guarantee instead of a
  // silently under-anonymous cluster.
  if (network_ != nullptr) {
    if (!network_->IsAlive(host)) return host_crashed;
    std::vector<graph::VertexId> survivors;
    survivors.reserve(c_members.size());
    for (graph::VertexId v : c_members) {
      if (network_->IsAlive(v)) {
        survivors.push_back(v);
      } else {
        usable[v] = false;
        ++trace_.members_lost;
      }
    }
    c_members.swap(survivors);
    if (c_members.size() < k_) {
      add_cluster(std::move(c_members), t.weight, /*valid=*/false);
      proposal.members_lost = trace_.members_lost;
      return proposal;
    }
  }

  // --- Step 3: all edge weights inside C are known to the host now; run
  // the centralized partition and propose every resulting cluster.
  // Production partitioner (Kruskal-freeze) restricted to C: filter the
  // global partition is not possible locally, so run it on the induced
  // subgraph by mapping C into a dense id space.
  Partition partition = PartitionSubset(c_members);
  for (size_t i = 0; i < partition.clusters.size(); ++i) {
    const bool valid = partition.clusters[i].size() >= k_;
    add_cluster(std::move(partition.clusters[i]), partition.connectivity[i],
                valid);
  }
  proposal.members_lost = trace_.members_lost;
  return proposal;
}

Partition DistributedTConnClusterer::PartitionSubset(
    std::vector<graph::VertexId> members) const {
  // Build the induced subgraph with dense local ids, run the production
  // centralized partitioner, and translate back. Sorting first makes the
  // local id order agree with the global order, so EdgeKey tie-breaking --
  // and therefore the partition -- matches what the centralized algorithm
  // would produce on the full graph restricted to this subset.
  std::sort(members.begin(), members.end());
  std::unordered_map<graph::VertexId, uint32_t> local;
  local.reserve(members.size());
  for (uint32_t i = 0; i < members.size(); ++i) local[members[i]] = i;
  graph::Wpg induced(static_cast<uint32_t>(members.size()));
  for (const graph::Edge& e :
       graph::InducedEdges(graph_, members)) {
    induced.AddEdge(local.at(e.u), local.at(e.v), e.weight);
  }
  induced.SortAdjacencyByWeight();
  Partition partition = CentralizedKClustering(induced, k_);
  for (auto& cluster : partition.clusters) {
    for (graph::VertexId& v : cluster) v = members[v];
    std::sort(cluster.begin(), cluster.end());
  }
  return partition;
}

}  // namespace nela::cluster
