// Distributed t-connectivity k-clustering (Algorithm 2).
//
// Runs at the host user against the *remaining WPG* (users not yet
// clustered), in three steps:
//
//  1. Span from the host through minimum-weight frontier edges until the
//     cluster reaches size k, then saturate to the full t-connectivity
//     class -- the smallest valid t-connectivity cluster C of the host.
//  2. Check every external border vertex v of C: if v cannot form its own
//     valid t-connectivity cluster in the remaining WPG without C, absorb v
//     (raising t to the cheapest (v, C) edge), re-span, and keep checking
//     newly exposed border vertices. Theorem 4.4: when every border vertex
//     passes, C is isolated -- removing it cannot change anyone else's
//     future cluster.
//  3. Partition C with the centralized algorithm and register every
//     resulting cluster, so later requests from any user of C are free.
//
// Propose() runs the three steps over a caller-supplied remaining-WPG mask
// and returns the clusters without registering them; ClusterFor() is the
// reuse check, Propose() over the registry's mask, then one Register per
// proposed cluster. The service driver's speculation proposes from a mask
// copied under the registry lock and commits the proposal itself, in its
// commit turnstile, only if the mask's version is still current.
//
// Fault tolerance: against a faulty network, every adjacency exchange is
// retransmitted with the configured backoff; a peer whose exchange cannot
// be delivered (crashed, or retry budget exhausted) is excluded from the
// run as churned out, the span is recomputed over the survivors, and the
// final cluster size is re-validated against k -- a shrunken cluster is
// registered invalid rather than silently under-anonymous. A crashed host
// fails the request with kUnavailable.

#ifndef NELA_CLUSTER_DISTRIBUTED_TCONN_H_
#define NELA_CLUSTER_DISTRIBUTED_TCONN_H_

#include <vector>

#include "cluster/centralized_tconn.h"
#include "cluster/clusterer.h"
#include "cluster/registry.h"
#include "graph/wpg.h"
#include "net/network.h"
#include "net/retry.h"
#include "util/rng.h"

namespace nela::cluster {

// What one run of Algorithm 2 would register, before any of it is.
struct ClusterProposal {
  // In registration order; members sorted ascending, region unset. The
  // host belongs to exactly one of them.
  std::vector<ClusterInfo> clusters;
  // As ClusteringOutcome::involved_users / members_lost.
  uint64_t involved_users = 0;
  uint32_t members_lost = 0;
};

class DistributedTConnClusterer : public Clusterer {
 public:
  // `registry` and (optional) `network` must outlive the clusterer.
  DistributedTConnClusterer(const graph::Wpg& graph, uint32_t k,
                            Registry* registry,
                            net::Network* network = nullptr);

  using Clusterer::ClusterFor;
  [[nodiscard]] util::Result<ClusteringOutcome> ClusterFor(
      graph::VertexId host, net::RequestScope* scope) override;
  // Steps 1-3 for `host` over `usable` (bit v true while v is unclustered,
  // e.g. Registry::ActiveMask()). Reads and writes no registry. Fails with
  // kFailedPrecondition when the host is clear of the mask (already
  // clustered) and with kUnavailable when the host is offline or crashes.
  [[nodiscard]] util::Result<ClusterProposal> Propose(
      graph::VertexId host, std::vector<bool> usable,
      net::RequestScope* scope);

  const char* name() const override { return "t-Conn"; }
  uint32_t k() const override { return k_; }

  // Configures loss recovery for adjacency exchanges. `jitter_rng` (may be
  // null, not owned) makes backoff jitter deterministic per seed.
  void SetRetryPolicy(const net::BackoffPolicy& policy,
                      util::Rng* jitter_rng) {
    retry_policy_ = policy;
    retry_rng_ = jitter_rng;
  }

  // Ablation hook: with the isolation check disabled the algorithm stops
  // after step 1 + partition, i.e. it behaves like a local clustering that
  // is *not* cluster-isolated (used by bench_ablation_isolation).
  void set_isolation_check_enabled(bool enabled) {
    isolation_check_enabled_ = enabled;
  }

  // Introspection of the most recent non-reused run, for tests that verify
  // the worked example of Fig. 7.
  struct Trace {
    std::vector<graph::VertexId> smallest_valid_cluster;  // C after step 1
    double initial_t = 0.0;
    uint32_t border_checks = 0;
    uint32_t border_failures = 0;
    std::vector<graph::VertexId> candidate;  // C after step 2
    double final_t = 0.0;
    // Fault-tolerance accounting of the run.
    uint32_t members_lost = 0;
  };
  const Trace& last_trace() const { return trace_; }

 private:
  // Step 3: the production centralized partition applied to the candidate
  // set (with global-order-consistent tie-breaking).
  Partition PartitionSubset(std::vector<graph::VertexId> members) const;

  const graph::Wpg& graph_;
  uint32_t k_;
  Registry* registry_;
  net::Network* network_;
  net::BackoffPolicy retry_policy_;
  util::Rng* retry_rng_ = nullptr;
  bool isolation_check_enabled_ = true;
  Trace trace_;
};

}  // namespace nela::cluster

#endif  // NELA_CLUSTER_DISTRIBUTED_TCONN_H_
