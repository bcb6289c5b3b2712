// The five concrete stages of the cloaking pipeline (see pipeline.h).
//
// Stages are thin, stateless adapters over the subsystems they drive; they
// are cheap to construct per request, and both CloakingEngine and
// sim::ShardedServiceDriver assemble their pipelines from these same
// classes so a request is invoked, traced, and degraded identically in
// either driver.

#ifndef NELA_CORE_STAGES_H_
#define NELA_CORE_STAGES_H_

#include <cstdint>

#include "cluster/clusterer.h"
#include "cluster/registry.h"
#include "core/pipeline.h"
#include "core/policy_factory.h"
#include "data/dataset.h"
#include "net/network.h"
#include "net/retry.h"
#include "util/rng.h"

namespace nela::core {

// Step (1) of Fig. 3: a reciprocity-preserving clusterer answers a
// previously clustered host straight from the registry -- with its shared
// region if phase 2 already ran (request done), or cluster-only if not.
// Deliberately inert for non-reciprocal clusterers (the kNN baseline must
// keep forming fresh clusters; masking that would hide exactly the
// reciprocity violation the paper criticizes).
class ResolveReuseStage : public Stage {
 public:
  ResolveReuseStage(cluster::Clusterer* clusterer,
                    cluster::Registry* registry)
      : clusterer_(clusterer), registry_(registry) {}

  const char* name() const override { return "resolve_reuse"; }
  [[nodiscard]] util::Status Run(RequestContext& ctx, PipelineState& state,
                   StageRecord& record) override;

 private:
  cluster::Clusterer* clusterer_;
  cluster::Registry* registry_;
};

// Phase 1: runs the configured clusterer for the host (no-op when
// ResolveReuse already located the cluster) and re-serves an existing
// shared region should the cluster already have one.
class ClusterStage : public Stage {
 public:
  ClusterStage(cluster::Clusterer* clusterer, cluster::Registry* registry)
      : clusterer_(clusterer), registry_(registry) {}

  const char* name() const override { return "cluster"; }
  [[nodiscard]] util::Status Run(RequestContext& ctx, PipelineState& state,
                   StageRecord& record) override;

 private:
  cluster::Clusterer* clusterer_;
  cluster::Registry* registry_;
};

// Records the committed cluster: its size and, once the service runs
// sharded, the host's home shard, the cluster's owner shard, and whether
// the members cross shards. The commit itself happens before this stage --
// in ClusterStage for the engine, in the service driver's commit turnstile
// for concurrent requests -- so the stage decides nothing and never waits.
// The name predates the removal of per-user claims; the end-to-end
// benchmark keys its per-stage timing on it.
class ClaimCommitStage : public Stage {
 public:
  const char* name() const override { return "claim_commit"; }
  [[nodiscard]] util::Status Run(RequestContext& ctx, PipelineState& state,
                   StageRecord& record) override;
};

// Phase 2: secure progressive bounding over the members' private
// coordinates, with the engine's degradation semantics (liveness filter,
// below-k degrade, phase retries over survivors, deadline budget). Leaves
// the computed box in state.outcome/.bounded without publishing it.
class SecureBoundStage : public Stage {
 public:
  struct Config {
    const data::Dataset* dataset = nullptr;
    const PolicyFactory* policy_factory = nullptr;
    BoundingMode mode = BoundingMode::kSecureProtocol;
    net::Network* network = nullptr;
    net::BackoffPolicy retry;
    // Backoff jitter source; null disables jitter.
    util::Rng* jitter_rng = nullptr;
    // When set, jitter draws from ctx.rng() (the request's private
    // sub-stream) instead of jitter_rng -- the deterministic-batch mode.
    bool jitter_from_context = false;
    uint32_t max_phase_retries = 3;
  };

  explicit SecureBoundStage(const Config& config) : config_(config) {}

  const char* name() const override { return "secure_bound"; }
  [[nodiscard]] util::Status Run(RequestContext& ctx, PipelineState& state,
                   StageRecord& record) override;

  // The bounded region of the last successful run (consumed by Publish).
  const bounding::RegionBoundingResult& bounded() const { return bounded_; }

 private:
  Config config_;
  bounding::RegionBoundingResult bounded_;
};

// Route for the region write performed by PublishStage. The engine and a
// non-durable service run write straight into the registry; a durable
// service run interposes its write-ahead log here (durability must not leak
// into core, so the indirection lives on this side of the boundary).
class RegionWriter {
 public:
  virtual ~RegionWriter() = default;
  [[nodiscard]] virtual util::Status WriteRegion(cluster::ClusterId id,
                                                 const geo::Rect& region) = 0;
};

// Publishes the bounded region as the cluster's shared region in the
// registry -- the only stage that writes a region anywhere. With a network
// configured, the host additionally notifies every other member of the
// published region (kClusterAssignment, region edges tagged public):
// fire-and-forget, since a member that misses the notification re-reads the
// registry on its own request and the region itself is public knowledge.
class PublishStage : public Stage {
 public:
  PublishStage(cluster::Registry* registry, const SecureBoundStage* bound,
               net::Network* network = nullptr,
               RegionWriter* region_writer = nullptr)
      : registry_(registry), bound_(bound), network_(network),
        region_writer_(region_writer) {}

  const char* name() const override { return "publish"; }
  [[nodiscard]] util::Status Run(RequestContext& ctx, PipelineState& state,
                   StageRecord& record) override;

 private:
  cluster::Registry* registry_;
  const SecureBoundStage* bound_;
  net::Network* network_;
  RegionWriter* region_writer_;
};

}  // namespace nela::core

#endif  // NELA_CORE_STAGES_H_
