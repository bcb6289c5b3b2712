// The staged cloaking pipeline: one request = one ordered walk through
//
//   ResolveReuse -> Cluster -> ClaimCommit -> SecureBound -> Publish
//
// Each stage implements the small core::Stage interface, so the clusterer,
// the commit record, the secure bounding protocol, and the registry
// publish are invoked, traced, and degraded uniformly: RunPipeline appends
// one StageRecord per stage to the outcome's DegradationReport and one
// deterministic TraceEvent per stage to the request's trace sink, instead
// of each phase poking report fields ad hoc.
//
// Degradation contract: a stage that completes or degrades the request
// (reused region, cluster below k, retry budget exhausted) sets
// `state.done` and returns Ok -- the remaining stages are recorded as
// skipped and the caller still receives a CloakingOutcome. Only hard
// request errors (invalid host, host offline) return a non-ok Status,
// which aborts the pipeline.

#ifndef NELA_CORE_PIPELINE_H_
#define NELA_CORE_PIPELINE_H_

#include <vector>

#include "bounding/protocol.h"
#include "cluster/registry.h"
#include "core/cloaking_engine.h"
#include "core/request_context.h"
#include "data/dataset.h"
#include "util/status.h"

namespace nela::core {

// Shard placement facts for one request, resolved by the sharded service
// router before the pipeline runs. Single-shard drivers keep the defaults,
// and stages only surface these facts when shard_count > 1, so a K=1 run's
// traces stay byte-identical with an unsharded run's.
struct ShardContext {
  uint32_t shard_count = 1;
  uint32_t home_shard = 0;   // shard owning the host's location
  uint32_t owner_shard = 0;  // shard owning the resulting cluster
  bool cross_shard = false;  // cluster members span more than one shard
};

// Mutable state shared by the stages of one request.
struct PipelineState {
  data::UserId host = 0;
  // Anonymity requirement the cluster is validated against.
  uint32_t k = 0;
  CloakingOutcome outcome;
  // The host's cluster once one exists. Points into the registry's stable
  // (deque-backed) storage; membership never mutates after Register.
  const cluster::ClusterInfo* cluster_info = nullptr;
  // Shard placement of this request; defaults mean "unsharded".
  ShardContext shard;
  // Set by a stage that finished (or degraded) the request early; the
  // remaining stages are skipped and recorded as ran = false.
  bool done = false;
};

class Stage {
 public:
  virtual ~Stage() = default;

  // Stable stage identifier ("resolve_reuse", "cluster", ...): the first
  // token of the stage's trace line and StageRecord.
  virtual const char* name() const = 0;

  // Runs the stage against `state`, filling `record` with deterministic
  // facts (detail text, members lost, phases retried). Record code and the
  // trace event are derived by RunPipeline from `record.code` / the
  // returned status.
  [[nodiscard]] virtual util::Status Run(RequestContext& ctx, PipelineState& state,
                           StageRecord& record) = 0;
};

// Walks `stages` in order. For every stage -- executed or skipped -- one
// StageRecord is appended to state.outcome.degradation.stages and one
// TraceEvent to ctx.trace(); both carry only deterministic facts, so a
// request's trace is bit-identical across runs and thread counts.
[[nodiscard]] util::Status RunPipeline(const std::vector<Stage*>& stages,
                         RequestContext& ctx, PipelineState& state);

// Assembles the aggregate DegradationReport fields from the per-stage
// records plus the context's scoped traffic accounting (replacing the old
// before/after diff over the network's global counters, which is only
// correct with a single request in flight).
void FinalizeDegradation(const RequestContext& ctx, CloakingOutcome* outcome);

}  // namespace nela::core

#endif  // NELA_CORE_PIPELINE_H_
