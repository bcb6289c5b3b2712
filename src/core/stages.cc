#include "core/stages.h"

#include <string>
#include <utility>
#include <vector>

#include "bounding/protocol.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace nela::core {

namespace {

std::string ClusterFacts(cluster::ClusterId id,
                         const cluster::ClusterInfo& info,
                         uint64_t involved) {
  return "cluster=" + std::to_string(id) +
         " members=" + std::to_string(info.members.size()) +
         " valid=" + std::to_string(info.valid ? 1 : 0) +
         " involved=" + std::to_string(involved);
}

}  // namespace

util::Status ResolveReuseStage::Run(RequestContext& ctx, PipelineState& state,
                                    StageRecord& record) {
  (void)ctx;
  if (!clusterer_->reciprocal() || !registry_->IsClustered(state.host)) {
    record.detail = "miss";
    return util::Status::Ok();
  }
  const cluster::ClusterId id = registry_->ClusterOf(state.host);
  const cluster::ClusterInfo& info = registry_->info(id);
  state.cluster_info = &info;
  state.outcome.cluster_id = id;
  state.outcome.cluster_reused = true;
  state.outcome.anonymity_satisfied = info.valid;
  if (!info.region.has_value()) {
    // The cluster formed earlier but phase 2 never ran for it; phase 1 is
    // still free, and the pipeline proceeds straight to bounding.
    record.detail = "hit cluster=" + std::to_string(id) + " region=pending";
    return util::Status::Ok();
  }
  state.outcome.region = *info.region;
  state.outcome.region_reused = true;
  state.done = true;
  record.detail = "hit cluster=" + std::to_string(id) + " region=reused";
  return util::Status::Ok();
}

util::Status ClusterStage::Run(RequestContext& ctx, PipelineState& state,
                               StageRecord& record) {
  if (state.cluster_info != nullptr) {
    // ResolveReuse already located the cluster (region pending).
    record.detail = "resolved";
    return util::Status::Ok();
  }
  auto clustering = clusterer_->ClusterFor(state.host, &ctx.scope());
  if (!clustering.ok()) return clustering.status();
  state.outcome.cluster_id = clustering.value().cluster_id;
  state.outcome.cluster_reused = clustering.value().reused;
  state.outcome.clustering_messages = clustering.value().involved_users;
  record.members_lost = clustering.value().members_lost;
  const cluster::ClusterInfo& info = registry_->info(state.outcome.cluster_id);
  state.cluster_info = &info;
  state.outcome.anonymity_satisfied = info.valid;
  record.detail = ClusterFacts(state.outcome.cluster_id, info,
                               clustering.value().involved_users);
  if (info.region.has_value()) {
    // Phase 2 already ran for this cluster (another member triggered it);
    // the shared region is served as is.
    state.outcome.region = *info.region;
    state.outcome.region_reused = state.outcome.cluster_reused;
    state.done = true;
    record.detail += " region=reused";
  }
  return util::Status::Ok();
}

util::Status ClaimCommitStage::Run(RequestContext& ctx, PipelineState& state,
                                   StageRecord& record) {
  (void)ctx;
  NELA_CHECK(state.cluster_info != nullptr);
  record.detail =
      "members=" + std::to_string(state.cluster_info->members.size());
  if (state.shard.shard_count > 1) {
    // Shard placement is itself deterministic (a pure function of the
    // dataset and the committed membership), so surfacing it keeps traces
    // bit-identical across thread counts; guarded so unsharded runs keep
    // their historical trace bytes.
    record.detail += " home=" + std::to_string(state.shard.home_shard) +
                     " owner=" + std::to_string(state.shard.owner_shard);
    if (state.shard.cross_shard) record.detail += " cross-shard";
  }
  return util::Status::Ok();
}

util::Status SecureBoundStage::Run(RequestContext& ctx, PipelineState& state,
                                   StageRecord& record) {
  NELA_CHECK(state.cluster_info != nullptr);
  NELA_CHECK(config_.dataset != nullptr);
  const cluster::ClusterInfo& info = *state.cluster_info;
  CloakingOutcome& outcome = state.outcome;
  net::Network* network = config_.network;

  // Degradations deliver an outcome (empty region, structured reason)
  // rather than an error: record the code, stop the pipeline, return Ok.
  auto degrade = [&](util::StatusCode code, std::string reason) {
    outcome.anonymity_satisfied = false;
    outcome.region = geo::Rect();
    record.code = code;
    record.detail = std::move(reason);
    state.done = true;
    return util::Status::Ok();
  };

  for (uint32_t phase_attempt = 0;; ++phase_attempt) {
    if (ctx.DeadlineExpired()) {
      return degrade(util::StatusCode::kDeadlineExceeded,
                     "request deadline exhausted before bounding completed");
    }
    // Members that crashed since phase 1 are excluded up front; members
    // that crash mid-protocol surface as kUnavailable from the bounding
    // run, and the phase is retried over the survivors -- as long as at
    // least k of them remain. All failure paths leave the region empty: no
    // partial bound ever escapes.
    std::vector<geo::Point> member_points;
    std::vector<net::NodeId> node_ids;
    member_points.reserve(info.members.size());
    node_ids.reserve(info.members.size());
    for (graph::VertexId member : info.members) {
      if (network != nullptr && !network->IsAlive(member)) continue;
      member_points.push_back(config_.dataset->point(member));
      node_ids.push_back(member);
    }
    const uint32_t survivors = static_cast<uint32_t>(node_ids.size());
    // Recomputed each attempt from the registry's membership, so retries
    // never double-count a lost member.
    record.members_lost =
        static_cast<uint32_t>(info.members.size()) - survivors;
    if (network != nullptr && !network->IsAlive(state.host)) {
      return util::UnavailableError("host " + std::to_string(state.host) +
                                    " crashed before bounding");
    }
    if (network != nullptr && survivors < state.k) {
      return degrade(
          util::StatusCode::kFailedPrecondition,
          "cluster fell below k after member churn (" +
              std::to_string(survivors) + " of " +
              std::to_string(info.members.size()) + " members survive, k=" +
              std::to_string(state.k) + ")");
    }

    bounding::NetworkBinding binding;
    if (network != nullptr) {
      binding.network = network;
      binding.host = state.host;
      binding.node_ids = &node_ids;
      binding.retry = config_.retry;
      binding.retry_rng =
          config_.jitter_from_context ? &ctx.rng() : config_.jitter_rng;
      binding.scope = &ctx.scope();
    }

    if (config_.mode == BoundingMode::kOptBaseline) {
      bounded_ = bounding::ComputeOptRegion(member_points, binding);
    } else {
      std::unique_ptr<bounding::IncrementPolicy> policy =
          (*config_.policy_factory)(
              static_cast<uint32_t>(member_points.size()));
      // The request's private sub-stream also feeds the per-axis origin
      // randomization that closes the hypothesis-origin side channel.
      auto run = bounding::ComputeCloakedRegion(
          member_points, config_.dataset->point(state.host), *policy,
          binding, &ctx.rng());
      if (!run.ok()) {
        if (run.status().code() == util::StatusCode::kUnavailable &&
            phase_attempt < config_.max_phase_retries) {
          // A member crashed mid-protocol: drop it (the liveness filter at
          // the top of the loop picks that up) and re-run bounding.
          ++record.phases_retried;
          continue;
        }
        // Retry budget exhausted (kDeadlineExceeded) or churn beyond the
        // phase-retry budget: report a structured failure, never a region
        // computed from partial protocol state.
        return degrade(run.status().code(), run.status().message());
      }
      bounded_ = std::move(run).value();
    }
    outcome.bounding_verifications = bounded_.verifications;
    outcome.bounding_iterations = bounded_.iterations;
    outcome.bounding_cpu_seconds = bounded_.cpu_seconds;
    record.detail = "iterations=" + std::to_string(bounded_.iterations) +
                    " verifications=" +
                    std::to_string(bounded_.verifications) +
                    " survivors=" + std::to_string(survivors);
    return util::Status::Ok();
  }
}

util::Status PublishStage::Run(RequestContext& ctx, PipelineState& state,
                               StageRecord& record) {
  const geo::Rect& region = bound_->bounded().region;
  NELA_CHECK(!region.empty());
  if (region_writer_ != nullptr) {
    auto wrote = region_writer_->WriteRegion(state.outcome.cluster_id, region);
    if (!wrote.ok()) return wrote;  // e.g. crash mid-WAL-append
  } else {
    registry_->SetRegion(state.outcome.cluster_id, region);
  }
  state.outcome.region = region;
  record.detail = "cluster=" + std::to_string(state.outcome.cluster_id);
  if (network_ != nullptr && state.cluster_info != nullptr) {
    // Fire-and-forget assignment notification: the region is the cluster's
    // shared public artifact, so delivery is best-effort -- a member that
    // misses it re-reads the registry when it next needs the region.
    uint64_t notified = 0;
    for (graph::VertexId member : state.cluster_info->members) {
      if (member == state.host) continue;
      net::Message message;
      message.from = state.host;
      message.to = member;
      message.kind = net::MessageKind::kClusterAssignment;
      message.bytes = 32;  // 4 region edges
      message.payload.Add(net::FieldTag::kCloakedRegion, net::kPublicSubject,
                          region.min_x());
      message.payload.Add(net::FieldTag::kCloakedRegion, net::kPublicSubject,
                          region.min_y());
      message.payload.Add(net::FieldTag::kCloakedRegion, net::kPublicSubject,
                          region.max_x());
      message.payload.Add(net::FieldTag::kCloakedRegion, net::kPublicSubject,
                          region.max_y());
      if (network_->Send(message, &ctx.scope())) ++notified;
    }
    record.detail += " notified=" + std::to_string(notified);
  }
  return util::Status::Ok();
}

}  // namespace nela::core
