#include "sim/sharded_service_driver.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <tuple>
#include <utility>

#include "cluster/clusterer.h"
#include "cluster/distributed_tconn.h"
#include "cluster/registry.h"
#include "cluster/sharded_registry.h"
#include "core/pipeline.h"
#include "core/request_context.h"
#include "core/stages.h"
#include "durability/crash_scheduler.h"
#include "durability/sharded_durable_registry.h"
#include "geo/rect.h"
#include "net/network.h"
#include "sim/admission.h"
#include "sim/commit_sequencer.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace nela::sim {

namespace {

// The p50 and p99 of `values` (sorted in place); 0 when empty.
std::pair<double, double> P50P99(std::vector<double>& values) {
  if (values.empty()) return {0.0, 0.0};
  std::sort(values.begin(), values.end());
  const auto at = [&values](double percentile) {
    return values[std::min(values.size() - 1,
                           static_cast<size_t>(
                               percentile / 100.0 *
                               static_cast<double>(values.size())))];
  };
  return {at(50.0), at(99.0)};
}

// Routes PublishStage's region write to the WAL stream that logged the
// cluster's registering commit.
class ShardedRegionWriter : public core::RegionWriter {
 public:
  explicit ShardedRegionWriter(durability::ShardedDurableRegistry* durable)
      : durable_(durable) {}
  [[nodiscard]] util::Status WriteRegion(cluster::ClusterId id,
                                         const geo::Rect& region) override {
    return durable_->SetRegion(id, region);
  }

 private:
  durability::ShardedDurableRegistry* durable_;
};

// ClusterStage's clusterer inside a request's turn: finding the host's
// cluster is the turn's commit, of the speculation or of a recompute.
class TurnCommitClusterer : public cluster::Clusterer {
 public:
  TurnCommitClusterer(CommitSequencer* sequencer,
                      cluster::DistributedTConnClusterer* proposer,
                      cluster::ShardId home,
                      CommitSequencer::Speculation speculation)
      : sequencer_(sequencer), proposer_(proposer), home_(home),
        speculation_(std::move(speculation)) {}

  [[nodiscard]] util::Result<cluster::ClusteringOutcome> ClusterFor(
      graph::VertexId host, net::RequestScope* /*scope*/) override {
    commit_ = sequencer_->Commit(host, home_, std::move(speculation_),
                                 *proposer_);
    if (!commit_.status.ok()) return commit_.status;
    cluster::ClusteringOutcome outcome;
    outcome.cluster_id = commit_.cluster;
    outcome.involved_users = commit_.involved;
    return outcome;
  }
  const char* name() const override { return proposer_->name(); }
  uint32_t k() const override { return proposer_->k(); }
  // What the commit decided, fired crash point included.
  const CommitSequencer::TurnResult& commit() const { return commit_; }

 private:
  CommitSequencer* sequencer_;
  cluster::DistributedTConnClusterer* proposer_;
  cluster::ShardId home_;
  CommitSequencer::Speculation speculation_;
  CommitSequencer::TurnResult commit_;
};

}  // namespace

struct ShardedServiceDriver::RunState {
  cluster::ShardMap map;
  // Owns the authoritative registry; `registry` below aliases its store.
  std::unique_ptr<cluster::ShardedRegistry> sharded;
  cluster::Registry* registry = nullptr;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<durability::CrashPointScheduler> crash;
  std::unique_ptr<durability::ShardedDurableRegistry> durable;
  std::unique_ptr<core::RegionWriter> region_writer;
  std::unique_ptr<CommitSequencer> sequencer;
  core::SecureBoundStage::Config bound_config;
  std::vector<data::UserId> hosts;
  // Ordinal -> home shard of the host (the routing decision).
  std::vector<cluster::ShardId> home_of;
  std::vector<ServiceRequestRecord> records;
  // Admitted ordinals in ordinal order, indexed by commit rank.
  std::vector<uint64_t> admitted_ordinals;
  std::atomic<uint64_t> next_work{0};

  RunState(const data::Dataset& dataset, uint32_t shard_count)
      : map(dataset, shard_count) {}

  // The one way a record is finished (delivered): finalize the outcome's
  // degradation report, write the trace and the scoped accounting.
  void Deliver(uint64_t ordinal, const core::RequestContext& ctx,
               core::CloakingOutcome outcome, double wall_ms) {
    ServiceRequestRecord& record = records[ordinal];
    core::FinalizeDegradation(ctx, &outcome);
    record.outcome = std::move(outcome);
    record.trace = ctx.trace().ToString();
    record.net_stats = ctx.scope().stats();
    record.wall_ms = wall_ms;
  }

  // Delivers a request that never ran its pipeline (shed at admission, or
  // aborted by a crash): one failed `stage` record carries `reason`, and
  // no coordinate is exposed.
  void DeliverRefusal(uint64_t master_seed, uint64_t ordinal,
                      const char* stage, const util::Status& reason) {
    core::RequestContext ctx(master_seed, ordinal, hosts[ordinal]);
    core::StageRecord record;
    record.stage = stage;
    record.code = reason.code();
    record.ran = true;
    record.detail = reason.message();
    ctx.trace().Record(record.stage, record.code, record.detail);
    core::CloakingOutcome outcome;
    outcome.anonymity_satisfied = false;
    outcome.degradation.stages.push_back(std::move(record));
    Deliver(ordinal, ctx, std::move(outcome), 0.0);
  }
};

ShardedServiceDriver::ShardedServiceDriver(const data::Dataset& dataset,
                                           const graph::Wpg& graph,
                                           core::PolicyFactory policy_factory,
                                           const ShardedServiceConfig& config)
    : dataset_(dataset), graph_(graph),
      policy_factory_(std::move(policy_factory)), config_(config) {
  NELA_CHECK_EQ(dataset.size(), graph.vertex_count());
  NELA_CHECK(policy_factory_ != nullptr);
  NELA_CHECK_GE(config_.service.k, 1u);
  NELA_CHECK_GE(config_.shards, 1u);
}

util::Status ShardedServiceDriver::ProcessRequest(RunState& run,
                                                  uint64_t rank) {
  const ServiceConfig& service = config_.service;
  const util::WallTimer timer;
  const uint64_t ordinal = run.admitted_ordinals[rank];
  const data::UserId host = run.hosts[ordinal];
  const cluster::ShardId home = run.home_of[ordinal];
  CommitSequencer& sequencer = *run.sequencer;
  core::RequestContext ctx(service.master_seed, ordinal, host);
  ctx.set_deadline_ms(service.deadline_ms);
  // The simulated queue wait counts against the request's deadline budget
  // exactly like network backoff would.
  const double queue_wait_ms = run.records[ordinal].queue_wait_ms;
  if (queue_wait_ms > 0.0) ctx.scope().RecordBackoff(queue_wait_ms);
  // Proposes; never registers (commits flow through the sequencer).
  cluster::DistributedTConnClusterer proposer(graph_, service.k,
                                              run.registry);

  // --- Speculation (parallel, untraced: the proposal may be discarded).
  // A host clustered in the live registry is a hit and copies nothing:
  // membership is immutable once registered, and the turn checks again.
  CommitSequencer::Speculation speculation;
  if (!run.registry->IsClustered(host)) {
    std::vector<bool> usable = run.registry->ActiveMask(&speculation.version);
    // A host already clear of the mask was clustered since the check: reuse.
    if (usable[host]) {
      auto proposed = proposer.Propose(host, std::move(usable), nullptr);
      // A failed proposal is reproduced serially in the turn.
      if (proposed.ok()) speculation.proposal = std::move(proposed).value();
    }
  }
  // Stall injection (test-only): park after speculating; whichever request
  // this blocks rescues it.
  if (sequencer.ParkIfStalled(rank)) return util::Status::Ok();

  // The engine's five stages (core::CloakingEngine::RequestCloaking), with
  // the sequencer's commit behind ClusterStage's clusterer.
  TurnCommitClusterer clusterer(&sequencer, &proposer, home,
                                std::move(speculation));
  core::ResolveReuseStage resolve_reuse(&clusterer, run.registry);
  core::ClusterStage cluster(&clusterer, run.registry);
  core::ClaimCommitStage claim_commit;
  core::SecureBoundStage secure_bound(run.bound_config);
  core::PublishStage publish(run.registry, &secure_bound, run.network.get(),
                             run.region_writer.get());
  const std::vector<core::Stage*> find_cluster = {&resolve_reuse, &cluster};
  core::PipelineState state;
  state.host = host;
  state.k = service.k;

  // --- The turn, in rank order. A host unclustered at its turn runs
  // {resolve_reuse, cluster} here: a miss, then its own commit. A hit runs
  // them after the region latch, where they see the region an older
  // publisher published.
  bool hit = false;
  cluster::ClusterId cid = cluster::kNoCluster;
  util::Status status;
  const bool passed = sequencer.Pass(rank, [&] {
    CommitSequencer::TurnResult turn;
    turn.cluster = run.registry->ClusterOf(host);
    hit = turn.cluster != cluster::kNoCluster;
    if (!hit) {
      status = core::RunPipeline(find_cluster, ctx, state);
      turn = clusterer.commit();
    }
    cid = turn.cluster;
    return turn;
  });
  if (!passed) return util::Status::Ok();

  if (status.ok()) {
    // --- Region latch: reuse the cluster's published region, or publish
    // it (smallest unresolved ordinal first).
    bool publisher = false;
    if (!sequencer.AwaitRegion(cid, rank, &publisher)) {
      return util::Status::Ok();
    }
    if (hit) status = core::RunPipeline(find_cluster, ctx, state);
    if (!state.done) {
      const std::vector<graph::VertexId>& members =
          state.cluster_info->members;
      state.shard = {.shard_count = run.map.shard_count(),
                     .home_shard = home,
                     .owner_shard = run.map.OwnerOf(members),
                     .cross_shard = run.map.CrossesShards(members)};
    }
    status = core::RunPipeline({&claim_commit, &secure_bound, &publish}, ctx,
                               state);
    if (publisher && !sequencer.ReleaseRegion(cid, status)) {
      return util::Status::Ok();
    }
  }
  run.Deliver(ordinal, ctx, std::move(state.outcome), timer.ElapsedMillis());
  return status;
}

util::Result<ShardedServiceResult> ShardedServiceDriver::Run() {
  return RunInternal(nullptr, std::vector<uint64_t>(config_.shards, 1), {},
                     /*truncate_wal=*/true, /*checkpoint_seq_start=*/0);
}

util::Result<ShardedServiceResult> ShardedServiceDriver::Resume(
    const durability::ShardedRecoveredState& recovered) {
  if (config_.durability_dir.empty()) {
    return util::InvalidArgumentError(
        "sharded resume needs the durability directory configured");
  }
  if (recovered.shards.size() != config_.shards) {
    return util::InvalidArgumentError(
        "recovered state covers a different number of shards than the "
        "config");
  }
  auto registry = durability::AssembleRegistry(recovered);
  if (!registry.ok()) return registry.status();
  std::vector<uint64_t> next_lsns(config_.shards, 1);
  std::unordered_map<cluster::ClusterId, uint32_t> stream_of;
  for (const durability::ShardRecoveredState& shard : recovered.shards) {
    next_lsns[shard.shard] = shard.next_lsn;
    for (const durability::ShardCheckpointCluster& entry : shard.clusters) {
      stream_of.emplace(entry.id, shard.shard);
    }
  }
  return RunInternal(std::move(registry).value(), std::move(next_lsns),
                     std::move(stream_of), /*truncate_wal=*/false,
                     recovered.MaxCheckpointSeq());
}

util::Result<ShardedServiceResult> ShardedServiceDriver::RunInternal(
    std::unique_ptr<cluster::Registry> registry,
    std::vector<uint64_t> shard_next_lsns,
    std::unordered_map<cluster::ClusterId, uint32_t> stream_of,
    bool truncate_wal, uint64_t checkpoint_seq_start) {
  const ServiceConfig& service = config_.service;
  const uint32_t user_count = dataset_.size();
  if (service.requests == 0) {
    return util::InvalidArgumentError("service needs at least one request");
  }
  if (service.requests > user_count) {
    return util::InvalidArgumentError(
        "request count exceeds the user population");
  }
  if (service.offered_rate_per_ms > 0.0 && service.service_time_ms <= 0.0) {
    return util::InvalidArgumentError(
        "the queue model needs a positive service time");
  }
  if (service.checkpoint_interval > 0 && config_.durability_dir.empty()) {
    return util::InvalidArgumentError(
        "checkpointing needs the durability directory");
  }
  if (registry != nullptr && registry->user_count() != user_count) {
    return util::InvalidArgumentError(
        "recovered registry population does not match the dataset");
  }
  RunState run(dataset_, config_.shards);
  run.sharded = registry != nullptr
                    ? std::make_unique<cluster::ShardedRegistry>(
                          std::move(registry), &run.map)
                    : std::make_unique<cluster::ShardedRegistry>(user_count,
                                                                 &run.map);
  run.registry = run.sharded->global();
  if (service.with_network) {
    run.network = std::make_unique<net::Network>(user_count);
    const net::FaultPlan& plan = service.fault_plan;
    if (plan.loss_probability > 0.0 || plan.latency.enabled() ||
        !plan.crashes.empty()) {
      const util::Status installed = run.network->InstallFaultPlan(plan);
      if (!installed.ok()) return installed;
    }
    if (service.tap != nullptr) run.network->SetTap(service.tap);
  }
  if (!service.fault_plan.process_crashes.empty()) {
    run.crash = std::make_unique<durability::CrashPointScheduler>(
        service.fault_plan.process_crashes);
  }
  if (!config_.durability_dir.empty()) {
    NELA_CHECK_EQ(shard_next_lsns.size(), config_.shards);
    auto durable = durability::ShardedDurableRegistry::Open(
        run.registry, config_.durability_dir, config_.shards,
        run.crash.get(), std::move(shard_next_lsns), std::move(stream_of),
        truncate_wal);
    if (!durable.ok()) return durable.status();
    run.durable = std::move(durable).value();
    run.region_writer =
        std::make_unique<ShardedRegionWriter>(run.durable.get());
  }
  run.bound_config.dataset = &dataset_;
  run.bound_config.policy_factory = &policy_factory_;
  run.bound_config.network = run.network.get();
  // Backoff jitter (if the network ever delays) draws from the request's
  // private sub-stream, never from shared state.
  run.bound_config.jitter_from_context = true;

  util::Rng workload_rng(service.workload_seed);
  run.hosts = SampleWorkload(user_count, service.requests, workload_rng);
  run.records.resize(service.requests);
  run.home_of.resize(service.requests);
  for (uint64_t ordinal = 0; ordinal < service.requests; ++ordinal) {
    run.records[ordinal].host = run.hosts[ordinal];
    run.records[ordinal].ordinal = ordinal;
    run.home_of[ordinal] = run.map.HomeShardOf(run.hosts[ordinal]);
  }

  const std::vector<AdmissionDecision> admission =
      AdmitWorkload(service, run.home_of, run.map.shard_count());
  CommitSequencer::Options sequencing;
  for (uint64_t ordinal = 0; ordinal < service.requests; ++ordinal) {
    const AdmissionDecision& decision = admission[ordinal];
    ServiceRequestRecord& record = run.records[ordinal];
    record.admitted = decision.shed == ShedCause::kNone;
    record.shed = decision.shed;
    record.arrival_ms = decision.arrival_ms;
    record.queue_wait_ms = decision.queue_wait_ms;
    if (!record.admitted) {
      run.DeliverRefusal(service.master_seed, ordinal, "admission",
                         decision.reason);
      continue;
    }
    if (ordinal == service.stall_ordinal) {
      sequencing.stall_rank = run.admitted_ordinals.size();
    }
    run.admitted_ordinals.push_back(ordinal);
  }
  if (service.stall_ordinal != kNoStallOrdinal &&
      !sequencing.stall_rank.has_value()) {
    return util::InvalidArgumentError(
        "stall_ordinal names a request that was not admitted");
  }
  sequencing.registry = run.registry;
  sequencing.durable = run.durable.get();
  sequencing.crash = run.crash.get();
  sequencing.checkpoint_interval = service.checkpoint_interval;
  sequencing.checkpoint_seq = checkpoint_seq_start;
  run.sequencer = std::make_unique<CommitSequencer>(
      sequencing, [this, &run](uint64_t rank) {
        run.sequencer->RecordError(ProcessRequest(run, rank));
      });
  CommitSequencer& sequencer = *run.sequencer;

  const util::WallTimer wall_timer;
  // All workers run on the shared fork-join pool; worker identity is
  // irrelevant (ranks come from the atomic counter and commits are
  // serialized by the sequencer), so the digest stays bit-identical at any
  // thread count.
  util::ThreadPool pool(std::max(1u, service.threads));
  pool.RunOnAllThreads([this, &run, &sequencer](uint32_t) {
    while (!sequencer.halted()) {
      const uint64_t rank =
          run.next_work.fetch_add(1, std::memory_order_relaxed);
      if (rank >= run.admitted_ordinals.size()) break;
      sequencer.RecordError(ProcessRequest(run, rank));
    }
  });

  // Safety net: a request parked near the end of the workload may have no
  // younger request left to rescue it (every later worker already exited).
  // The main thread plays watchdog until the lot is empty.
  while (sequencer.TryRescue(~0ull)) {
  }

  const double wall_seconds = wall_timer.ElapsedSeconds();

  const bool crashed = run.crash != nullptr && run.crash->crashed();
  const CommitSequencer::Report report = sequencer.report();
  if (crashed) {
    // Unfinished admitted requests died with the process: report each as a
    // structured crash abort (never silently, never with a coordinate).
    const util::Status abort = util::UnavailableError(
        std::string("aborted by simulated process crash at ") +
        net::ProcessCrashPointName(report.crash_point.value_or(
            net::ProcessCrashPoint::kPreCommit)) +
        "; durable state recovers on restart");
    for (uint64_t ordinal : run.admitted_ordinals) {
      // Never finalized: the request was still in flight.
      if (run.records[ordinal].outcome.degradation.finalize_count == 0) {
        run.records[ordinal].aborted_by_crash = true;
        run.DeliverRefusal(service.master_seed, ordinal, "service", abort);
      }
    }
  } else if (!report.first_error.ok()) {
    return report.first_error;
  }

  ShardedServiceResult sharded_result;
  ServiceResult& result = sharded_result.service;
  result.crashed = crashed;
  result.crash_point = report.crash_point;
  result.records = std::move(run.records);
  result.wall_seconds = wall_seconds;
  result.speculation_aborts = report.speculation_aborts;
  result.watchdog_requeues = report.rescues;
  if (run.durable != nullptr) result.wal_records = run.durable->wal_records();
  result.checkpoints_written = report.checkpoints_written;

  const uint32_t shard_count = run.map.shard_count();
  sharded_result.shards.resize(shard_count);
  std::vector<std::vector<double>> shard_waits(shard_count);
  std::vector<double> queue_waits;
  std::vector<double> latencies;
  for (const ServiceRequestRecord& record : result.records) {
    const cluster::ShardId home = run.home_of[record.ordinal];
    ShardRunStats& stats = sharded_result.shards[home];
    ++stats.requests_routed;
    if (record.shed == ShedCause::kQueueOverflow) {
      ++result.shed_queue_overflow;
      ++stats.shed_queue_overflow;
    } else if (record.shed == ShedCause::kDeadline) {
      ++result.shed_deadline;
      ++stats.shed_deadline;
    } else {
      ++result.admitted;
      ++stats.admitted;
      queue_waits.push_back(record.queue_wait_ms);
      shard_waits[home].push_back(record.queue_wait_ms);
      if (record.aborted_by_crash) {
        ++result.aborted_by_crash;
      } else {
        latencies.push_back(record.wall_ms);
      }
    }
  }
  // Served throughput: shed requests were refused and crash aborts never
  // finished, so neither counts as served.
  result.requests_per_sec =
      static_cast<double>(result.admitted - result.aborted_by_crash) /
      std::max(wall_seconds, 1e-9);
  std::tie(result.p50_queue_wait_ms, result.p99_queue_wait_ms) =
      P50P99(queue_waits);
  std::tie(result.p50_latency_ms, result.p99_latency_ms) = P50P99(latencies);

  // Registry digest + reciprocity audit over the final state.
  result.registry_digest = run.registry->Digest();
  const uint32_t clusters = run.registry->cluster_count();
  result.clusters_formed = clusters;
  std::vector<bool> seen(user_count, false);
  result.reciprocity_ok = true;
  for (cluster::ClusterId id = 0; id < clusters; ++id) {
    for (graph::VertexId member : run.registry->info(id).members) {
      if (seen[member]) result.reciprocity_ok = false;
      seen[member] = true;
    }
  }

  // Per-shard slice accounting and the shard-count-invariance digests.
  sharded_result.concatenated_digest = run.sharded->ConcatenatedDigest();
  sharded_result.cross_shard_clusters = run.sharded->CrossShardClusterCount();
  for (uint32_t shard = 0; shard < shard_count; ++shard) {
    ShardRunStats& stats = sharded_result.shards[shard];
    stats.shard = shard;
    stats.users = run.map.users_in(shard);
    for (cluster::ClusterId id : run.sharded->OwnedBy(shard)) {
      ++stats.clusters_owned;
      if (run.map.CrossesShards(run.registry->info(id).members)) {
        ++stats.cross_shard_clusters_owned;
      }
    }
    if (run.durable != nullptr) {
      stats.wal_records = run.durable->wal_records_for(shard);
    }
    stats.shard_digest = run.sharded->ShardDigest(shard);
    std::tie(stats.p50_queue_wait_ms, stats.p99_queue_wait_ms) =
        P50P99(shard_waits[shard]);
  }
  return sharded_result;
}

}  // namespace nela::sim
