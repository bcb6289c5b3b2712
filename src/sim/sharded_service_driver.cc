#include "sim/sharded_service_driver.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <set>
#include <unordered_map>
#include <utility>

#include <cstring>

#include "cluster/distributed_tconn.h"
#include "cluster/registry.h"
#include "cluster/sharded_registry.h"
#include "core/mechanism.h"
#include "core/pipeline.h"
#include "core/request_context.h"
#include "core/stages.h"
#include "durability/crash_scheduler.h"
#include "durability/sharded_durable_registry.h"
#include "geo/rect.h"
#include "mechanisms/factory.h"
#include "net/network.h"
#include "sim/workload.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace nela::sim {

namespace {

double PercentileMs(const std::vector<double>& sorted, double percentile) {
  if (sorted.empty()) return 0.0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(percentile / 100.0 *
                          static_cast<double>(sorted.size())));
  return sorted[index];
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// commit_rank of a request that was shed at admission.
constexpr uint64_t kNotAdmitted = ~0ull;

util::Status CrashError(net::ProcessCrashPoint point) {
  return util::UnavailableError(
      std::string("simulated process crash at ") +
      net::ProcessCrashPointName(point));
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
  // Non-null when a baseline mechanism serves the requests (ServiceConfig::
  // mechanism != kClusterBound); ProcessRequest then routes every request
  // through the independent mechanism path.
  std::unique_ptr<core::Mechanism> mechanism;
  std::vector<data::UserId> hosts;
  // Ordinal -> home shard of the host (the routing decision).
  std::vector<cluster::ShardId> home_of;
  std::vector<ServiceRequestRecord> records;
  // Ordinal -> delivered (an outcome -- success, degradation, or shed --
  // was finalized into its record). Written by the owning worker; read
  // after the pool joins.
  std::vector<uint8_t> delivered;
  // Admitted ordinals in ordinal order; workers pull indexes into this.
  std::vector<uint64_t> admitted_ordinals;
  // Ordinal -> dense rank among admitted requests (drives the turnstile),
  // kNotAdmitted for a shed request.
  std::vector<uint64_t> commit_rank;
  std::atomic<uint64_t> next_work{0};
  std::atomic<uint64_t> speculation_aborts{0};
  std::atomic<uint64_t> watchdog_requeues{0};

  // One mutex coordinates the commit turnstile, the per-cluster region
  // latches, the watchdog parking lot, and the halt flag (decisions
  // interleave; contention is negligible next to the clustering/bounding
  // work done outside it). Lock hierarchy: mu precedes every lock taken
  // inside the turnstile -- the durable registry's, the WAL streams', and
  // the registry's. mu is a local capability (RunState never escapes
  // RunInternal), so the cross-class legs of that order are declared where
  // the foreign locks can name each other (sharded_durable_registry.h) and
  // documented here for the rest.
  util::Mutex mu;
  util::CondVar turn_cv;
  util::CondVar region_cv;
  uint64_t next_commit GUARDED_BY(mu) = 0;
  struct Latch {
    bool computing = false;
    // Ordinals whose region decision is unresolved; the smallest becomes
    // the (next) publisher -- the deterministic sequential order.
    std::set<uint64_t> waiters;
  };
  std::unordered_map<cluster::ClusterId, Latch> latches GUARDED_BY(mu);
  // Ordinals of stalled requests awaiting rescue, ordered so the oldest is
  // rescued first.
  std::set<uint64_t> parked GUARDED_BY(mu);
  // Set when a scheduled process crash fires: workers unwind without
  // delivering further outcomes, exactly as a dying process would.
  bool halted GUARDED_BY(mu) = false;
  std::optional<net::ProcessCrashPoint> crash_point GUARDED_BY(mu);
  uint64_t commits_since_checkpoint GUARDED_BY(mu) = 0;
  uint64_t checkpoint_seq GUARDED_BY(mu) = 0;
  uint64_t checkpoints_written GUARDED_BY(mu) = 0;

  util::Status first_error GUARDED_BY(mu);

  RunState(const data::Dataset& dataset, uint32_t shard_count)
      : map(dataset, shard_count) {}

  // Wakes every waiter so the halt propagates.
  void HaltLocked(net::ProcessCrashPoint point) REQUIRES(mu) {
    halted = true;
    if (!crash_point.has_value()) crash_point = point;
    turn_cv.NotifyAll();
    region_cv.NotifyAll();
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

void ShardedServiceDriver::FillShedRecord(RunState& run, uint64_t ordinal,
                                          ShedCause cause, double arrival_ms,
                                          double queue_wait_ms,
                                          uint32_t occupancy) {
  const ServiceConfig& service = config_.service;
  ServiceRequestRecord& record = run.records[ordinal];
  const data::UserId host = run.hosts[ordinal];
  core::RequestContext ctx(service.master_seed, ordinal, host);
  record.host = host;
  record.ordinal = ordinal;
  record.admitted = false;
  record.shed = cause;
  record.arrival_ms = arrival_ms;
  record.queue_wait_ms = queue_wait_ms;

  core::StageRecord stage;
  stage.stage = "admission";
  stage.ran = true;
  if (cause == ShedCause::kQueueOverflow) {
    stage.code = util::StatusCode::kUnavailable;
    stage.detail = "admission queue full (occupancy=" +
                   std::to_string(occupancy) + " capacity=" +
                   std::to_string(service.queue_capacity) + "); request shed";
  } else {
    stage.code = util::StatusCode::kDeadlineExceeded;
    stage.detail = "simulated queue wait " + std::to_string(queue_wait_ms) +
                   "ms exceeds deadline " +
                   std::to_string(service.deadline_ms) + "ms; request shed";
  }
  ctx.trace().Record(stage.stage, stage.code, stage.detail);
  record.outcome.anonymity_satisfied = false;
  record.outcome.degradation.stages.push_back(std::move(stage));
  core::FinalizeDegradation(ctx, &record.outcome);
  record.trace = ctx.trace().ToString();
  run.delivered[ordinal] = 1;
}

void ShardedServiceDriver::FillCrashAbortRecord(RunState& run,
                                                uint64_t ordinal,
                                                net::ProcessCrashPoint point) {
  ServiceRequestRecord& record = run.records[ordinal];
  const data::UserId host = run.hosts[ordinal];
  core::RequestContext ctx(config_.service.master_seed, ordinal, host);
  record.host = host;
  record.ordinal = ordinal;
  record.aborted_by_crash = true;

  core::StageRecord stage;
  stage.stage = "service";
  stage.ran = true;
  stage.code = util::StatusCode::kUnavailable;
  stage.detail = std::string("aborted by simulated process crash at ") +
                 net::ProcessCrashPointName(point) +
                 "; durable state recovers on restart";
  ctx.trace().Record(stage.stage, stage.code, stage.detail);
  record.outcome = core::CloakingOutcome{};
  record.outcome.anonymity_satisfied = false;
  record.outcome.degradation.stages.push_back(std::move(stage));
  core::FinalizeDegradation(ctx, &record.outcome);
  record.trace = ctx.trace().ToString();
  run.delivered[ordinal] = 1;
}

void ShardedServiceDriver::AdmitWorkload(RunState& run) {
  const ServiceConfig& service = config_.service;
  const uint32_t request_count = static_cast<uint32_t>(run.hosts.size());
  run.admitted_ordinals.reserve(request_count);

  if (service.offered_rate_per_ms <= 0.0) {
    // Closed batch: everything arrives at t=0 and is admitted with zero
    // wait; the queue model (and its thread-count dependence) is off.
    for (uint64_t ordinal = 0; ordinal < request_count; ++ordinal) {
      ServiceRequestRecord& record = run.records[ordinal];
      record.admitted = true;
      run.commit_rank[ordinal] = run.admitted_ordinals.size();
      run.admitted_ordinals.push_back(ordinal);
    }
    return;
  }

  // Deterministic per-shard c-server queues simulated ahead of execution:
  // arrivals on ONE global Poisson clock, each routed to its home shard's
  // queue, FIFO assignment to that shard's earliest-free server. Worker
  // threads are spread across shards as servers (floor one per shard); at
  // K=1 this is a single c-server queue with c = threads. The RNG
  // stream derives from the workload seed, so the shed set is a function
  // of (config, thread count, K) only.
  util::Rng arrival_rng(service.workload_seed ^ 0x9e3779b97f4a7c15ull);
  const uint32_t shard_count = run.map.shard_count();
  std::vector<uint32_t> servers(shard_count, 0);
  const uint32_t threads = std::max(1u, service.threads);
  for (uint32_t t = 0; t < threads; ++t) ++servers[t % shard_count];
  for (uint32_t shard = 0; shard < shard_count; ++shard) {
    servers[shard] = std::max(1u, servers[shard]);
  }

  using MinHeap = std::priority_queue<double, std::vector<double>,
                                      std::greater<double>>;
  // Earliest free time per server, per shard.
  std::vector<MinHeap> free_at(shard_count);
  for (uint32_t shard = 0; shard < shard_count; ++shard) {
    for (uint32_t s = 0; s < servers[shard]; ++s) free_at[shard].push(0.0);
  }
  // Start times of admitted requests per shard, non-decreasing under FIFO
  // service -- a shard queue's occupancy at time t is the count of its
  // admitted starts > t.
  std::vector<std::vector<double>> start_times(shard_count);

  double clock_ms = 0.0;
  for (uint64_t ordinal = 0; ordinal < request_count; ++ordinal) {
    clock_ms += arrival_rng.NextExponential(service.offered_rate_per_ms);
    const double arrival = clock_ms;
    const cluster::ShardId shard = run.home_of[ordinal];
    std::vector<double>& starts = start_times[shard];
    const auto waiting = static_cast<uint32_t>(
        starts.end() -
        std::upper_bound(starts.begin(), starts.end(), arrival));
    if (service.queue_capacity > 0 && waiting >= service.queue_capacity) {
      FillShedRecord(run, ordinal, ShedCause::kQueueOverflow, arrival, 0.0,
                     waiting);
      continue;
    }
    const double earliest_free = free_at[shard].top();
    const double wait = std::max(0.0, earliest_free - arrival);
    if (wait > service.deadline_ms) {
      FillShedRecord(run, ordinal, ShedCause::kDeadline, arrival, wait,
                     waiting);
      continue;
    }
    free_at[shard].pop();
    const double start = arrival + wait;
    free_at[shard].push(start + service.service_time_ms);
    starts.push_back(start);
    ServiceRequestRecord& record = run.records[ordinal];
    record.admitted = true;
    record.arrival_ms = arrival;
    record.queue_wait_ms = wait;
    run.commit_rank[ordinal] = run.admitted_ordinals.size();
    run.admitted_ordinals.push_back(ordinal);
  }
}

bool ShardedServiceDriver::TryRescue(RunState& run, uint64_t max_rank) {
  uint64_t parked_ordinal = 0;
  {
    util::MutexLock lock(run.mu);
    if (run.halted) return false;
    // Only rescue a request whose commit precedes `max_rank`: rescuing a
    // younger request from inside an older one's turnstile wait would
    // re-enter a wait that the rescuer itself blocks.
    const auto found =
        std::find_if(run.parked.begin(), run.parked.end(),
                     [&run, max_rank](uint64_t ordinal) {
                       return run.commit_rank[ordinal] < max_rank;
                     });
    if (found == run.parked.end()) return false;
    parked_ordinal = *found;
    run.parked.erase(found);
  }
  // Re-execute from scratch: the abandoned attempt wrote nothing shared and
  // consumed nothing from the request's context, so the re-execution is
  // bit-identical to a run without the stall.
  run.watchdog_requeues.fetch_add(1, std::memory_order_relaxed);
  const util::Status status =
      ProcessRequest(run, parked_ordinal, /*allow_stall=*/false);
  if (!status.ok()) {
    util::MutexLock lock(run.mu);
    if (run.first_error.ok()) run.first_error = status;
  }
  return true;
}

util::Status ShardedServiceDriver::ProcessMechanismRequest(RunState& run,
                                                           uint64_t ordinal) {
  const ServiceConfig& service = config_.service;
  const util::WallTimer timer;
  const data::UserId host = run.hosts[ordinal];
  ServiceRequestRecord& record = run.records[ordinal];
  core::RequestContext ctx(service.master_seed, ordinal, host);
  ctx.set_deadline_ms(service.deadline_ms);
  if (record.queue_wait_ms > 0.0) {
    ctx.scope().RecordBackoff(record.queue_wait_ms);
  }

  core::PipelineState state;
  state.host = host;
  state.k = service.k;
  core::MechanismStage stage(run.mechanism.get());
  const std::vector<core::Stage*> stages = {&stage};
  const util::Status status = core::RunPipeline(stages, ctx, state);
  core::FinalizeDegradation(ctx, &state.outcome);

  record.host = host;
  record.ordinal = ordinal;
  record.outcome = std::move(state.outcome);
  record.trace = ctx.trace().ToString();
  record.net_stats = ctx.scope().stats();
  record.wall_ms = timer.ElapsedMillis();
  run.delivered[ordinal] = 1;
  return status;
}

util::Status ShardedServiceDriver::ProcessRequest(RunState& run,
                                                  uint64_t ordinal,
                                                  bool allow_stall) {
  if (run.mechanism != nullptr) return ProcessMechanismRequest(run, ordinal);
  const ServiceConfig& service = config_.service;
  const util::WallTimer timer;
  const data::UserId host = run.hosts[ordinal];
  const cluster::ShardId home = run.home_of[ordinal];
  ServiceRequestRecord& record = run.records[ordinal];
  const uint64_t rank = run.commit_rank[ordinal];
  core::RequestContext ctx(service.master_seed, ordinal, host);
  ctx.set_deadline_ms(service.deadline_ms);
  // The simulated queue wait counts against the request's deadline budget
  // exactly like network backoff would.
  if (record.queue_wait_ms > 0.0) {
    ctx.scope().RecordBackoff(record.queue_wait_ms);
  }
  // Proposes; never registers (commits flow through the turnstile below).
  cluster::DistributedTConnClusterer clusterer(graph_, service.k,
                                               run.registry);

  // --- Speculation (parallel, untraced: the candidate may be discarded) ---
  // Reuse first, from the live registry: membership is immutable once
  // registered and the turnstile checks again, so a hit needs no copy.
  uint64_t spec_version = 0;
  uint64_t spec_involved = 0;
  std::vector<cluster::ClusterInfo> candidate;
  bool speculated = false;
  if (!run.registry->IsClustered(host)) {
    {
      util::MutexLock lock(run.mu);
      // Aborted; reported as a crash abort.
      if (run.halted) return util::Status::Ok();
    }
    std::vector<bool> usable = run.registry->ActiveMask(&spec_version);
    // A host already clear of the mask was clustered since the check: reuse.
    if (usable[host]) {
      auto speculative = clusterer.Propose(host, std::move(usable), nullptr);
      // A failed proposal is reproduced serially at the turnstile.
      if (speculative.ok()) {
        spec_involved = speculative.value().involved_users;
        candidate = std::move(speculative.value().clusters);
        speculated = true;
      }
    }
  }

  // --- Stall injection (test-only): park after speculating; whichever
  // request this blocks rescues us via TryRescue --------------------------
  if (allow_stall && ordinal == service.stall_ordinal) {
    util::MutexLock lock(run.mu);
    run.parked.insert(ordinal);
    run.turn_cv.NotifyAll();
    run.region_cv.NotifyAll();
    return util::Status::Ok();  // this attempt is abandoned, not delivered
  }

  // --- Commit turnstile: requests commit membership in strict rank order
  // (= ordinal order among admitted requests) GLOBALLY, whatever K -- this
  // is precisely why the registry evolves identically for every shard
  // count: sharding partitions routing and logging, never the commit
  // history --------------------------------------------------------------
  bool resolved_hit = false;
  cluster::ClusterId cid = cluster::kNoCluster;
  uint64_t involved = 0;
  util::Status commit_status;
  {
    util::MutexLock lock(run.mu);
    while (run.next_commit != rank && !run.halted) {
      lock.Unlock();
      const bool rescued = TryRescue(run, rank);
      lock.Lock();
      if (rescued) continue;
      if (run.next_commit != rank && !run.halted) run.turn_cv.Wait(lock);
    }
    if (run.halted) return util::Status::Ok();
    if (run.registry->IsClustered(host)) {
      resolved_hit = true;
      cid = run.registry->ClusterOf(host);
    } else if (run.crash != nullptr &&
               run.crash->ShouldCrash(net::ProcessCrashPoint::kPreCommit)) {
      commit_status = CrashError(net::ProcessCrashPoint::kPreCommit);
      run.HaltLocked(net::ProcessCrashPoint::kPreCommit);
    } else {
      // Propose reads nothing but the mask, and only Register changes the
      // mask (bumping the version), so an unchanged version proves the
      // speculation equals the serial result.
      const bool commit_speculation =
          speculated && spec_version == run.registry->version();
      if (!commit_speculation) {
        // Stale mask (or no speculation): recompute phase 1 serially
        // against the authoritative membership, inside the turnstile. The
        // recomputation only proposes, so the commits below all flow
        // through the (possibly durable) commit path.
        run.speculation_aborts.fetch_add(1, std::memory_order_relaxed);
        candidate.clear();
        auto recomputed =
            clusterer.Propose(host, run.registry->ActiveMask(), nullptr);
        if (!recomputed.ok()) {
          commit_status = recomputed.status();
        } else {
          involved = recomputed.value().involved_users;
          candidate = std::move(recomputed.value().clusters);
        }
      } else {
        involved = spec_involved;
      }
      if (commit_status.ok()) {
        if (run.durable != nullptr) {
          // The whole commit -- several clusters, cross-shard members and
          // all -- lands as one record in the COORDINATING shard's stream:
          // atomic under a torn WAL tail without a cross-stream commit
          // protocol (see sharded_durable_registry.h).
          commit_status = run.durable->RegisterBatch(home, candidate);
        } else {
          for (const cluster::ClusterInfo& info : candidate) {
            auto committed = run.registry->Register(
                info.members, info.connectivity, info.valid);
            if (!committed.ok()) {
              commit_status = committed.status();
              break;
            }
          }
        }
        if (!commit_status.ok() && run.crash != nullptr &&
            run.crash->crashed()) {
          // A mid-WAL-append crash surfaced as the commit error.
          run.HaltLocked(net::ProcessCrashPoint::kMidWalAppend);
        }
      }
      if (commit_status.ok() && run.crash != nullptr &&
          run.crash->ShouldCrash(net::ProcessCrashPoint::kPostCommit)) {
        commit_status = CrashError(net::ProcessCrashPoint::kPostCommit);
        run.HaltLocked(net::ProcessCrashPoint::kPostCommit);
      }
      if (commit_status.ok()) {
        cid = run.registry->ClusterOf(host);
        NELA_CHECK_NE(cid, cluster::kNoCluster);
      }
    }
    // Checkpoint cadence: every checkpoint_interval turnstile passes. The
    // pass count is deterministic (rank order), but region publishes append
    // in parallel after the turnstile, so the exact lsn a checkpoint covers
    // is scheduling-dependent -- recovery replays whatever the snapshot
    // missed, so only the replayed/skipped split varies, never the digest.
    // (A positive interval implies run.durable; RunInternal validates it.)
    if (!run.halted && service.checkpoint_interval > 0 &&
        ++run.commits_since_checkpoint >= service.checkpoint_interval) {
      run.commits_since_checkpoint = 0;
      ++run.checkpoint_seq;
      const util::Status ckpt = run.durable->CheckpointAll(run.checkpoint_seq);
      if (!ckpt.ok()) {
        if (run.crash != nullptr && run.crash->crashed()) {
          run.HaltLocked(net::ProcessCrashPoint::kMidCheckpoint);
          if (commit_status.ok()) commit_status = ckpt;
        } else if (run.first_error.ok()) {
          run.first_error = ckpt;
        }
      } else {
        ++run.checkpoints_written;
      }
    }
    // Join the cluster's publisher queue before opening the turnstile:
    // publisher priority is by ordinal even though resolution runs later,
    // in parallel.
    if (commit_status.ok() && !run.halted) {
      run.latches[cid].waiters.insert(ordinal);
    }
    ++run.next_commit;
    run.turn_cv.NotifyAll();
    if (run.halted) return util::Status::Ok();
  }

  record.host = host;
  record.ordinal = ordinal;
  if (!commit_status.ok()) {
    ctx.trace().Record("cluster", commit_status.code(),
                       commit_status.message());
    record.trace = ctx.trace().ToString();
    record.wall_ms = timer.ElapsedMillis();
    run.delivered[ordinal] = 1;
    return commit_status;
  }

  // --- Region resolution: reuse the cluster's published region, or become
  // its publisher (smallest unresolved ordinal first -- should an earlier
  // publisher degrade, the next-oldest waiter promotes itself, exactly the
  // sequential recovery order) ---------------------------------------------
  bool reuse = false;
  {
    util::MutexLock lock(run.mu);
    while (!run.halted) {
      if (run.registry->RegionOf(cid).has_value()) {
        reuse = true;
        run.latches[cid].waiters.erase(ordinal);
        break;
      }
      RunState::Latch& latch = run.latches[cid];
      if (!latch.computing && *latch.waiters.begin() == ordinal) {
        latch.computing = true;
        latch.waiters.erase(ordinal);
        break;
      }
      lock.Unlock();
      const bool rescued = TryRescue(run, rank);
      lock.Lock();
      if (!rescued && !run.halted) run.region_cv.Wait(lock);
    }
    if (run.halted) return util::Status::Ok();
  }

  const cluster::ClusterInfo& info = run.registry->info(cid);
  core::PipelineState state;
  state.host = host;
  state.k = service.k;
  state.cluster_info = &info;
  state.shard.shard_count = run.map.shard_count();
  state.shard.home_shard = home;
  state.shard.owner_shard = run.map.OwnerOf(info.members);
  state.shard.cross_shard = run.map.CrossesShards(info.members);
  state.outcome.cluster_id = cid;
  state.outcome.cluster_reused = resolved_hit;
  state.outcome.clustering_messages = involved;
  state.outcome.anonymity_satisfied = info.valid;

  // Deterministic stage records mirroring the sequential pipeline's wording
  // (written only now, after the outcome is fully resolved).
  auto append = [&](const char* stage, util::StatusCode code, bool ran,
                    std::string detail) {
    core::StageRecord stage_record;
    stage_record.stage = stage;
    stage_record.code = code;
    stage_record.ran = ran;
    stage_record.detail = std::move(detail);
    ctx.trace().Record(stage_record.stage, stage_record.code,
                       stage_record.detail);
    state.outcome.degradation.stages.push_back(std::move(stage_record));
  };

  util::Status status;
  if (reuse) {
    state.outcome.region = *run.registry->RegionOf(cid);
    state.outcome.region_reused = true;
    append("resolve_reuse", util::StatusCode::kOk, true,
           "hit cluster=" + std::to_string(cid) + " region=reused");
    for (const char* stage :
         {"cluster", "claim_commit", "secure_bound", "publish"}) {
      append(stage, util::StatusCode::kOk, false, "skipped");
    }
  } else {
    if (resolved_hit) {
      append("resolve_reuse", util::StatusCode::kOk, true,
             "hit cluster=" + std::to_string(cid) + " region=pending");
      append("cluster", util::StatusCode::kOk, true, "resolved");
    } else {
      append("resolve_reuse", util::StatusCode::kOk, true, "miss");
      append("cluster", util::StatusCode::kOk, true,
             "cluster=" + std::to_string(cid) +
                 " members=" + std::to_string(info.members.size()) +
                 " valid=" + std::to_string(info.valid ? 1 : 0) +
                 " involved=" + std::to_string(involved));
    }
    core::ClaimCommitStage claim_commit;
    core::SecureBoundStage::Config bound_config;
    bound_config.dataset = &dataset_;
    bound_config.policy_factory = &policy_factory_;
    bound_config.network = run.network.get();
    // Backoff jitter (if the network ever delays) draws from the request's
    // private sub-stream, never from shared state.
    bound_config.jitter_from_context = true;
    core::SecureBoundStage secure_bound(bound_config);
    core::PublishStage publish(run.registry, &secure_bound,
                               run.network.get(), run.region_writer.get());
    const std::vector<core::Stage*> stages = {&claim_commit, &secure_bound,
                                              &publish};
    status = core::RunPipeline(stages, ctx, state);
    {
      util::MutexLock lock(run.mu);
      run.latches[cid].computing = false;
      run.region_cv.NotifyAll();
      if (!status.ok() && run.crash != nullptr && run.crash->crashed()) {
        // The publish path crashed mid-WAL-append: halt instead of
        // reporting a per-request failure.
        run.HaltLocked(net::ProcessCrashPoint::kMidWalAppend);
        return util::Status::Ok();
      }
    }
  }
  core::FinalizeDegradation(ctx, &state.outcome);

  record.outcome = std::move(state.outcome);
  record.trace = ctx.trace().ToString();
  record.net_stats = ctx.scope().stats();
  record.wall_ms = timer.ElapsedMillis();
  run.delivered[ordinal] = 1;
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
  const bool baseline_mechanism =
      service.mechanism != audit::MechanismFamily::kClusterBound;
  if (baseline_mechanism && !config_.durability_dir.empty()) {
    return util::InvalidArgumentError(
        "baseline mechanisms write no registry state; durability does not "
        "compose with them");
  }
  if (baseline_mechanism && service.stall_ordinal != kNoStallOrdinal) {
    return util::InvalidArgumentError(
        "stall injection targets the turnstile machinery, which "
        "baseline mechanisms bypass");
  }
  if (baseline_mechanism && !service.fault_plan.process_crashes.empty()) {
    return util::InvalidArgumentError(
        "process crash points are commit/WAL/checkpoint events, which "
        "baseline mechanisms never reach");
  }

  RunState run(dataset_, config_.shards);
  run.sharded = registry != nullptr
                    ? std::make_unique<cluster::ShardedRegistry>(
                          std::move(registry), &run.map)
                    : std::make_unique<cluster::ShardedRegistry>(user_count,
                                                                 &run.map);
  run.registry = run.sharded->global();
  {
    // Setup is single-threaded, but checkpoint_seq is guarded state; the
    // uncontended lock keeps the annotation exact.
    util::MutexLock lock(run.mu);
    run.checkpoint_seq = checkpoint_seq_start;
  }
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

  if (baseline_mechanism) {
    // One shared, stateless mechanism instance: Cloak is thread-safe on
    // distinct contexts, and all its randomness comes from each request's
    // private sub-stream.
    auto made = mechanisms::MakeMechanism(service.mechanism, dataset_,
                                          run.network.get(), service.k,
                                          service.mechanism_params);
    if (!made.ok()) return made.status();
    run.mechanism = std::move(made).value();
  }

  util::Rng workload_rng(service.workload_seed);
  run.hosts = SampleWorkload(user_count, service.requests, workload_rng);
  run.records.resize(service.requests);
  run.delivered.assign(service.requests, 0);
  run.home_of.resize(service.requests);
  for (uint64_t ordinal = 0; ordinal < service.requests; ++ordinal) {
    run.records[ordinal].host = run.hosts[ordinal];
    run.records[ordinal].ordinal = ordinal;
    run.home_of[ordinal] = run.map.HomeShardOf(run.hosts[ordinal]);
  }

  run.commit_rank.assign(service.requests, kNotAdmitted);
  AdmitWorkload(run);
  if (service.stall_ordinal != kNoStallOrdinal &&
      (service.stall_ordinal >= service.requests ||
       run.commit_rank[service.stall_ordinal] == kNotAdmitted)) {
    return util::InvalidArgumentError(
        "stall_ordinal names a request that was not admitted");
  }
  const uint32_t thread_count = std::max(1u, service.threads);
  const util::WallTimer wall_timer;
  auto worker = [&run, this] {
    while (true) {
      {
        util::MutexLock lock(run.mu);
        if (run.halted) break;
      }
      const uint64_t index =
          run.next_work.fetch_add(1, std::memory_order_relaxed);
      if (index >= run.admitted_ordinals.size()) break;
      const uint64_t ordinal = run.admitted_ordinals[index];
      const util::Status status =
          ProcessRequest(run, ordinal, /*allow_stall=*/true);
      if (!status.ok()) {
        util::MutexLock lock(run.mu);
        if (run.first_error.ok()) run.first_error = status;
      }
    }
  };
  // All workers run on the shared fork-join pool; worker identity is
  // irrelevant (ordinals come from the atomic counter and commits are
  // serialized by the turnstile), so the digest stays bit-identical at any
  // thread count.
  util::ThreadPool pool(thread_count);
  pool.RunOnAllThreads([&worker](uint32_t) { worker(); });

  // Safety net: a request parked near the end of the workload may have no
  // younger request left to rescue it (every later worker already exited).
  // The main thread plays watchdog until the lot is empty.
  while (TryRescue(run, ~0ull)) {
  }

  const double wall_seconds = wall_timer.ElapsedSeconds();

  const bool crashed = run.crash != nullptr && run.crash->crashed();
  // Workers have joined; snapshot the guarded outcome state under the
  // (now uncontended) lock rather than reading it bare.
  std::optional<net::ProcessCrashPoint> crash_point;
  util::Status first_error;
  uint64_t checkpoints_written = 0;
  {
    util::MutexLock lock(run.mu);
    crash_point = run.crash_point;
    first_error = run.first_error;
    checkpoints_written = run.checkpoints_written;
  }
  if (crashed) {
    // Unfinished admitted requests died with the process: report each as a
    // structured crash abort (never silently, never with a coordinate).
    const net::ProcessCrashPoint point =
        crash_point.value_or(net::ProcessCrashPoint::kPreCommit);
    for (uint64_t ordinal : run.admitted_ordinals) {
      if (run.delivered[ordinal] == 0) {
        FillCrashAbortRecord(run, ordinal, point);
      }
    }
  } else if (!first_error.ok()) {
    return first_error;
  }

  ShardedServiceResult sharded_result;
  ServiceResult& result = sharded_result.service;
  result.crashed = crashed;
  result.crash_point = crash_point;
  result.records = std::move(run.records);
  result.wall_seconds = wall_seconds;
  result.speculation_aborts =
      run.speculation_aborts.load(std::memory_order_relaxed);
  result.watchdog_requeues =
      run.watchdog_requeues.load(std::memory_order_relaxed);
  if (run.durable != nullptr) result.wal_records = run.durable->wal_records();
  result.checkpoints_written = checkpoints_written;

  const uint32_t shard_count = run.map.shard_count();
  sharded_result.shards.resize(shard_count);
  std::vector<std::vector<double>> shard_waits(shard_count);
  std::vector<double> queue_waits;
  for (const ServiceRequestRecord& record : result.records) {
    ShardRunStats& stats = sharded_result.shards[run.home_of[record.ordinal]];
    ++stats.requests_routed;
    if (!record.admitted) {
      if (record.shed == ShedCause::kQueueOverflow) {
        ++result.shed_queue_overflow;
        ++stats.shed_queue_overflow;
      } else {
        ++result.shed_deadline;
        ++stats.shed_deadline;
      }
    } else {
      ++result.admitted;
      ++stats.admitted;
      queue_waits.push_back(record.queue_wait_ms);
      shard_waits[run.home_of[record.ordinal]].push_back(
          record.queue_wait_ms);
      if (record.aborted_by_crash) ++result.aborted_by_crash;
    }
  }
  // Served throughput: shed requests were refused and crash aborts never
  // finished, so neither counts as served.
  result.requests_per_sec =
      static_cast<double>(result.admitted - result.aborted_by_crash) /
      std::max(wall_seconds, 1e-9);
  std::sort(queue_waits.begin(), queue_waits.end());
  result.p50_queue_wait_ms = PercentileMs(queue_waits, 50.0);
  result.p99_queue_wait_ms = PercentileMs(queue_waits, 99.0);

  // Outcome digest: an FNV-1a fold of every request's outcome facts in
  // ordinal order. Unlike the registry digest it also witnesses baseline
  // mechanisms (whose registry stays empty), so the cross-thread-count
  // determinism assertion is one identity for every mechanism.
  uint64_t outcome_digest = 14695981039346656037ull;
  const auto fold = [&outcome_digest](uint64_t value) {
    outcome_digest ^= value;
    outcome_digest *= 1099511628211ull;
  };
  for (const ServiceRequestRecord& record : result.records) {
    fold(record.ordinal);
    fold(record.host);
    fold(record.admitted ? 1u : 0u);
    fold(record.outcome.anonymity_satisfied ? 1u : 0u);
    const geo::Rect& region = record.outcome.region;
    if (!region.empty()) {
      fold(DoubleBits(region.min_x()));
      fold(DoubleBits(region.min_y()));
      fold(DoubleBits(region.max_x()));
      fold(DoubleBits(region.max_y()));
    }
    for (const geo::Point& probe : record.outcome.probes) {
      fold(DoubleBits(probe.x));
      fold(DoubleBits(probe.y));
    }
  }
  result.outcome_digest = outcome_digest;

  // Registry digest + reciprocity audit over the final state.
  result.registry_digest = run.registry->Digest();
  const uint32_t clusters = run.registry->cluster_count();
  result.clusters_formed = clusters;
  std::vector<uint32_t> membership_count(user_count, 0);
  for (cluster::ClusterId id = 0; id < clusters; ++id) {
    for (graph::VertexId member : run.registry->info(id).members) {
      ++membership_count[member];
    }
  }
  result.reciprocity_ok = true;
  for (uint32_t count : membership_count) {
    if (count > 1) result.reciprocity_ok = false;
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
    std::sort(shard_waits[shard].begin(), shard_waits[shard].end());
    stats.p50_queue_wait_ms = PercentileMs(shard_waits[shard], 50.0);
    stats.p99_queue_wait_ms = PercentileMs(shard_waits[shard], 99.0);
  }

  std::vector<double> latencies;
  for (const ServiceRequestRecord& record : result.records) {
    if (record.admitted && !record.aborted_by_crash) {
      latencies.push_back(record.wall_ms);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  result.p50_latency_ms = PercentileMs(latencies, 50.0);
  result.p99_latency_ms = PercentileMs(latencies, 99.0);
  return sharded_result;
}

}  // namespace nela::sim
