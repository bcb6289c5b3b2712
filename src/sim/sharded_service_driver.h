// The anonymizer service driver: S cloaking requests over one shared
// registry, executed by a worker pool with bit-identical results at any
// thread count, partitioned into K >= 1 spatial shards that each own a
// registry slice, an admission queue, and a WAL/checkpoint stream.
//
//  * Routing -- a cluster::ShardMap grid partitions the unit square; every
//    request is routed to the home shard of its host deterministically
//    (a pure function of the dataset and K, never of execution order).
//  * Admission -- requests arrive on ONE global simulated Poisson clock and
//    queue in per-shard bounded c-server queues (worker threads are
//    distributed across shards as servers, floor one per shard). Requests
//    that find their queue full are shed with kUnavailable; requests whose
//    simulated queue wait exceeds the deadline are shed with
//    kDeadlineExceeded. Every shed produces a structured DegradationReport
//    (finalized exactly once) and never exposes a coordinate. Admitted
//    requests carry the wait as simulated backoff so the in-pipeline
//    deadline check still fires. Sheds are computed sequentially up front
//    from the workload seed, so the shed set is a function of (config,
//    thread count, K). With offered_rate_per_ms = 0 the queue model is off:
//    the closed-batch mode, everything admitted at t=0.
//  * Speculation (parallel) -- a request whose host is already clustered
//    in the live registry is a reuse hit and copies nothing (membership is
//    immutable once registered; the turnstile checks again). Any other
//    request copies the remaining-WPG mask and its version under the
//    registry lock (Registry::ActiveMask) and has phase 1 *propose* its
//    clusters over that mask without registering them
//    (DistributedTConnClusterer::Propose). Speculation takes no lock
//    beyond that copy and never waits on another request.
//  * Commit -- a single global turnstile serializes commits in admission
//    order for every K and is the service's only concurrency control:
//    request o commits only after every older admitted request has, and
//    commits its speculation only if the mask version still matches the
//    registry; otherwise phase 1 proposes again, serially inside the
//    turnstile. Propose reads nothing but the mask, and only Register
//    changes the mask (bumping the version), so an unchanged version
//    proves the speculation equals the serial result. The registry
//    therefore evolves exactly as a sequential run would, and the final
//    digest is INDEPENDENT of the thread count and the shard count:
//    sharding relabels ownership, never what gets clustered (see
//    sharded_registry.h).
//  * Region latch (per cluster) -- the earliest request that finds its
//    committed cluster region-less becomes the cluster's publisher; later
//    requests wait for the published region and reuse it. Should the
//    publisher degrade, the next-oldest waiter promotes itself, again
//    matching the sequential order. Bounding + publish run in parallel,
//    with backoff jitter drawn from the request's private RNG sub-stream.
//  * Durability -- with a durability directory configured, each turnstile
//    commit is logged as one atomic record to the coordinating (home)
//    shard's WAL stream under <base>/shard-<s>/, and checkpoints are cut
//    per shard every checkpoint_interval commits
//    (durability::ShardedDurableRegistry). K=1 logs to <base>/shard-0 like
//    any other K. Recovery is per shard and parallel
//    (durability::RecoverAllShards + AssembleRegistry), and Resume()
//    re-submits the workload: work that committed before a crash resolves
//    as reuse, the rest re-executes with the same per-request RNG
//    sub-streams, so the final digest is bit-identical to an uninterrupted
//    run.
//  * Chaos -- net::FaultPlan::process_crashes schedules process-level
//    crashes at the commit/WAL/checkpoint points; when one fires the run
//    halts as a real crash would (workers unwind, unfinished requests are
//    reported as crash aborts, on-disk state is left exactly as the crash
//    point dictates -- including a torn WAL record or checkpoint).
//  * Watchdog -- a worker that stalls after speculating (stall_ordinal,
//    test-only) blocks the turnstile for every younger request; whichever
//    request waits on it re-executes it inline from a fresh context, so
//    the result -- and the digest -- is as if the stall never happened.
//
// Per-request traces carry only deterministic facts and are written after
// the request's outcome fully resolves, so for a given K the concatenated
// traces are bit-identical at any thread count (with K > 1 they also name
// each request's home and owner shard). Wall-clock latency and the
// speculation abort total are scheduling-dependent and reported separately
// as performance data. Thread-count invariance needs a fault-free network:
// injected loss draws from a shared RNG in scheduling-dependent order.

#ifndef NELA_SIM_SHARDED_SERVICE_DRIVER_H_
#define NELA_SIM_SHARDED_SERVICE_DRIVER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/leak_contract.h"
#include "cluster/registry.h"
#include "cluster/shard_map.h"
#include "core/cloaking_engine.h"
#include "core/policy_factory.h"
#include "data/dataset.h"
#include "durability/sharded_recovery.h"
#include "graph/wpg.h"
#include "mechanisms/factory.h"
#include "net/accounting.h"
#include "net/fault_plan.h"
#include "net/network.h"
#include "util/status.h"

namespace nela::sim {

// Sentinel: no stall injection.
inline constexpr uint64_t kNoStallOrdinal = ~0ull;

struct ServiceConfig {
  // --- Workload ----------------------------------------------------------
  // Anonymity requirement.
  uint32_t k = 5;
  // Number of cloaking requests S (distinct hosts).
  uint32_t requests = 64;
  // Worker threads; 0 behaves as 1. Also the server count c of the
  // admission queue model.
  uint32_t threads = 1;
  // Seed of every request's private RNG sub-stream (see
  // core::RequestContext::DeriveStreamSeed).
  uint64_t master_seed = 1;
  // Seed selecting which hosts issue requests.
  uint64_t workload_seed = 7;
  // Attach a shared network so phase-2 traffic is accounted per request
  // (scoped) and globally.
  bool with_network = true;

  // --- Mechanism ---------------------------------------------------------
  // Which privacy mechanism serves the requests. kClusterBound is the
  // native clustering+bounding pipeline with all the machinery below; any
  // other family runs the corresponding baseline through MechanismStage --
  // requests are independent (no clustering, commit turnstile, or
  // registry writes), so the mode composes with admission, the fault plan,
  // and the observer tap, but not with durability or stall injection.
  audit::MechanismFamily mechanism = audit::MechanismFamily::kClusterBound;
  mechanisms::MechanismParams mechanism_params;

  // --- Admission / overload ---------------------------------------------
  // Mean arrivals per simulated millisecond (Poisson process). 0 disables
  // the queue model entirely: all requests arrive at t=0 with zero wait and
  // nothing is shed (the closed-batch mode).
  double offered_rate_per_ms = 0.0;
  // Simulated per-request service time of the queue model; the sustainable
  // load is threads / service_time_ms arrivals per ms.
  double service_time_ms = 1.0;
  // Waiting-room bound: a request that arrives while this many admitted
  // requests are queued (arrived, not yet started) is shed with
  // kUnavailable. 0 = unbounded.
  uint32_t queue_capacity = 0;
  // Per-request deadline over simulated time (queue wait + network
  // latency + backoff). A request whose queue wait alone exceeds it is shed
  // before execution with kDeadlineExceeded; admitted requests keep the
  // remainder as their in-pipeline deadline budget. Infinity = no deadline.
  double deadline_ms = std::numeric_limits<double>::infinity();

  // --- Durability --------------------------------------------------------
  // Cut a checkpoint every this many turnstile commits; 0 disables. Needs
  // ShardedServiceConfig::durability_dir.
  uint32_t checkpoint_interval = 0;

  // --- Chaos -------------------------------------------------------------
  // Network faults (loss/latency/node crashes) plus process_crashes, the
  // scheduled process-level crash points consumed by this driver.
  net::FaultPlan fault_plan;

  // --- Watchdog (test-only) ---------------------------------------------
  // The request with this ordinal parks after speculation and must be
  // rescued by the watchdog path. kNoStallOrdinal disables injection.
  uint64_t stall_ordinal = kNoStallOrdinal;

  // Observer for every network message (e.g. the exposure audit); not
  // owned, may be null.
  net::TrafficTap* tap = nullptr;
};

// Why a request was refused at admission.
enum class ShedCause : uint8_t {
  kNone = 0,
  kQueueOverflow,  // waiting room full on arrival
  kDeadline,       // simulated queue wait exceeded the deadline
};

// One request's result. Everything except wall_ms is deterministic for a
// given (scenario, config) regardless of thread count.
struct ServiceRequestRecord {
  data::UserId host = 0;
  uint64_t ordinal = 0;
  // False when the request was shed at admission (outcome then carries the
  // structured degradation report of the shed).
  bool admitted = true;
  ShedCause shed = ShedCause::kNone;
  // True when a scheduled process crash aborted the request before its
  // outcome resolved; the report's failure_code is kUnavailable.
  bool aborted_by_crash = false;
  // Simulated arrival time and queue wait (both 0 with the queue model
  // off).
  double arrival_ms = 0.0;
  double queue_wait_ms = 0.0;
  core::CloakingOutcome outcome;
  // "stage CODE detail" lines (core::TraceSink::ToString).
  std::string trace;
  // Scoped traffic/retry accounting of this request.
  net::ScopeStats net_stats;
  // Wall-clock latency including turnstile/latch waits (scheduling-
  // dependent; excluded from determinism comparisons).
  double wall_ms = 0.0;
};

struct ServiceResult {
  // In ordinal order, shed and aborted requests included.
  std::vector<ServiceRequestRecord> records;
  // cluster::Registry::Digest() of the final registry: membership,
  // validity, and the bit patterns of every published region.
  uint64_t registry_digest = 0;
  // FNV fold of every request's outcome facts in ordinal order (host,
  // admission, satisfaction, region and probe coordinate bits): the
  // determinism witness that works for every mechanism, including
  // baselines that never touch the registry.
  uint64_t outcome_digest = 0;
  // Every user ended up in at most one cluster (must always hold).
  bool reciprocity_ok = false;
  uint32_t clusters_formed = 0;

  // Admission accounting.
  uint64_t admitted = 0;
  uint64_t shed_queue_overflow = 0;
  uint64_t shed_deadline = 0;
  uint64_t aborted_by_crash = 0;
  // Simulated queue-wait percentiles over admitted requests.
  double p50_queue_wait_ms = 0.0;
  double p99_queue_wait_ms = 0.0;

  // Durability accounting.
  uint64_t wal_records = 0;
  uint64_t checkpoints_written = 0;
  // True when a scheduled process crash halted the run; crash_point names
  // it. A crashed run returns Ok -- the crash is data, not a driver error.
  bool crashed = false;
  std::optional<net::ProcessCrashPoint> crash_point;

  // Watchdog accounting: stalled requests re-executed.
  uint64_t watchdog_requeues = 0;

  // Always 0: the service claims no users, so nothing conflicts, wounds or
  // retries. Kept only because the end-to-end benchmark still reads them;
  // the next change to the benchmark deletes them.
  uint64_t claim_conflicts = 0;
  uint64_t claim_wounds = 0;
  uint64_t speculation_retries = 0;
  // Requests whose speculation the turnstile could not commit (a stale
  // mask, or a speculative proposal that failed) and so recomputed
  // serially (scheduling-dependent).
  uint64_t speculation_aborts = 0;

  double wall_seconds = 0.0;
  // Served throughput: admitted requests that no crash aborted, per wall
  // second. Shed requests are refused, not served, and do not count.
  double requests_per_sec = 0.0;
  // Wall-latency percentiles over served requests (milliseconds).
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
};

struct ShardedServiceConfig {
  // Workload, admission, chaos, and checkpoint-cadence knobs.
  ServiceConfig service;
  // Spatial shard count K (>= 1).
  uint32_t shards = 1;
  // Base directory of the per-shard WAL/checkpoint streams (layout in
  // durability/shard_layout.h); empty disables durability.
  std::string durability_dir;
};

// Per-shard accounting of one run.
struct ShardRunStats {
  uint32_t shard = 0;
  // Population homed in this shard.
  uint32_t users = 0;
  // Arrivals routed here (admitted + shed).
  uint64_t requests_routed = 0;
  uint64_t admitted = 0;
  uint64_t shed_queue_overflow = 0;
  uint64_t shed_deadline = 0;
  // Clusters this shard owns in the final registry, and how many of those
  // straddle a shard boundary.
  uint64_t clusters_owned = 0;
  uint64_t cross_shard_clusters_owned = 0;
  // Records appended to this shard's WAL stream.
  uint64_t wal_records = 0;
  // cluster::ShardedRegistry::ShardDigest of this shard's slice.
  uint64_t shard_digest = 0;
  // Simulated queue-wait percentiles over requests admitted here.
  double p50_queue_wait_ms = 0.0;
  double p99_queue_wait_ms = 0.0;
};

struct ShardedServiceResult {
  // The global view of the run; its registry digest is the same for every
  // K.
  ServiceResult service;
  std::vector<ShardRunStats> shards;
  // Fold of the K shard slices merged back into commit order; equals
  // service.registry_digest for every K (the shard-count-invariance
  // identity the tests assert).
  uint64_t concatenated_digest = 0;
  // Committed clusters whose members span more than one shard.
  uint64_t cross_shard_clusters = 0;
  // Always 0: no claim is handed across shards any more. Kept only because
  // the end-to-end benchmark still reads it; the next change to the
  // benchmark deletes it.
  uint64_t cross_shard_handoffs = 0;
};

class ShardedServiceDriver {
 public:
  // `dataset` and `graph` must outlive the driver.
  ShardedServiceDriver(const data::Dataset& dataset, const graph::Wpg& graph,
                       core::PolicyFactory policy_factory,
                       const ShardedServiceConfig& config);

  // Runs the full workload against a fresh registry (truncating any
  // existing WAL streams). Repeatable: each call starts from empty state,
  // so two Run() calls with equal config produce identical digests and
  // traces.
  [[nodiscard]] util::Result<ShardedServiceResult> Run();

  // Continues a crashed run: the recovered slices are assembled back into
  // one registry, each stream's lsn sequence and the checkpoint numbering
  // continue where the shard's disk state ends, and the same workload is
  // re-submitted -- requests whose commits survived resolve as reuse, the
  // rest re-execute deterministically, so the final digests match an
  // uninterrupted run. Scheduled process crashes in service.fault_plan
  // remain armed -- clear them before resuming unless a second crash is
  // intended.
  [[nodiscard]] util::Result<ShardedServiceResult> Resume(
      const durability::ShardedRecoveredState& recovered);

 private:
  struct RunState;

  [[nodiscard]] util::Result<ShardedServiceResult> RunInternal(
      std::unique_ptr<cluster::Registry> registry,
      std::vector<uint64_t> shard_next_lsns,
      std::unordered_map<cluster::ClusterId, uint32_t> stream_of,
      bool truncate_wal, uint64_t checkpoint_seq_start);

  [[nodiscard]] util::Status ProcessRequest(RunState& run, uint64_t ordinal,
                                            bool allow_stall);
  // Baseline-mechanism path: one independent MechanismStage pipeline per
  // request -- no speculation, turnstile, or registry writes.
  [[nodiscard]] util::Status ProcessMechanismRequest(RunState& run,
                                                     uint64_t ordinal);
  bool TryRescue(RunState& run, uint64_t max_rank);
  void AdmitWorkload(RunState& run);
  void FillShedRecord(RunState& run, uint64_t ordinal, ShedCause cause,
                      double arrival_ms, double queue_wait_ms,
                      uint32_t occupancy);
  void FillCrashAbortRecord(RunState& run, uint64_t ordinal,
                            net::ProcessCrashPoint point);

  const data::Dataset& dataset_;
  const graph::Wpg& graph_;
  core::PolicyFactory policy_factory_;
  ShardedServiceConfig config_;
};

}  // namespace nela::sim

#endif  // NELA_SIM_SHARDED_SERVICE_DRIVER_H_
