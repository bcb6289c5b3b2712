// Where the service driver's concurrent requests meet, behind one mutex (a
// halt must wake both kinds of wait, and a rescue can run from either).
//
//  * CommitSequencer -- the commit turnstile. Requests pass one at a time
//    in rank order, for every shard count (a request's rank is its
//    position among admitted requests, so ranks order requests as their
//    ordinals do). An unclustered host commits inside its pass: its
//    speculation commits only if the registry's membership version still
//    equals the version of the mask it proposed from, else phase 1
//    proposes again, serially. Propose reads nothing but the mask and only
//    Register changes it (bumping the version), so the registry evolves
//    exactly as a sequential run's would. The sequencer also owns the
//    checkpoint cadence, the halt a fired crash point triggers, and the
//    watchdog's parking lot: a request waiting for its turn or for a region
//    first re-executes any older parked request (the rescue hook).
//  * RegionLatch -- publisher election per cluster: the smallest
//    unresolved rank publishes once no other publisher is computing,
//    and later waiters reuse the region. If a publisher finishes without
//    one (it degraded), the next-oldest waiter takes over.
//
// The mutex precedes every lock taken inside a turn: the durable
// registry's, the WAL streams' and the registry's.

#ifndef NELA_SIM_COMMIT_SEQUENCER_H_
#define NELA_SIM_COMMIT_SEQUENCER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <unordered_map>

#include "cluster/distributed_tconn.h"
#include "cluster/registry.h"
#include "cluster/shard_map.h"
#include "durability/crash_scheduler.h"
#include "durability/sharded_durable_registry.h"
#include "net/fault_plan.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nela::sim {

// Publisher election for the clusters of one run. Not synchronized: the
// CommitSequencer that owns it calls it under its lock.
class RegionLatch {
 public:
  enum class Decision { kWait, kReuse, kPublish };

  void Join(cluster::ClusterId cluster, uint64_t rank);
  // For `rank`, queued on `cluster`: kReuse once the region is published;
  // kPublish when it is the smallest unresolved rank and no publisher is
  // computing (the cluster is then computing until Release); kWait
  // otherwise. kReuse and kPublish resolve `rank`.
  Decision Decide(cluster::ClusterId cluster, uint64_t rank,
                  bool region_published);
  // The publisher of `cluster` finished, with or without a region.
  void Release(cluster::ClusterId cluster);

 private:
  struct Slot {
    bool computing = false;
    std::set<uint64_t> waiters;  // unresolved ranks
  };
  std::unordered_map<cluster::ClusterId, Slot> slots_;
};

class CommitSequencer {
 public:
  struct Options {
    // Commits land here (through `durable` when set), and the latch reads
    // published regions from it. `durable` and `crash` may be null.
    cluster::Registry* registry = nullptr;
    durability::ShardedDurableRegistry* durable = nullptr;
    durability::CrashPointScheduler* crash = nullptr;
    // Cut a checkpoint every this many passes (0: never); needs `durable`.
    uint32_t checkpoint_interval = 0;
    uint64_t checkpoint_seq = 0;  // the newest checkpoint already on disk
    // Parks its first attempt instead of passing (test-only).
    std::optional<uint64_t> stall_rank;
  };
  // Re-executes a parked request from a fresh context.
  using RescueFn = std::function<void(uint64_t rank)>;

  // Phase 1's proposal for a host over the mask of membership `version`.
  struct Speculation {
    std::optional<cluster::ClusterProposal> proposal;
    uint64_t version = 0;
  };
  // `cluster` is the host's (kNoCluster when the turn failed), `involved`
  // the users its commit's phase-1 run involved, `crashed` a process-crash
  // point that fired during the turn.
  struct TurnResult {
    util::Status status;
    cluster::ClusterId cluster = cluster::kNoCluster;
    uint64_t involved = 0;
    std::optional<net::ProcessCrashPoint> crashed;
  };
  struct Report {
    std::optional<net::ProcessCrashPoint> crash_point;
    util::Status first_error;
    uint64_t checkpoints_written = 0;
    uint64_t rescues = 0;
    uint64_t speculation_aborts = 0;  // serial recomputes (timing-dependent)
  };

  CommitSequencer(const Options& options, RescueFn rescue);

  // Waits until every older rank has passed, rescuing older parked
  // requests meanwhile. Then runs `turn` under the lock, halts if it
  // reports a fired crash point, counts the pass toward the checkpoint
  // cadence, queues `rank` at its cluster's latch if the turn succeeded,
  // and opens the turnstile for rank + 1. False when the run halted.
  bool Pass(uint64_t rank, const std::function<TurnResult()>& turn)
      EXCLUDES(mu_);

  // An unclustered `host`'s commit; call only from inside its turn. Touches
  // only objects with their own locks, so a turn may reach it through
  // virtual calls; a fired crash point is reported, not acted on. The
  // durable commit is one atomic record in `home`'s stream.
  TurnResult Commit(graph::VertexId host, cluster::ShardId home,
                    Speculation speculation,
                    cluster::DistributedTConnClusterer& proposer);

  // Waits until `rank`, queued at `cluster`'s latch, may reuse the region
  // or must publish it (*publish), rescuing older parked requests
  // meanwhile. False when the run halted.
  bool AwaitRegion(cluster::ClusterId cluster, uint64_t rank, bool* publish)
      EXCLUDES(mu_);
  // The publisher of `cluster` finished with `status`. False when the
  // publish failed because the process crashed: the run halts.
  bool ReleaseRegion(cluster::ClusterId cluster, const util::Status& status)
      EXCLUDES(mu_);

  // True when this is the stall rank's first attempt, now parked.
  bool ParkIfStalled(uint64_t rank) EXCLUDES(mu_);
  // Re-executes the oldest parked request if its rank is below `max_rank`
  // (a younger one would wait on the rescuer itself). True when one ran.
  bool TryRescue(uint64_t max_rank) EXCLUDES(mu_);

  // Keeps the first error a request reported.
  void RecordError(const util::Status& status) EXCLUDES(mu_);
  bool halted() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return halted_;
  }
  Report report() const EXCLUDES(mu_);

 private:
  // Sets the halt flag and wakes every waiter so the halt propagates.
  void HaltLocked(net::ProcessCrashPoint point) REQUIRES(mu_);

  cluster::Registry* const registry_;
  durability::ShardedDurableRegistry* const durable_;
  durability::CrashPointScheduler* const crash_;
  const uint32_t checkpoint_interval_;
  const std::optional<uint64_t> stall_rank_;
  const RescueFn rescue_;
  std::atomic<uint64_t> speculation_aborts_{0};

  mutable util::Mutex mu_;
  util::CondVar turn_cv_;
  util::CondVar region_cv_;
  uint64_t next_rank_ GUARDED_BY(mu_) = 0;
  RegionLatch latch_ GUARDED_BY(mu_);
  bool stalled_ GUARDED_BY(mu_) = false;
  // Ranks of parked requests; the oldest is rescued first.
  std::set<uint64_t> parked_ GUARDED_BY(mu_);
  // Set when a scheduled process crash fires: workers unwind without
  // delivering further outcomes, exactly as a dying process would.
  bool halted_ GUARDED_BY(mu_) = false;
  uint64_t passes_since_checkpoint_ GUARDED_BY(mu_) = 0;
  uint64_t checkpoint_seq_ GUARDED_BY(mu_);
  // Everything but speculation_aborts, which Commit counts unlocked.
  Report report_ GUARDED_BY(mu_);
};

}  // namespace nela::sim

#endif  // NELA_SIM_COMMIT_SEQUENCER_H_
