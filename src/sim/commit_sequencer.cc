#include "sim/commit_sequencer.h"

#include <string>
#include <utility>

namespace nela::sim {

void RegionLatch::Join(cluster::ClusterId cluster, uint64_t rank) {
  slots_[cluster].waiters.insert(rank);
}

RegionLatch::Decision RegionLatch::Decide(cluster::ClusterId cluster,
                                          uint64_t rank,
                                          bool region_published) {
  Slot& slot = slots_[cluster];
  NELA_CHECK(!slot.waiters.empty());
  if (!region_published &&
      (slot.computing || *slot.waiters.begin() != rank)) {
    return Decision::kWait;
  }
  slot.waiters.erase(rank);
  if (region_published) return Decision::kReuse;
  slot.computing = true;
  return Decision::kPublish;
}

void RegionLatch::Release(cluster::ClusterId cluster) {
  slots_[cluster].computing = false;
}

CommitSequencer::CommitSequencer(const Options& options, RescueFn rescue)
    : registry_(options.registry), durable_(options.durable),
      crash_(options.crash), checkpoint_interval_(options.checkpoint_interval),
      stall_rank_(options.stall_rank), rescue_(std::move(rescue)),
      checkpoint_seq_(options.checkpoint_seq) {
  NELA_CHECK(registry_ != nullptr);
  NELA_CHECK(checkpoint_interval_ == 0 || durable_ != nullptr);
}

bool CommitSequencer::Pass(uint64_t rank,
                           const std::function<TurnResult()>& turn) {
  util::MutexLock lock(mu_);
  // Every wake-up first tries a rescue; the state is re-read after each
  // unlocked rescue attempt, so no notification is lost.
  bool try_rescue = true;
  while (next_rank_ != rank && !halted_) {
    if (try_rescue) {
      lock.Unlock();
      try_rescue = TryRescue(rank);
      lock.Lock();
    } else {
      turn_cv_.Wait(lock);
      try_rescue = true;
    }
  }
  if (halted_) return false;
  const TurnResult result = turn();
  if (result.crashed.has_value()) HaltLocked(*result.crashed);
  // The pass count, hits included, is deterministic (rank order); the lsn a
  // checkpoint covers is not, since publishes append in parallel, but
  // recovery replays whatever the snapshot missed, so only the
  // replayed/skipped split varies, never the digest.
  if (!halted_ && checkpoint_interval_ > 0 &&
      ++passes_since_checkpoint_ >= checkpoint_interval_) {
    passes_since_checkpoint_ = 0;
    const util::Status status = durable_->CheckpointAll(++checkpoint_seq_);
    if (status.ok()) {
      ++report_.checkpoints_written;
    } else if (crash_ != nullptr && crash_->crashed()) {
      HaltLocked(net::ProcessCrashPoint::kMidCheckpoint);
    } else if (report_.first_error.ok()) {
      report_.first_error = status;
    }
  }
  // Queue before opening the turnstile: publisher priority is by rank even
  // though resolution runs later, in parallel.
  if (result.status.ok() && !halted_) latch_.Join(result.cluster, rank);
  ++next_rank_;
  turn_cv_.NotifyAll();
  return !halted_;
}

CommitSequencer::TurnResult CommitSequencer::Commit(
    graph::VertexId host, cluster::ShardId home, Speculation speculation,
    cluster::DistributedTConnClusterer& proposer) {
  TurnResult result;
  const auto crash_at = [this, &result](net::ProcessCrashPoint point) {
    if (crash_ == nullptr || !crash_->ShouldCrash(point)) return false;
    result.status = util::UnavailableError(
        std::string("simulated process crash at ") +
        net::ProcessCrashPointName(point));
    result.crashed = point;
    return true;
  };
  if (crash_at(net::ProcessCrashPoint::kPreCommit)) return result;
  if (!speculation.proposal.has_value() ||
      speculation.version != registry_->version()) {
    // Stale mask (or no speculation): recompute against the authoritative
    // membership. It only proposes; registration follows below.
    speculation_aborts_.fetch_add(1, std::memory_order_relaxed);
    auto recomputed = proposer.Propose(host, registry_->ActiveMask(), nullptr);
    if (!recomputed.ok()) {
      result.status = recomputed.status();
      return result;
    }
    speculation.proposal = std::move(recomputed).value();
  }
  cluster::ClusterProposal& proposal = *speculation.proposal;
  result.involved = proposal.involved_users;
  if (durable_ != nullptr) {
    // One record in the coordinating shard's stream, cross-shard members
    // and all: atomic under a torn WAL tail (sharded_durable_registry.h).
    result.status = durable_->RegisterBatch(home, proposal.clusters);
  } else {
    for (cluster::ClusterInfo& info : proposal.clusters) {
      auto committed = registry_->Register(std::move(info.members),
                                           info.connectivity, info.valid);
      if (!committed.ok()) {
        result.status = committed.status();
        break;
      }
    }
  }
  if (!result.status.ok()) {
    // A mid-WAL-append crash surfaces as the commit error.
    if (crash_ != nullptr && crash_->crashed()) {
      result.crashed = net::ProcessCrashPoint::kMidWalAppend;
    }
    return result;
  }
  if (crash_at(net::ProcessCrashPoint::kPostCommit)) return result;
  result.cluster = registry_->ClusterOf(host);
  NELA_CHECK_NE(result.cluster, cluster::kNoCluster);
  return result;
}

bool CommitSequencer::AwaitRegion(cluster::ClusterId cluster, uint64_t rank,
                                  bool* publish) {
  util::MutexLock lock(mu_);
  bool try_rescue = true;  // as in Pass
  while (!halted_) {
    const RegionLatch::Decision decision = latch_.Decide(
        cluster, rank, registry_->RegionOf(cluster).has_value());
    if (decision != RegionLatch::Decision::kWait) {
      *publish = decision == RegionLatch::Decision::kPublish;
      return true;
    }
    if (try_rescue) {
      lock.Unlock();
      try_rescue = TryRescue(rank);
      lock.Lock();
    } else {
      region_cv_.Wait(lock);
      try_rescue = true;
    }
  }
  return false;
}

bool CommitSequencer::ReleaseRegion(cluster::ClusterId cluster,
                                    const util::Status& status) {
  util::MutexLock lock(mu_);
  latch_.Release(cluster);
  region_cv_.NotifyAll();
  if (status.ok() || crash_ == nullptr || !crash_->crashed()) return true;
  // The publish crashed mid-WAL-append.
  HaltLocked(net::ProcessCrashPoint::kMidWalAppend);
  return false;
}

bool CommitSequencer::ParkIfStalled(uint64_t rank) {
  if (rank != stall_rank_) return false;
  util::MutexLock lock(mu_);
  if (stalled_) return false;  // the rescue re-executes normally
  stalled_ = true;
  parked_.insert(rank);
  turn_cv_.NotifyAll();
  region_cv_.NotifyAll();
  return true;
}

bool CommitSequencer::TryRescue(uint64_t max_rank) {
  uint64_t rank = 0;
  {
    util::MutexLock lock(mu_);
    if (halted_ || parked_.empty() || *parked_.begin() >= max_rank) {
      return false;
    }
    rank = *parked_.begin();
    parked_.erase(parked_.begin());
    ++report_.rescues;
  }
  // The abandoned attempt wrote nothing shared and consumed nothing from
  // the request's context, so the re-execution is bit-identical to a run
  // without the stall.
  rescue_(rank);
  return true;
}

void CommitSequencer::RecordError(const util::Status& status) {
  if (status.ok()) return;
  util::MutexLock lock(mu_);
  if (report_.first_error.ok()) report_.first_error = status;
}

CommitSequencer::Report CommitSequencer::report() const {
  util::MutexLock lock(mu_);
  Report report = report_;
  report.speculation_aborts =
      speculation_aborts_.load(std::memory_order_relaxed);
  return report;
}

void CommitSequencer::HaltLocked(net::ProcessCrashPoint point) {
  halted_ = true;
  if (!report_.crash_point.has_value()) report_.crash_point = point;
  turn_cv_.NotifyAll();
  region_cv_.NotifyAll();
}

}  // namespace nela::sim
