// WAL-then-apply wrapper for the service: K >= 1 independent WAL streams,
// one per shard, in front of the single authoritative registry.
//
// Stream discipline: one turnstile commit -- however many clusters it
// registers, and whichever shards own them -- is appended as ONE
// kShardRegisterBatch record to exactly one stream: the *coordinating*
// shard's (the home shard of the request that committed). That keeps the
// atomicity property per stream (a torn tail hides whole commits, never
// partial ones) without a cross-stream commit protocol.
// Every later kSetRegion for a cluster goes to the stream that logged its
// batch, so each stream replays self-contained: RecoverShard(s) is a pure
// function of shard s's directory.
//
// Because commits are serialized by the service turnstile and each lands
// in one stream, the union of all streams at any crash instant is a prefix
// of the global commit history with at most ONE torn record total -- the
// stream being appended when the process died. That is the "crash one
// shard, recover it, resume" contract: sibling shard directories are
// byte-identical to an uninterrupted run's.
//
// Lock order: ShardedDurableRegistry::mu_ -> each stream's WalWriter lock
// -> Registry::mu_. The registry leg is declared to the analysis via
// ACQUIRED_BEFORE on mu_; the stream locks sit behind a vector, which the
// annotation cannot name.

#ifndef NELA_DURABILITY_SHARDED_DURABLE_REGISTRY_H_
#define NELA_DURABILITY_SHARDED_DURABLE_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/registry.h"
#include "durability/crash_scheduler.h"
#include "durability/wal.h"
#include "geo/rect.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nela::durability {

class ShardedDurableRegistry {
 public:
  // Creates the shard directories under `base_dir` and opens one WAL
  // stream per shard. `next_lsns` (size shard_count) continues each
  // stream's lsn sequence (all 1 on a fresh run); `stream_of` seeds the
  // cluster -> logging-stream map from recovery (empty on a fresh run);
  // `truncate` starts fresh logs. `registry` and `crash` (nullable) must
  // outlive the instance.
  static util::Result<std::unique_ptr<ShardedDurableRegistry>> Open(
      cluster::Registry* registry, const std::string& base_dir,
      uint32_t shard_count, CrashPointScheduler* crash,
      std::vector<uint64_t> next_lsns,
      std::unordered_map<cluster::ClusterId, uint32_t> stream_of,
      bool truncate);

  // Logs one atomic commit (all `clusters`, with their soon-to-be global
  // ids) to `stream`, then applies the registrations to the registry.
  [[nodiscard]] util::Status RegisterBatch(
      uint32_t stream, const std::vector<cluster::ClusterInfo>& clusters)
      EXCLUDES(mu_);

  // Logs the region to the stream that logged `id`'s batch, then applies.
  [[nodiscard]] util::Status SetRegion(cluster::ClusterId id,
                                       const geo::Rect& region) EXCLUDES(mu_);

  // Cuts checkpoint `seq` for every stream: shard s's file snapshots the
  // clusters logged in stream s (current regions included) at stream s's
  // current covered lsn. A kMidCheckpoint crash tears the file being
  // written and leaves the remaining shards' files uncut.
  [[nodiscard]] util::Status CheckpointAll(uint64_t seq) EXCLUDES(mu_);

  uint32_t stream_count() const {
    return static_cast<uint32_t>(wals_.size());
  }
  uint64_t wal_records() const;
  uint64_t wal_records_for(uint32_t stream) const;
  uint64_t last_lsn(uint32_t stream) const EXCLUDES(mu_);

 private:
  ShardedDurableRegistry(cluster::Registry* registry, std::string base_dir,
                         CrashPointScheduler* crash,
                         std::vector<uint64_t> next_lsns,
                         std::unordered_map<cluster::ClusterId, uint32_t>
                             stream_of);

  cluster::Registry* registry_;
  const std::string base_dir_;
  CrashPointScheduler* crash_;
  // Stream handles are append-only after Open; each WalWriter serializes
  // its own appends internally.
  std::vector<std::unique_ptr<WalWriter>> wals_;

  // This lock precedes every stream's WAL lock and the registry's.
  mutable util::Mutex mu_ ACQUIRED_BEFORE(registry_->mu());
  std::vector<uint64_t> next_lsns_ GUARDED_BY(mu_);
  // Cluster id -> stream that logged it (guards SetRegion routing and the
  // per-stream checkpoint slices).
  std::unordered_map<cluster::ClusterId, uint32_t> stream_of_
      GUARDED_BY(mu_);
  // Ids logged per stream, ascending (commits arrive in id order).
  std::vector<std::vector<cluster::ClusterId>> clusters_of_stream_
      GUARDED_BY(mu_);
};

}  // namespace nela::durability

#endif  // NELA_DURABILITY_SHARDED_DURABLE_REGISTRY_H_
