// Crash recovery: per-shard checkpoint restore + WAL replay.
//
// Each shard recovers from ITS OWN directory alone -- newest intact
// per-shard checkpoint, torn-tail truncation of its WAL stream, lsn-gated
// replay of kShardRegisterBatch / kSetRegion records -- so shards recover
// independently and in parallel, and recovering one shard never opens,
// reads, or mutates a sibling's files (the single-shard-crash isolation
// the kill-anywhere matrix asserts). A single-shard service is the K=1
// case: one stream under <base>/shard-0.
//
// Every step is a pure function of the on-disk state: recovering twice, or
// recovering only the crashed shard and then all of them, yields
// bit-identical slices. Because one turnstile commit lands in exactly one
// stream and commits are globally ordered, the union of the recovered
// slices is a contiguous prefix of the global cluster-id sequence;
// AssembleRegistry() merges the slices back into the single authoritative
// registry the service resumes against.

#ifndef NELA_DURABILITY_SHARDED_RECOVERY_H_
#define NELA_DURABILITY_SHARDED_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/registry.h"
#include "durability/checkpoint.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace nela::durability {

// One shard's recovered slice: the clusters its stream logged (ascending
// by global id, regions included where a kSetRegion survived).
struct ShardRecoveredState {
  uint32_t shard = 0;
  std::vector<ShardCheckpointCluster> clusters;
  // The lsn the shard's next mutation should use.
  uint64_t next_lsn = 1;
  uint64_t checkpoint_seq = 0;      // restored checkpoint (0 = none)
  uint64_t max_checkpoint_seq = 0;  // highest seq on disk, intact or not
  uint64_t records_replayed = 0;
  uint64_t records_skipped = 0;
  uint64_t torn_bytes_discarded = 0;
  uint32_t checkpoints_rejected = 0;
};

struct ShardedRecoveredState {
  uint32_t user_count = 0;
  std::vector<ShardRecoveredState> shards;

  uint64_t TotalReplayed() const;
  uint64_t TotalTornBytes() const;
  // Highest checkpoint seq across shards; resumed checkpoint numbering
  // starts above it.
  uint64_t MaxCheckpointSeq() const;
};

// Recovers shard `shard` from <base_dir>/shard-<shard> alone. Mutates
// nothing but that shard's torn WAL tail. `user_count` sizes validation
// only (member ids must fall inside the population).
util::Result<ShardRecoveredState> RecoverShard(const std::string& base_dir,
                                               uint32_t shard,
                                               uint32_t user_count);

// Recovers every shard, in parallel on `pool` when one is given (each
// shard touches only its own files, so the recoveries are independent).
util::Result<ShardedRecoveredState> RecoverAllShards(
    const std::string& base_dir, uint32_t shard_count, uint32_t user_count,
    util::ThreadPool* pool = nullptr);

// Merges the recovered slices back into one registry: global ids must form
// a contiguous prefix 0..N-1 with no duplicates (guaranteed by the
// one-commit-one-stream discipline; violations mean the directories were
// tampered with and recovery refuses).
util::Result<std::unique_ptr<cluster::Registry>> AssembleRegistry(
    const ShardedRecoveredState& state);

}  // namespace nela::durability

#endif  // NELA_DURABILITY_SHARDED_RECOVERY_H_
