// Checkpoint snapshots of one shard's registry slice.
//
// A checkpoint is an image of the clusters one shard's WAL stream logged,
// taken at a known position of that stream (`covered_lsn`): recovery
// restores the newest intact checkpoint and then replays only WAL records
// with lsn > covered_lsn, bounding replay work by the checkpoint cadence
// rather than the total history length.
//
// On-disk format, all integers little-endian:
//
//   file := [u64 magic "NELACKP2"][u32 user_count][u64 covered_lsn]
//           [u32 cluster_count] cluster_count x cluster
//           [u64 fnv1a(everything before it)]
//   cluster := [u32 global_id][u32 n][n x u32 member]
//              [u64 connectivity_bits][u8 valid]
//              [u8 has_region][has_region ? 4 x u64 rect bits : nothing]
//
// Files are written whole and named checkpoint-<seq>.ckpt with a strictly
// increasing sequence number; a crash mid-write (ProcessCrashPoint::
// kMidCheckpoint) leaves a file whose trailer checksum cannot match, which
// ReadShardCheckpoint rejects so recovery falls back to the previous
// checkpoint.

#ifndef NELA_DURABILITY_CHECKPOINT_H_
#define NELA_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/registry.h"
#include "util/status.h"

namespace nela::durability {

// One cluster of a per-shard checkpoint: shard streams see only the
// clusters their shard's commits logged, so stream position cannot imply
// the global id -- it is stored explicitly (mirroring
// WalRecordType::kShardRegisterBatch).
struct ShardCheckpointCluster {
  cluster::ClusterId id = 0;
  cluster::ClusterInfo info;
};

// Checkpoint of one shard's slice at a known position of ITS OWN WAL
// stream; the (id, cluster) pairs are ascending by global id.
struct ShardCheckpointImage {
  uint32_t user_count = 0;
  uint64_t covered_lsn = 0;
  std::vector<ShardCheckpointCluster> clusters;
};

// Path of checkpoint number `seq` inside `dir`.
std::string CheckpointPath(const std::string& dir, uint64_t seq);

// Writes `encoded` to `path` in full and flushes.
[[nodiscard]] util::Status WriteCheckpointFile(const std::string& path,
                                               const std::string& encoded);

// Chaos hook for kMidCheckpoint: writes only the first `keep_bytes` bytes,
// simulating a crash mid-checkpoint. The resulting file must be rejected
// by ReadShardCheckpoint.
[[nodiscard]] util::Status WriteTornCheckpointFile(const std::string& path,
                                                   const std::string& encoded,
                                                   size_t keep_bytes);

// Serializes one shard's slice (write with WriteCheckpointFile /
// WriteTornCheckpointFile). The caller must hold whatever lock serializes
// the slice's mutations (ShardedDurableRegistry does) so the image is
// consistent with covered_lsn.
std::string EncodeShardCheckpoint(const ShardCheckpointImage& image);

// Parses and checksum-verifies one per-shard checkpoint file.
util::Result<ShardCheckpointImage> ReadShardCheckpoint(
    const std::string& path);

}  // namespace nela::durability

#endif  // NELA_DURABILITY_CHECKPOINT_H_
