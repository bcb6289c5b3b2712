// Tests for the durability subsystem: WAL record framing and torn-tail
// handling, per-shard checkpoint round trips (including torn-checkpoint
// rejection), and checkpoint+WAL recovery of one stream replaying to a
// bit-identical registry digest -- idempotently across repeated
// recoveries.

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/registry.h"
#include "durability/checkpoint.h"
#include "durability/crash_scheduler.h"
#include "durability/shard_layout.h"
#include "durability/sharded_durable_registry.h"
#include "durability/sharded_recovery.h"
#include "durability/wal.h"
#include "geo/rect.h"
#include "net/fault_plan.h"

namespace nela::durability {
namespace {

using net::ProcessCrashPoint;

constexpr uint32_t kUsers = 64;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

cluster::ClusterInfo Cluster(std::vector<graph::VertexId> members,
                             double connectivity, bool valid) {
  cluster::ClusterInfo info;
  info.members = std::move(members);
  info.connectivity = connectivity;
  info.valid = valid;
  return info;
}

// A one-stream durable registry over `live`, logging to <dir>/shard-0.
std::unique_ptr<ShardedDurableRegistry> OpenOneStream(
    cluster::Registry* live, const std::string& dir,
    CrashPointScheduler* crash = nullptr) {
  auto durable = ShardedDurableRegistry::Open(
      live, dir, /*shard_count=*/1, crash, /*next_lsns=*/{1},
      /*stream_of=*/{}, /*truncate=*/true);
  NELA_CHECK(durable.ok());
  return std::move(durable).value();
}

// Logs one turnstile commit of a single cluster to stream 0.
util::Status CommitOne(ShardedDurableRegistry& durable,
                       cluster::ClusterInfo info) {
  return durable.RegisterBatch(0, {std::move(info)});
}

// Applies a small deterministic mutation history through `durable`: three
// one-cluster commits (clusters 0, 1, 2) and two region publishes, five
// records in all.
void ApplyHistory(ShardedDurableRegistry& durable) {
  ASSERT_TRUE(CommitOne(durable, Cluster({1, 2, 3, 4, 5}, 0.25, true)).ok());
  ASSERT_TRUE(CommitOne(durable, Cluster({10, 11, 12}, 0.5, false)).ok());
  ASSERT_TRUE(durable.SetRegion(0, geo::Rect(0.5, 1.25, 2.5, 4.0)).ok());
  ASSERT_TRUE(CommitOne(durable, Cluster({20, 21, 22, 23}, 0.125, true)).ok());
  ASSERT_TRUE(durable.SetRegion(2, geo::Rect(-3.0, -1.0, 0.0, 0.5)).ok());
}

// Recovers stream 0 of `dir` and assembles it into a registry.
struct OneStreamRecovery {
  ShardRecoveredState shard;
  std::unique_ptr<cluster::Registry> registry;
};

OneStreamRecovery RecoverOneStream(const std::string& dir) {
  auto shard = RecoverShard(dir, 0, kUsers);
  NELA_CHECK(shard.ok());
  ShardedRecoveredState state;
  state.user_count = kUsers;
  state.shards.push_back(shard.value());
  auto registry = AssembleRegistry(state);
  NELA_CHECK(registry.ok());
  return {std::move(shard).value(), std::move(registry).value()};
}

WalRecord BatchRecord(uint64_t lsn, std::vector<graph::VertexId> members) {
  WalRecord record;
  record.lsn = lsn;
  record.type = WalRecordType::kShardRegisterBatch;
  record.clusters.push_back(WalClusterImage{std::move(members), 0.5, true});
  return record;
}

TEST(WalRecordTest, SetRegionRecordRoundTripsBitExactly) {
  WalRecord record;
  record.lsn = 9;
  record.type = WalRecordType::kSetRegion;
  record.cluster_id = 12;
  record.region = geo::Rect(0.1, -2.75, 0.30000000000000004, 1e300);
  auto decoded = DecodeWalRecord(EncodeWalRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().cluster_id, 12u);
  EXPECT_EQ(decoded.value().region, record.region);
}

TEST(WalRecordTest, TruncatedPayloadIsRejected) {
  const std::string payload = EncodeWalRecord(BatchRecord(1, {1, 2, 3}));
  EXPECT_FALSE(DecodeWalRecord(payload.substr(0, payload.size() - 1)).ok());
}

TEST(WalRecordTest, RegisterBatchRecordRoundTrips) {
  WalRecord record;
  record.lsn = 11;
  record.type = WalRecordType::kShardRegisterBatch;
  record.first_cluster_id = 40;
  record.clusters.push_back(WalClusterImage{{5, 6, 7}, 0.375, true});
  record.clusters.push_back(WalClusterImage{{1u << 19, 2}, 0.0625, false});
  record.clusters.push_back(WalClusterImage{{3, 1, 4, 1u << 20}, 0.8, false});
  auto decoded = DecodeWalRecord(EncodeWalRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().lsn, 11u);
  EXPECT_EQ(decoded.value().type, WalRecordType::kShardRegisterBatch);
  EXPECT_EQ(decoded.value().first_cluster_id, 40u);
  ASSERT_EQ(decoded.value().clusters.size(), 3u);
  for (size_t c = 0; c < record.clusters.size(); ++c) {
    const WalClusterImage& want = record.clusters[c];
    const WalClusterImage& got = decoded.value().clusters[c];
    EXPECT_EQ(got.members, want.members);
    EXPECT_EQ(got.connectivity, want.connectivity);
    EXPECT_EQ(got.valid, want.valid);
  }
}

// Type values 1 and 3 are retired. They must not decode, so a stream
// carrying one reads as corrupt rather than replaying into a shard slice.
TEST(WalRecordTest, RetiredRecordTypesAreRejected) {
  WalRecord region;
  region.lsn = 3;
  region.type = WalRecordType::kSetRegion;
  region.region = geo::Rect(0.0, 0.0, 1.0, 1.0);
  const std::vector<std::string> payloads = {
      EncodeWalRecord(BatchRecord(2, {7, 8, 9})), EncodeWalRecord(region)};
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(DecodeWalRecord(payload).ok());
    for (const char retired : {'\x01', '\x03'}) {
      std::string patched = payload;
      patched[8] = retired;  // the type byte follows the u64 lsn
      EXPECT_FALSE(DecodeWalRecord(patched).ok())
          << "type byte " << static_cast<int>(retired) << " decoded";
    }
  }
}

TEST(WalWriterTest, AppendedRecordsReadBackInOrder) {
  const std::string path = TempPath("wal_roundtrip.log");
  {
    auto writer = WalWriter::Open(path, /*truncate=*/true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (graph::VertexId lsn = 1; lsn <= 5; ++lsn) {
      ASSERT_TRUE(writer.value()->Append(BatchRecord(lsn, {lsn, 50})).ok());
    }
    EXPECT_EQ(writer.value()->records_appended(), 5u);
  }
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().torn_bytes, 0u);
  ASSERT_EQ(read.value().records.size(), 5u);
  for (uint64_t lsn = 1; lsn <= 5; ++lsn) {
    EXPECT_EQ(read.value().records[lsn - 1].lsn, lsn);
  }
}

TEST(WalWriterTest, MissingFileReadsAsEmptyLog) {
  auto read = ReadWal(TempPath("wal_never_written.log"));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().records.empty());
  EXPECT_EQ(read.value().torn_bytes, 0u);
}

TEST(WalWriterTest, TornTailIsDetectedTruncatedAndAppendableAgain) {
  const std::string path = TempPath("wal_torn.log");
  const WalRecord torn = BatchRecord(4, {7, 8, 9});
  {
    auto writer = WalWriter::Open(path, /*truncate=*/true);
    ASSERT_TRUE(writer.ok());
    for (graph::VertexId lsn = 1; lsn <= 3; ++lsn) {
      ASSERT_TRUE(writer.value()->Append(BatchRecord(lsn, {lsn})).ok());
    }
    const size_t frame_size = EncodeWalRecord(torn).size() + 12;
    ASSERT_TRUE(writer.value()->AppendTorn(torn, frame_size / 2).ok());
  }
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().records.size(), 3u);
  EXPECT_GT(read.value().torn_bytes, 0u);

  auto removed = TruncateTornTail(path);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value(), read.value().torn_bytes);

  // A reopened writer appends after the intact prefix.
  {
    auto writer = WalWriter::Open(path, /*truncate=*/false);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(torn).ok());
  }
  auto reread = ReadWal(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread.value().torn_bytes, 0u);
  ASSERT_EQ(reread.value().records.size(), 4u);
  EXPECT_EQ(reread.value().records[3].lsn, 4u);
}

// Every field of a shard slice survives encode -> file -> read bit for
// bit, including the explicit global ids (a slice's ids have gaps where
// sibling streams logged clusters) and regions that were never published.
TEST(CheckpointTest, ShardImageRoundTripsBitExactly) {
  ShardCheckpointImage image;
  image.user_count = kUsers;
  image.covered_lsn = 17;
  image.clusters.push_back({2, Cluster({1, 2, 3}, 0.1, true)});
  image.clusters.back().info.region =
      geo::Rect(0.1, -2.75, 0.30000000000000004, 1e300);
  image.clusters.push_back({7, Cluster({40, 41, 63}, 0.8125, false)});

  const std::string path = TempPath("checkpoint_shard_image.ckpt");
  ASSERT_TRUE(WriteCheckpointFile(path, EncodeShardCheckpoint(image)).ok());
  auto read = ReadShardCheckpoint(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().user_count, kUsers);
  EXPECT_EQ(read.value().covered_lsn, 17u);
  ASSERT_EQ(read.value().clusters.size(), 2u);
  for (size_t c = 0; c < image.clusters.size(); ++c) {
    const ShardCheckpointCluster& want = image.clusters[c];
    const ShardCheckpointCluster& got = read.value().clusters[c];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.info.members, want.info.members);
    EXPECT_EQ(got.info.connectivity, want.info.connectivity);
    EXPECT_EQ(got.info.valid, want.info.valid);
    EXPECT_EQ(got.info.region, want.info.region);
  }
}

// A checkpoint cut from a live stream restores, through AssembleRegistry,
// to a registry with the live digest.
TEST(CheckpointTest, RegistryImageRoundTripsToIdenticalDigest) {
  const std::string dir = FreshDir("checkpoint_roundtrip");
  cluster::Registry registry(kUsers);
  auto durable = OpenOneStream(&registry, dir);
  ApplyHistory(*durable);
  ASSERT_TRUE(durable->CheckpointAll(1).ok());

  const std::string path = CheckpointPath(ShardCheckpointDir(dir, 0), 1);
  auto image = ReadShardCheckpoint(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image.value().user_count, kUsers);
  EXPECT_EQ(image.value().covered_lsn, durable->last_lsn(0));
  ShardedRecoveredState state;
  state.user_count = kUsers;
  state.shards.resize(1);
  state.shards[0].clusters = image.value().clusters;
  auto restored = AssembleRegistry(state);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->Digest(), registry.Digest());
}

TEST(CheckpointTest, TornCheckpointIsRejected) {
  ShardCheckpointImage image;
  image.user_count = kUsers;
  image.covered_lsn = 5;
  image.clusters.push_back({0, Cluster({1, 2, 3, 4, 5}, 0.25, true)});
  const std::string path = TempPath("checkpoint_torn.ckpt");
  const std::string encoded = EncodeShardCheckpoint(image);
  ASSERT_TRUE(WriteCheckpointFile(path, encoded).ok());
  ASSERT_TRUE(ReadShardCheckpoint(path).ok());
  ASSERT_TRUE(WriteTornCheckpointFile(path, encoded, encoded.size() / 2).ok());
  EXPECT_FALSE(ReadShardCheckpoint(path).ok());
}

TEST(RecoveryTest, WalOnlyReplayRebuildsIdenticalDigest) {
  const std::string dir = FreshDir("recovery_wal_only");
  cluster::Registry live(kUsers);
  ApplyHistory(*OpenOneStream(&live, dir));

  const OneStreamRecovery recovered = RecoverOneStream(dir);
  EXPECT_EQ(recovered.registry->Digest(), live.Digest());
  EXPECT_EQ(recovered.shard.records_replayed, 5u);
  EXPECT_EQ(recovered.shard.records_skipped, 0u);
  EXPECT_EQ(recovered.shard.next_lsn, 6u);

  // Idempotency: recovering again from the same files yields the same
  // state, bit for bit.
  const OneStreamRecovery again = RecoverOneStream(dir);
  EXPECT_EQ(again.registry->Digest(), recovered.registry->Digest());
  EXPECT_EQ(again.shard.next_lsn, recovered.shard.next_lsn);
}

TEST(RecoveryTest, CheckpointBoundsReplayAndTornCheckpointFallsBack) {
  const std::string dir = FreshDir("recovery_ckpt_dir");
  cluster::Registry live(kUsers);
  {
    // The second checkpoint crashes mid-write (kMidCheckpoint): recovery
    // must fall back to checkpoint 1 and replay the later records from the
    // WAL.
    CrashPointScheduler crash({{ProcessCrashPoint::kMidCheckpoint, 2}});
    auto durable = OpenOneStream(&live, dir, &crash);
    ASSERT_TRUE(CommitOne(*durable, Cluster({1, 2, 3}, 0.5, true)).ok());
    ASSERT_TRUE(durable->CheckpointAll(1).ok());
    ASSERT_TRUE(durable->SetRegion(0, geo::Rect(0.0, 0.0, 1.0, 1.0)).ok());
    ASSERT_TRUE(CommitOne(*durable, Cluster({8, 9, 10, 11}, 0.25, true)).ok());
    EXPECT_FALSE(durable->CheckpointAll(2).ok());
    EXPECT_TRUE(crash.crashed());
  }

  const OneStreamRecovery recovered = RecoverOneStream(dir);
  EXPECT_EQ(recovered.registry->Digest(), live.Digest());
  EXPECT_EQ(recovered.shard.checkpoint_seq, 1u);
  EXPECT_EQ(recovered.shard.max_checkpoint_seq, 2u);
  EXPECT_EQ(recovered.shard.checkpoints_rejected, 1u);
  EXPECT_EQ(recovered.shard.records_skipped, 1u);   // covered by ckpt 1
  EXPECT_EQ(recovered.shard.records_replayed, 2u);  // region + cluster
}

TEST(RecoveryTest, TornWalTailIsDiscardedOnRecovery) {
  const std::string dir = FreshDir("recovery_torn_tail");
  cluster::Registry live(kUsers);
  {
    // A mid-append crash tears the sixth record; it was never applied, so
    // the pre-crash in-memory digest (== `live`) excludes it too.
    CrashPointScheduler crash({{ProcessCrashPoint::kMidWalAppend, 6}});
    auto durable = OpenOneStream(&live, dir, &crash);
    ApplyHistory(*durable);
    EXPECT_FALSE(CommitOne(*durable, Cluster({40, 41, 42}, 0.5, true)).ok());
    EXPECT_TRUE(crash.crashed());
  }

  const OneStreamRecovery recovered = RecoverOneStream(dir);
  EXPECT_GT(recovered.shard.torn_bytes_discarded, 0u);
  EXPECT_EQ(recovered.registry->Digest(), live.Digest());

  // Idempotent: the tail is already gone on the second pass.
  const OneStreamRecovery again = RecoverOneStream(dir);
  EXPECT_EQ(again.shard.torn_bytes_discarded, 0u);
  EXPECT_EQ(again.registry->Digest(), live.Digest());
}

TEST(RecoveryTest, TornBatchHidesTheWholeCommit) {
  // One commit registering several clusters must be all-or-nothing: a torn
  // kShardRegisterBatch tail leaves no partial group behind, and an intact
  // one replays every cluster.
  const std::string dir = FreshDir("recovery_torn_batch");
  cluster::Registry live(kUsers);
  std::vector<cluster::ClusterInfo> intact;
  intact.push_back(Cluster({30, 31, 32, 33}, 0.75, true));
  intact.push_back(Cluster({40, 41, 42}, 0.5, true));
  std::vector<cluster::ClusterInfo> torn;
  torn.push_back(Cluster({50, 51, 52}, 0.25, true));
  torn.push_back(Cluster({53, 54, 55}, 0.125, true));
  {
    // Hits 1-5 are the history and 6 the intact batch; the second batch
    // commit crashes mid-append: torn on disk, not applied.
    CrashPointScheduler crash({{ProcessCrashPoint::kMidWalAppend, 7}});
    auto durable = OpenOneStream(&live, dir, &crash);
    ApplyHistory(*durable);
    ASSERT_TRUE(durable->RegisterBatch(0, intact).ok());
    EXPECT_FALSE(durable->RegisterBatch(0, torn).ok());
    EXPECT_TRUE(crash.crashed());
  }

  const OneStreamRecovery recovered = RecoverOneStream(dir);
  EXPECT_GT(recovered.shard.torn_bytes_discarded, 0u);
  // The intact batch replayed whole (both clusters), the torn one not at
  // all -- no user from the torn group is clustered.
  EXPECT_EQ(recovered.registry->Digest(), live.Digest());
  EXPECT_TRUE(recovered.registry->IsClustered(33));
  EXPECT_TRUE(recovered.registry->IsClustered(42));
  for (graph::VertexId user : {50u, 51u, 52u, 53u, 54u, 55u}) {
    EXPECT_FALSE(recovered.registry->IsClustered(user));
  }
}

}  // namespace
}  // namespace nela::durability
