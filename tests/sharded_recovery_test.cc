// Kill-anywhere chaos coverage for the durability path: a crash at any
// commit-path crash point (pre-commit, mid-WAL-append, post-commit,
// mid-checkpoint), at any thread count and at K=1 as at K=4, must leave
// per-shard disk state that RecoverAllShards rebuilds exactly --
// idempotently, in parallel, and WITHOUT touching sibling shards (shards
// whose streams were not torn stay byte-identical on disk through
// recovery). Resuming the workload from the assembled registry must
// converge to the bit-identical digest of a run that never crashed.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "durability/shard_layout.h"
#include "durability/sharded_recovery.h"
#include "net/fault_plan.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace nela::sim {
namespace {

constexpr uint32_t kRequests = 96;
// Shard count of the multi-shard cases; every suite also runs at K=1.
constexpr uint32_t kShards = 4;

const Scenario& SharedScenario() {
  static const Scenario scenario = [] {
    ScenarioConfig config;
    config.user_count = 600;
    config.delta = 0.03;
    config.seed = 11;
    auto built = BuildScenario(config);
    NELA_CHECK(built.ok());
    return std::move(built).value();
  }();
  return scenario;
}

ShardedServiceConfig DurableConfig(uint32_t shards, uint32_t threads,
                                   const std::string& dir) {
  ShardedServiceConfig config;
  config.service.k = 5;
  config.service.requests = kRequests;
  config.service.threads = threads;
  config.service.master_seed = 99;
  config.service.workload_seed = 17;
  config.service.checkpoint_interval = 4;
  config.shards = shards;
  config.durability_dir = dir;
  return config;
}

ShardedServiceResult MustRun(const ShardedServiceConfig& config) {
  const Scenario& scenario = SharedScenario();
  const core::BoundingParams params;
  ShardedServiceDriver driver(scenario.dataset, scenario.graph,
                              core::MakeSecurePolicyFactory(params), config);
  auto result = driver.Run();
  NELA_CHECK(result.ok());
  return std::move(result).value();
}

std::string FreshCaseDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "shard_kill_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Digest of an uninterrupted run of the same workload, computed without
// durability (logging is write-through and must not change what gets
// clustered). The digest is shard-count invariant, so one reference serves
// every K.
uint64_t UninterruptedDigest() {
  static const uint64_t digest = [] {
    ShardedServiceConfig config = DurableConfig(kShards, 4, "");
    config.service.checkpoint_interval = 0;
    return MustRun(config).service.registry_digest;
  }();
  return digest;
}

// Byte snapshot of every file under one shard's durable-state directory.
std::map<std::string, std::string> SnapshotShardFiles(
    const std::string& base_dir, uint32_t shard) {
  std::map<std::string, std::string> files;
  const std::filesystem::path dir = durability::ShardDir(base_dir, shard);
  if (!std::filesystem::exists(dir)) return files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

std::vector<uint64_t> ShardNextLsns(
    const durability::ShardedRecoveredState& state) {
  std::vector<uint64_t> lsns;
  for (const durability::ShardRecoveredState& shard : state.shards) {
    lsns.push_back(shard.next_lsn);
  }
  return lsns;
}

// Recovering right after a clean run at `shards` shards reproduces the
// final registry -- the WAL streams and checkpoints together carry the
// complete state -- and the serial and parallel recovery paths agree bit for
// bit.
void ExpectCleanRunRecovers(uint32_t shards) {
  const std::string dir = FreshCaseDir("clean_k" + std::to_string(shards));
  const ShardedServiceResult result = MustRun(DurableConfig(shards, 4, dir));
  ASSERT_FALSE(result.service.crashed);
  EXPECT_EQ(result.service.registry_digest, UninterruptedDigest());
  EXPECT_GT(result.service.wal_records, 0u);
  EXPECT_GT(result.service.checkpoints_written, 0u);

  const uint32_t user_count = SharedScenario().dataset.size();
  auto serial = durability::RecoverAllShards(dir, shards, user_count);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial.value().TotalTornBytes(), 0u);

  util::ThreadPool pool(4);
  auto parallel = durability::RecoverAllShards(dir, shards, user_count, &pool);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(ShardNextLsns(serial.value()), ShardNextLsns(parallel.value()));

  auto serial_registry = durability::AssembleRegistry(serial.value());
  ASSERT_TRUE(serial_registry.ok()) << serial_registry.status().ToString();
  auto parallel_registry = durability::AssembleRegistry(parallel.value());
  ASSERT_TRUE(parallel_registry.ok());
  EXPECT_EQ(serial_registry.value()->Digest(),
            result.service.registry_digest);
  EXPECT_EQ(parallel_registry.value()->Digest(),
            result.service.registry_digest);
}

TEST(ShardedRecoveryTest, RecoverAfterCleanRunReproducesFinalState) {
  ExpectCleanRunRecovers(kShards);
}

// K=1: the whole registry logs to one stream, <dir>/shard-0.
TEST(RecoveryKillAnywhereTest, RecoverAfterCleanRunReproducesFinalState) {
  ExpectCleanRunRecovers(1);
}

// A single shard's slice can be recovered alone, and doing so produces the
// same slice RecoverAllShards sees -- per-shard recovery really is a pure
// function of that shard's directory.
TEST(ShardedRecoveryTest, SingleShardRecoveryMatchesFullRecovery) {
  const std::string dir = FreshCaseDir("single");
  const ShardedServiceResult result = MustRun(DurableConfig(kShards, 4, dir));
  ASSERT_FALSE(result.service.crashed);

  const uint32_t user_count = SharedScenario().dataset.size();
  auto all = durability::RecoverAllShards(dir, kShards, user_count);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    auto one = durability::RecoverShard(dir, shard, user_count);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_EQ(one.value().next_lsn, all.value().shards[shard].next_lsn);
    EXPECT_EQ(one.value().clusters.size(),
              all.value().shards[shard].clusters.size());
    EXPECT_EQ(one.value().checkpoint_seq,
              all.value().shards[shard].checkpoint_seq);
  }
}

struct KillCase {
  net::ProcessCrashPoint point;
  uint64_t after_hits;
};

// (shard count K, crash point, worker threads).
using KillParam = std::tuple<uint32_t, KillCase, uint32_t>;

// Crashes a durable run at one crash point, recovers every shard, and
// resumes the workload from the assembled registry.
void CrashRecoverResume(const KillParam& param) {
  const uint32_t shards = std::get<0>(param);
  const KillCase kill = std::get<1>(param);
  const uint32_t threads = std::get<2>(param);
  const std::string dir =
      FreshCaseDir(std::string(net::ProcessCrashPointName(kill.point)) +
                   "_k" + std::to_string(shards) + "_t" +
                   std::to_string(threads));

  ShardedServiceConfig config = DurableConfig(shards, threads, dir);
  config.service.fault_plan.process_crashes.push_back(
      net::ProcessCrashEvent{kill.point, kill.after_hits});
  const ShardedServiceResult crashed = MustRun(config);
  ASSERT_TRUE(crashed.service.crashed);
  ASSERT_TRUE(crashed.service.crash_point.has_value());
  EXPECT_EQ(*crashed.service.crash_point, kill.point);
  // Every admitted request the crash cut short is reported as a structured
  // abort, never silently dropped.
  uint64_t aborted = 0;
  for (const ServiceRequestRecord& record : crashed.service.records) {
    if (!record.aborted_by_crash) continue;
    ++aborted;
    EXPECT_FALSE(record.outcome.anonymity_satisfied);
    EXPECT_EQ(record.outcome.degradation.failure_code,
              util::StatusCode::kUnavailable);
    EXPECT_EQ(record.outcome.degradation.finalize_count, 1u);
  }
  EXPECT_EQ(aborted, crashed.service.aborted_by_crash);
  EXPECT_GT(aborted, 0u) << "crash fired too late to abort anything";

  // Snapshot every shard's files as the crash left them.
  std::vector<std::map<std::string, std::string>> before;
  for (uint32_t shard = 0; shard < shards; ++shard) {
    before.push_back(SnapshotShardFiles(dir, shard));
  }

  // Recovery is a pure, per-shard function of the on-disk files: two
  // recoveries agree bit for bit, serial or parallel.
  const uint32_t user_count = SharedScenario().dataset.size();
  auto first = durability::RecoverAllShards(dir, shards, user_count);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  util::ThreadPool pool(4);
  auto second = durability::RecoverAllShards(dir, shards, user_count, &pool);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(ShardNextLsns(first.value()), ShardNextLsns(second.value()));
  auto first_registry = durability::AssembleRegistry(first.value());
  ASSERT_TRUE(first_registry.ok()) << first_registry.status().ToString();
  auto second_registry = durability::AssembleRegistry(second.value());
  ASSERT_TRUE(second_registry.ok());
  EXPECT_EQ(first_registry.value()->Digest(),
            second_registry.value()->Digest());

  // One turnstile commit lands in exactly one stream, so at most ONE shard
  // can carry a torn record; the crash is a single-shard event.
  uint32_t torn_shards = 0;
  for (const durability::ShardRecoveredState& shard : first.value().shards) {
    if (shard.torn_bytes_discarded > 0) ++torn_shards;
  }
  EXPECT_LE(torn_shards, 1u);
  if (kill.point == net::ProcessCrashPoint::kMidWalAppend) {
    EXPECT_EQ(torn_shards, 1u);
    // The first recovery truncated the torn tail; the second saw clean
    // streams everywhere.
    EXPECT_EQ(second.value().TotalTornBytes(), 0u);
  }
  if (kill.point == net::ProcessCrashPoint::kMidCheckpoint) {
    uint32_t rejected = 0;
    for (const auto& shard : first.value().shards) {
      rejected += shard.checkpoints_rejected;
    }
    EXPECT_GE(rejected, 1u);
  }

  // Sibling isolation: recovering the crashed shard leaves every shard
  // whose stream was NOT torn byte-identical on disk (recovery only ever
  // mutates a torn tail, and only in the shard that owns it).
  for (uint32_t shard = 0; shard < shards; ++shard) {
    if (first.value().shards[shard].torn_bytes_discarded > 0) continue;
    EXPECT_EQ(SnapshotShardFiles(dir, shard), before[shard])
        << "recovery touched intact sibling " << shard;
  }

  // Resume the same workload on the assembled registry (crash disarmed):
  // committed work resolves as reuse, the rest re-executes, and the digest
  // converges to the uninterrupted run's.
  ShardedServiceConfig resume_config = config;
  resume_config.service.fault_plan.process_crashes.clear();
  const Scenario& scenario = SharedScenario();
  const core::BoundingParams params;
  ShardedServiceDriver resumed_driver(scenario.dataset, scenario.graph,
                                      core::MakeSecurePolicyFactory(params),
                                      resume_config);
  auto resumed = resumed_driver.Resume(second.value());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(resumed.value().service.crashed);
  EXPECT_EQ(resumed.value().service.registry_digest, UninterruptedDigest())
      << "resumed digest diverged after a "
      << net::ProcessCrashPointName(kill.point) << " crash at threads="
      << threads;
  EXPECT_EQ(resumed.value().concatenated_digest,
            resumed.value().service.registry_digest);
}

// K = kShards: the crash takes down one shard's stream of several.
class ShardedKillAnywhereTest : public ::testing::TestWithParam<KillParam> {};

TEST_P(ShardedKillAnywhereTest, CrashOneShardRecoverResumeConverges) {
  CrashRecoverResume(GetParam());
}

// K = 1: the crash takes down the only stream, <dir>/shard-0.
class KillAnywhereTest : public ::testing::TestWithParam<KillParam> {};

TEST_P(KillAnywhereTest, CrashRecoverResumeConvergesToUninterruptedDigest) {
  CrashRecoverResume(GetParam());
}

const auto kAllKillCases = ::testing::Values(
    KillCase{net::ProcessCrashPoint::kPreCommit, 5},
    KillCase{net::ProcessCrashPoint::kMidWalAppend, 5},
    KillCase{net::ProcessCrashPoint::kPostCommit, 5},
    KillCase{net::ProcessCrashPoint::kMidCheckpoint, 2});
const auto kAllThreadCounts = ::testing::Values(1u, 4u, 8u);

std::string KillCaseName(const ::testing::TestParamInfo<KillParam>& info) {
  std::string name = net::ProcessCrashPointName(std::get<1>(info.param).point);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_t" + std::to_string(std::get<2>(info.param));
}

// Every crash point x threads {1, 4, 8}, at `shards` shards.
auto KillMatrix(uint32_t shards) {
  return ::testing::Combine(::testing::Values(shards), kAllKillCases,
                            kAllThreadCounts);
}

INSTANTIATE_TEST_SUITE_P(AllPointsAllThreadCounts, ShardedKillAnywhereTest,
                         KillMatrix(kShards), KillCaseName);
INSTANTIATE_TEST_SUITE_P(AllPointsAllThreadCounts, KillAnywhereTest,
                         KillMatrix(1), KillCaseName);

}  // namespace
}  // namespace nela::sim
