// Tests for the spatially sharded service driver: the determinism matrix
// (digests, traces, and outcomes bit-identical across thread counts AND
// shard counts), output bytes pinned against constants, cross-shard
// ownership accounting, per-shard admission queues, and the per-shard WAL
// stream split.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/hash.h"
#include "util/status.h"

namespace nela::sim {
namespace {

const Scenario& SharedScenario() {
  static const Scenario scenario = [] {
    ScenarioConfig config;
    config.user_count = 1200;
    config.delta = 0.02;
    config.seed = 11;
    auto built = BuildScenario(config);
    NELA_CHECK(built.ok());
    return std::move(built).value();
  }();
  return scenario;
}

ShardedServiceConfig ClosedBatchConfig(uint32_t threads, uint32_t shards) {
  ShardedServiceConfig config;
  config.service.k = 5;
  config.service.requests = 192;
  config.service.threads = threads;
  config.service.master_seed = 99;
  config.service.workload_seed = 17;
  config.shards = shards;
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

std::string ConcatTraces(const std::vector<ServiceRequestRecord>& records) {
  std::string all;
  for (const ServiceRequestRecord& record : records) {
    all += "request " + std::to_string(record.ordinal) + " host=" +
           std::to_string(record.host) + "\n";
    all += record.trace;
  }
  return all;
}

// The tentpole determinism matrix: for a fixed master seed, the global
// registry digest and every request's outcome are bit-identical across
// {1,4,8} threads AND {1,4,16} shards; the concatenated per-request traces
// and the per-shard digests are thread-invariant for each K (traces name
// each request's home and owner shard once K > 1, so they differ across
// K by exactly that placement); and the concatenation of the K slices
// reproduces the global digest (the slices partition the registry).
TEST(ShardedServiceDriverTest, DigestMatrixIsThreadAndShardInvariant) {
  const ServiceResult reference = MustRun(ClosedBatchConfig(1, 1)).service;
  ASSERT_EQ(reference.records.size(), 192u);
  EXPECT_GT(reference.clusters_formed, 0u);

  for (uint32_t shards : {1u, 4u, 16u}) {
    std::vector<uint64_t> baseline_shard_digests;
    std::string baseline_traces;
    for (uint32_t threads : {1u, 4u, 8u}) {
      const ShardedServiceResult result =
          MustRun(ClosedBatchConfig(threads, shards));
      const ServiceResult& service = result.service;
      EXPECT_EQ(service.registry_digest, reference.registry_digest)
          << "global digest diverged at threads=" << threads
          << " shards=" << shards;
      const std::string traces = ConcatTraces(service.records);
      if (baseline_traces.empty()) {
        baseline_traces = traces;
      } else {
        EXPECT_EQ(traces, baseline_traces)
            << "traces diverged at threads=" << threads << " shards=" << shards;
      }
      EXPECT_EQ(service.clusters_formed, reference.clusters_formed);
      // Closed batch: the queue model is off, so nothing is shed.
      EXPECT_EQ(service.admitted, 192u);
      EXPECT_EQ(service.shed_queue_overflow + service.shed_deadline, 0u);
      ASSERT_EQ(service.records.size(), reference.records.size());
      for (size_t r = 0; r < reference.records.size(); ++r) {
        const core::CloakingOutcome& a = reference.records[r].outcome;
        const core::CloakingOutcome& b = service.records[r].outcome;
        EXPECT_EQ(a.cluster_id, b.cluster_id) << "request " << r;
        EXPECT_EQ(a.region, b.region) << "request " << r;
        EXPECT_EQ(a.region_reused, b.region_reused) << "request " << r;
        EXPECT_EQ(a.cluster_reused, b.cluster_reused) << "request " << r;
        EXPECT_EQ(a.anonymity_satisfied, b.anonymity_satisfied)
            << "request " << r;
        EXPECT_EQ(a.clustering_messages, b.clustering_messages)
            << "request " << r;
        EXPECT_EQ(a.bounding_iterations, b.bounding_iterations)
            << "request " << r;
        EXPECT_EQ(a.bounding_verifications, b.bounding_verifications)
            << "request " << r;
      }
      EXPECT_EQ(result.concatenated_digest, service.registry_digest)
          << "shard slices do not partition the registry at threads="
          << threads << " shards=" << shards;
      ASSERT_EQ(result.shards.size(), shards);
      if (shards == 1) {
        // The single shard owns every cluster and every user.
        EXPECT_EQ(result.cross_shard_clusters, 0u);
        EXPECT_EQ(result.shards[0].clusters_owned, service.clusters_formed);
        EXPECT_EQ(result.shards[0].users, SharedScenario().dataset.size());
      }
      std::vector<uint64_t> shard_digests;
      for (const ShardRunStats& stats : result.shards) {
        shard_digests.push_back(stats.shard_digest);
      }
      if (baseline_shard_digests.empty()) {
        baseline_shard_digests = shard_digests;
      } else {
        EXPECT_EQ(shard_digests, baseline_shard_digests)
            << "per-shard digests diverged at threads=" << threads
            << " shards=" << shards;
      }
      EXPECT_TRUE(service.reciprocity_ok);
    }
  }
}

// Pins the driver's output bytes: the FNV-1a hash of the concatenated
// traces and the registry digest of a one-thread closed batch at K=1 and
// K=4. The matrix above compares runs of one build with each other; these
// constants, computed by this test before the wound-wait claim layer was
// removed, also catch a change that alters every thread count alike. They
// assume IEEE-754 doubles and the libm the suite is built against.
TEST(ShardedServiceDriverTest, TraceBytesAndDigestArePinned) {
  struct Pin {
    uint32_t shards;
    uint64_t trace_hash;
    uint64_t registry_digest;
  };
  for (const Pin& pin : {Pin{1, 0xbf24036549f99c83ull, 0x7fae17db4d5db749ull},
                         Pin{4, 0x5c863ab89bf30a78ull, 0x7fae17db4d5db749ull}}) {
    const ServiceResult result =
        MustRun(ClosedBatchConfig(1, pin.shards)).service;
    const std::string traces = ConcatTraces(result.records);
    EXPECT_EQ(util::FnvHashBytes(traces.data(), traces.size()),
              pin.trace_hash)
        << "shards=" << pin.shards;
    EXPECT_EQ(result.registry_digest, pin.registry_digest)
        << "shards=" << pin.shards;
  }
}

// With a real spatial partition, clusters near the grid boundaries straddle
// shards; ownership accounting must tie out exactly against the global
// registry (every cluster owned by exactly one shard, every user homed in
// exactly one).
TEST(ShardedServiceDriverTest, CrossShardOwnershipAccountingTiesOut) {
  const ShardedServiceResult result = MustRun(ClosedBatchConfig(4, 4));
  const uint32_t user_count = SharedScenario().dataset.size();

  uint64_t users = 0;
  uint64_t owned = 0;
  uint64_t cross_owned = 0;
  uint64_t routed = 0;
  for (const ShardRunStats& stats : result.shards) {
    users += stats.users;
    owned += stats.clusters_owned;
    cross_owned += stats.cross_shard_clusters_owned;
    routed += stats.requests_routed;
  }
  EXPECT_EQ(users, user_count);
  EXPECT_EQ(owned, result.service.clusters_formed);
  EXPECT_EQ(cross_owned, result.cross_shard_clusters);
  EXPECT_EQ(routed, result.service.records.size());
  // A uniform population on a 2x2 grid forms boundary clusters; if none
  // crossed, the partition (or the ownership rule) is broken.
  EXPECT_GT(result.cross_shard_clusters, 0u);
  EXPECT_TRUE(result.service.reciprocity_ok);
}

// Per-shard bounded admission: under sustained overload each shard's queue
// sheds independently, and the per-shard admission/shed/wait accounting
// sums exactly to the global one.
TEST(ShardedServiceDriverTest, PerShardAdmissionQueuesShedAndTieOut) {
  ShardedServiceConfig config = ClosedBatchConfig(4, 4);
  config.service.offered_rate_per_ms = 8.0;  // sustainable is ~4/ms total
  config.service.service_time_ms = 1.0;
  config.service.queue_capacity = 6;
  config.service.deadline_ms = 12.0;
  const ShardedServiceResult result = MustRun(config);

  uint64_t admitted = 0;
  uint64_t shed_overflow = 0;
  uint64_t shed_deadline = 0;
  for (const ShardRunStats& stats : result.shards) {
    admitted += stats.admitted;
    shed_overflow += stats.shed_queue_overflow;
    shed_deadline += stats.shed_deadline;
    EXPECT_LE(stats.p50_queue_wait_ms, stats.p99_queue_wait_ms);
    EXPECT_LE(stats.p99_queue_wait_ms, config.service.deadline_ms);
  }
  EXPECT_EQ(admitted, result.service.admitted);
  EXPECT_EQ(shed_overflow, result.service.shed_queue_overflow);
  EXPECT_EQ(shed_deadline, result.service.shed_deadline);
  EXPECT_GT(result.service.shed_queue_overflow +
                result.service.shed_deadline,
            0u)
      << "2x overload must shed";
  EXPECT_GT(result.service.admitted, 0u);
  // Throughput counts served requests only: shed requests were refused.
  const double served = static_cast<double>(result.service.admitted -
                                            result.service.aborted_by_crash);
  EXPECT_NEAR(result.service.requests_per_sec * result.service.wall_seconds,
              served, 1e-9 * served);
}

// Sharded durability splits the log across per-shard streams whose record
// counts sum to the global WAL accounting.
TEST(ShardedServiceDriverTest, WalStreamsSplitAcrossShards) {
  const std::string dir =
      ::testing::TempDir() + "sharded_service_wal_split";
  std::filesystem::remove_all(dir);
  ShardedServiceConfig config = ClosedBatchConfig(4, 4);
  config.durability_dir = dir;
  config.service.checkpoint_interval = 8;
  const ShardedServiceResult result = MustRun(config);

  EXPECT_FALSE(result.service.crashed);
  EXPECT_GT(result.service.wal_records, 0u);
  EXPECT_GT(result.service.checkpoints_written, 0u);
  uint64_t stream_sum = 0;
  uint32_t streams_used = 0;
  for (const ShardRunStats& stats : result.shards) {
    stream_sum += stats.wal_records;
    if (stats.wal_records > 0) ++streams_used;
  }
  EXPECT_EQ(stream_sum, result.service.wal_records);
  EXPECT_GT(streams_used, 1u)
      << "a 2x2 partition of a uniform population must log on several "
         "streams";
  // Durability is write-through: it must not change what gets clustered.
  EXPECT_EQ(result.service.registry_digest,
            MustRun(ClosedBatchConfig(4, 4)).service.registry_digest);
}

}  // namespace
}  // namespace nela::sim
