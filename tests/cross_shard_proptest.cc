// Cross-shard clustering property suite.
//
// Each case draws a boundary-straddling world: Gaussian blobs centered ON
// the 2x2 shard grid's boundary lines (x = 1/2, y = 1/2, and their
// crossing) over a uniform background, so a large share of clusters is
// forced to span shards. The sharded service then runs the same seeded
// workload at K = 1, 4, 16 and the suite asserts
//
//  * shard-count invariance: the global registry digest is identical for
//    every K (sharding relabels ownership, never membership);
//  * boundary clusters obey exactly the invariants interior clusters obey
//    (sorted unique membership, size >= k when valid) -- checked by one
//    loop that does not branch on CrossesShards;
//  * zero exposure violations under the adversary observer with every
//    coordinate tainted, cross-shard commits included;
//  * the K=4 run's per-shard WAL streams recover and assemble back into
//    the exact final registry, which passes the anonymity audit.

#include <cmath>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/observer.h"
#include "audit/taint.h"
#include "cluster/registry.h"
#include "cluster/shard_map.h"
#include "core/anonymity_audit.h"
#include "core/policy_factory.h"
#include "data/dataset.h"
#include "durability/sharded_recovery.h"
#include "geo/point.h"
#include "graph/wpg_builder.h"
#include "sim/sharded_service_driver.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace nela {
namespace {

// Users drawn so that blobs sit astride the K=4 grid boundaries: every
// blob center lies on x = 1/2, on y = 1/2, or on their crossing, with a
// sigma wide enough that members land on both sides.
data::Dataset DrawBoundaryDataset(util::Rng& rng, uint32_t n) {
  std::vector<geo::Point> points;
  points.reserve(n);
  auto clamp01 = [](double v) {
    if (v < 0.0) return 0.0;
    if (v > 1.0) return 1.0;
    return v;
  };
  for (uint32_t i = 0; i < n; ++i) {
    geo::Point p;
    if (rng.NextBernoulli(0.35)) {
      p.x = rng.NextDouble();  // uniform background
      p.y = rng.NextDouble();
    } else {
      const double sigma = rng.NextDouble(0.02, 0.05);
      switch (rng.NextUint64(3)) {
        case 0:  // astride the vertical boundary
          p.x = 0.5 + rng.NextGaussian(0.0, sigma);
          p.y = rng.NextDouble();
          break;
        case 1:  // astride the horizontal boundary
          p.x = rng.NextDouble();
          p.y = 0.5 + rng.NextGaussian(0.0, sigma);
          break;
        default:  // astride the four-corner crossing
          p.x = 0.5 + rng.NextGaussian(0.0, sigma);
          p.y = 0.5 + rng.NextGaussian(0.0, sigma);
          break;
      }
    }
    p.x = clamp01(p.x);
    p.y = clamp01(p.y);
    points.push_back(p);
  }
  return data::Dataset(std::move(points));
}

sim::ShardedServiceConfig BaseConfig(uint32_t k, uint32_t requests,
                                     uint64_t master_seed,
                                     uint64_t workload_seed) {
  sim::ShardedServiceConfig config;
  config.service.k = k;
  config.service.requests = requests;
  config.service.threads = 4;
  config.service.master_seed = master_seed;
  config.service.workload_seed = workload_seed;
  return config;
}

std::optional<std::string> RunScenario(util::Rng& rng, uint32_t size,
                                       uint64_t* cross_shard_seen) {
  const uint32_t n = 150 + static_cast<uint32_t>(rng.NextUint64(151));
  const uint32_t k = size;
  const data::Dataset dataset = DrawBoundaryDataset(rng, n);

  graph::WpgBuildParams wpg;
  wpg.delta = 0.12 * std::sqrt(200.0 / static_cast<double>(n));
  wpg.max_peers = 8;
  auto graph = graph::BuildWpg(dataset, wpg);
  NELA_CHECK(graph.ok());

  const uint32_t requests = 24 + static_cast<uint32_t>(rng.NextUint64(9));
  const uint64_t master_seed = rng.NextUint64();
  const uint64_t workload_seed = rng.NextUint64();
  const core::BoundingParams params;

  // Reference: the unsharded run.
  uint64_t reference_digest = 0;
  for (uint32_t shards : {1u, 16u}) {
    sim::ShardedServiceConfig config =
        BaseConfig(k, requests, master_seed, workload_seed);
    config.shards = shards;
    sim::ShardedServiceDriver driver(dataset, graph.value(),
                                     core::MakeSecurePolicyFactory(params),
                                     config);
    auto result = driver.Run();
    if (!result.ok()) {
      return "driver failed at K=" + std::to_string(shards) + ": " +
             result.status().ToString();
    }
    if (shards == 1) {
      reference_digest = result.value().service.registry_digest;
    } else if (result.value().service.registry_digest != reference_digest) {
      return "digest diverged at K=" + std::to_string(shards);
    }
  }

  // The K=4 run: adversary observer on the wire, sharded durability on
  // disk.
  audit::TaintSet taint;
  for (uint32_t u = 0; u < n; ++u) taint.TaintPoint(u, dataset.point(u));
  audit::ObserverConfig observer_config;
  observer_config.taint = &taint;
  audit::AdversaryObserver observer(observer_config);

  const std::string dir = ::testing::TempDir() + "cross_shard_prop_" +
                          std::to_string(master_seed);
  std::filesystem::remove_all(dir);
  sim::ShardedServiceConfig config =
      BaseConfig(k, requests, master_seed, workload_seed);
  config.shards = 4;
  config.durability_dir = dir;
  config.service.checkpoint_interval = 4;
  config.service.tap = &observer;
  sim::ShardedServiceDriver driver(dataset, graph.value(),
                                   core::MakeSecurePolicyFactory(params),
                                   config);
  auto sharded = driver.Run();
  if (!sharded.ok()) {
    return "K=4 driver failed: " + sharded.status().ToString();
  }
  if (sharded.value().service.registry_digest != reference_digest) {
    return std::string("digest diverged at K=4");
  }
  if (!observer.clean()) {
    return "observer flagged exposure:\n" + observer.Report();
  }
  if (observer.messages_seen() == 0) {
    return std::string("observer saw no traffic");
  }

  // Recover the per-shard streams and assemble the registry back.
  auto recovered = durability::RecoverAllShards(dir, 4, n);
  if (!recovered.ok()) {
    return "recovery failed: " + recovered.status().ToString();
  }
  auto registry = durability::AssembleRegistry(recovered.value());
  if (!registry.ok()) {
    return "assembly failed: " + registry.status().ToString();
  }
  if (registry.value()->Digest() != reference_digest) {
    return std::string("assembled registry diverged from the run");
  }

  // Boundary clusters obey the same invariants as interior ones: one loop,
  // no branch on whether the cluster crosses shards.
  const cluster::ShardMap map(dataset, 4);
  uint64_t crossing = 0;
  const cluster::Registry& reg = *registry.value();
  for (cluster::ClusterId id = 0; id < reg.cluster_count(); ++id) {
    const cluster::ClusterInfo& info = reg.info(id);
    if (info.members.empty()) {
      return "cluster " + std::to_string(id) + " has no members";
    }
    for (size_t i = 1; i < info.members.size(); ++i) {
      if (info.members[i] <= info.members[i - 1]) {
        return "cluster " + std::to_string(id) +
               " membership is not sorted unique";
      }
    }
    if (info.valid && info.members.size() < k) {
      return "valid cluster " + std::to_string(id) + " smaller than k";
    }
    if (map.CrossesShards(info.members)) ++crossing;
  }
  if (crossing != sharded.value().cross_shard_clusters) {
    return "driver counted " +
           std::to_string(sharded.value().cross_shard_clusters) +
           " boundary clusters, registry walk found " +
           std::to_string(crossing);
  }
  *cross_shard_seen += crossing;

  const core::AuditReport report =
      core::AuditAnonymity(reg, dataset, k, nullptr);
  if (!report.ok()) {
    return "anonymity audit failed: " +
           report.violations.front().description;
  }
  return std::nullopt;
}

TEST(CrossShardProptest, BoundaryClustersStaySafeAndShardCountInvariant) {
  util::PropSpec spec;
  spec.name = "cross_shard_proptest";
  spec.base_seed = 0x5eedb0a7u;
  spec.iterations = 10;  // CI elevates via NELA_PROPTEST_ITERS
  spec.min_size = 2;
  spec.max_size = 8;  // size doubles as the anonymity requirement k

  uint64_t cross_shard_seen = 0;
  auto failure = util::RunProperty(
      spec, [&cross_shard_seen](util::Rng& rng, uint32_t size) {
        return RunScenario(rng, size, &cross_shard_seen);
      });
  ASSERT_FALSE(failure.has_value()) << failure->message << "\n"
                                    << failure->repro;
  // The datasets are built to straddle the grid; if no cluster ever
  // crossed a boundary the generator (or CrossesShards) is broken.
  EXPECT_GT(cross_shard_seen, 0u);
}

}  // namespace
}  // namespace nela
