// Tests for the service driver at K=1. BatchDriverTest runs closed
// batches: bit-identical registry state and traces across thread counts,
// agreement with the sequential engine request by request, repeatable runs,
// scoped traffic accounting and workload-size validation. ServiceDriverTest
// turns the queue model on: deterministic load shedding under sustained
// overload (structured, non-exposing, audited by the adversary observer),
// the watchdog's rescue of a stalled worker, and config validation.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/observer.h"
#include "audit/taint.h"
#include "cluster/distributed_tconn.h"
#include "cluster/registry.h"
#include "core/cloaking_engine.h"
#include "core/policy_factory.h"
#include "geo/rect.h"
#include "net/network.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "util/status.h"

namespace nela::sim {
namespace {

const Scenario& SharedScenario() {
  static const Scenario scenario = [] {
    ScenarioConfig config;
    config.user_count = 1500;
    config.delta = 0.02;
    config.seed = 11;
    auto built = BuildScenario(config);
    NELA_CHECK(built.ok());
    return std::move(built).value();
  }();
  return scenario;
}

// One shard, queue model off: every request admitted at t=0.
ShardedServiceConfig ClosedBatchConfig(uint32_t threads) {
  ShardedServiceConfig config;
  config.service.k = 5;
  config.service.requests = 256;
  config.service.threads = threads;
  config.service.master_seed = 99;
  config.service.workload_seed = 17;
  return config;
}

ShardedServiceDriver MakeDriver(const ShardedServiceConfig& config) {
  const Scenario& scenario = SharedScenario();
  const core::BoundingParams params;
  return ShardedServiceDriver(scenario.dataset, scenario.graph,
                              core::MakeSecurePolicyFactory(params), config);
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

ServiceResult MustRun(const ShardedServiceConfig& config) {
  auto result = MakeDriver(config).Run();
  NELA_CHECK(result.ok());
  return std::move(result).value().service;
}

// An S=256 closed batch over the same seed produces bit-identical registry
// state, per-request outcomes and trace output whether executed by 1, 4 or
// 8 worker threads.
TEST(BatchDriverTest, BitIdenticalRegistryAndTracesAcrossThreadCounts) {
  std::vector<ServiceResult> results;
  for (uint32_t threads : {1u, 4u, 8u}) {
    results.push_back(MustRun(ClosedBatchConfig(threads)));
  }

  const ServiceResult& baseline = results[0];
  ASSERT_EQ(baseline.records.size(), 256u);
  EXPECT_TRUE(baseline.reciprocity_ok);
  EXPECT_GT(baseline.clusters_formed, 0u);

  const std::string baseline_traces = ConcatTraces(baseline.records);
  for (size_t i = 1; i < results.size(); ++i) {
    const ServiceResult& other = results[i];
    EXPECT_EQ(baseline.registry_digest, other.registry_digest)
        << "registry diverged at thread config " << i;
    EXPECT_EQ(baseline_traces, ConcatTraces(other.records))
        << "traces diverged at thread config " << i;
    EXPECT_EQ(baseline.clusters_formed, other.clusters_formed);
    EXPECT_TRUE(other.reciprocity_ok);
    ASSERT_EQ(baseline.records.size(), other.records.size());
    for (size_t r = 0; r < baseline.records.size(); ++r) {
      const core::CloakingOutcome& a = baseline.records[r].outcome;
      const core::CloakingOutcome& b = other.records[r].outcome;
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
  }
}

// Repeating the same config must reproduce the digest exactly (fresh state
// per Run). Note the master seed does feed the registry since hypothesis
// origins randomize from each request's private sub-stream: region bit
// patterns (and hence the digest) are a function of it -- but a fixed
// config must still reproduce them exactly.
TEST(BatchDriverTest, RunIsRepeatable) {
  ShardedServiceDriver driver = MakeDriver(ClosedBatchConfig(4));
  auto first = driver.Run();
  auto second = driver.Run();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().service.registry_digest,
            second.value().service.registry_digest);
  EXPECT_EQ(ConcatTraces(first.value().service.records),
            ConcatTraces(second.value().service.records));
}

// The service driver must agree with the plain sequential engine request
// by request: same clusters, same regions, same reuse decisions.
TEST(BatchDriverTest, MatchesSequentialEngineOutcomes) {
  const Scenario& scenario = SharedScenario();
  const core::BoundingParams params;
  const ShardedServiceConfig config = ClosedBatchConfig(8);
  const ServiceResult batch = MustRun(config);

  // Sequential reference: the same hosts, in ordinal order, through the
  // ordinary engine pipeline against a fresh registry -- with a fault-free
  // network attached, like the driver's, so the below-k liveness check is
  // active in both.
  util::Rng workload_rng(config.service.workload_seed);
  const std::vector<data::UserId> hosts = SampleWorkload(
      scenario.dataset.size(), config.service.requests, workload_rng);
  cluster::Registry registry(scenario.dataset.size());
  net::Network network(scenario.dataset.size());
  core::CloakingEngine engine(
      scenario.dataset,
      std::make_unique<cluster::DistributedTConnClusterer>(
          scenario.graph, config.service.k, &registry),
      &registry, core::MakeSecurePolicyFactory(params),
      core::BoundingMode::kSecureProtocol, &network);
  // Hypothesis origins draw from each request's (master_seed, ordinal)
  // sub-stream; the reference engine must use the driver's master seed for
  // region bit patterns to agree.
  engine.set_master_seed(config.service.master_seed);

  ASSERT_EQ(hosts.size(), batch.records.size());
  for (size_t i = 0; i < hosts.size(); ++i) {
    const ServiceRequestRecord& record = batch.records[i];
    ASSERT_EQ(record.host, hosts[i]);
    auto outcome = engine.RequestCloaking(hosts[i]);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.value().cluster_id, record.outcome.cluster_id)
        << "request " << i;
    EXPECT_EQ(outcome.value().region, record.outcome.region)
        << "request " << i;
    EXPECT_EQ(outcome.value().region_reused, record.outcome.region_reused)
        << "request " << i;
    EXPECT_EQ(outcome.value().cluster_reused, record.outcome.cluster_reused)
        << "request " << i;
    EXPECT_EQ(outcome.value().anonymity_satisfied,
              record.outcome.anonymity_satisfied)
        << "request " << i;
    EXPECT_EQ(outcome.value().clustering_messages,
              record.outcome.clustering_messages)
        << "request " << i;
  }
}

// Per-request scoped accounting: with the shared fault-free network
// attached, every bounding request that actually ran phase 2 reports its
// own traffic, and the global network counters equal the scoped sum.
TEST(BatchDriverTest, ScopedAccountingCoversBoundingTraffic) {
  ShardedServiceConfig config = ClosedBatchConfig(4);
  config.service.requests = 64;
  const ServiceResult result = MustRun(config);
  uint64_t scoped_messages = 0;
  bool some_bounding_traffic = false;
  for (const ServiceRequestRecord& record : result.records) {
    scoped_messages += record.net_stats.messages_delivered;
    EXPECT_EQ(record.net_stats.messages_failed, 0u);  // fault-free
    if (!record.outcome.region_reused &&
        record.outcome.anonymity_satisfied) {
      EXPECT_GT(record.net_stats.messages_delivered, 0u)
          << "request " << record.ordinal;
      some_bounding_traffic = true;
    }
  }
  EXPECT_TRUE(some_bounding_traffic);
  EXPECT_GT(scoped_messages, 0u);
}

// A batch cannot ask for more requests than there are users to host them.
TEST(BatchDriverTest, RejectsOversizedWorkload) {
  ShardedServiceConfig config = ClosedBatchConfig(1);
  config.service.requests = SharedScenario().dataset.size() + 1;
  EXPECT_FALSE(MakeDriver(config).Run().ok());
}

// A light load (a quarter of sustainable) admits everything with small
// waits: the queue model must not shed or distort an underloaded service.
TEST(ServiceDriverTest, UnderloadAdmitsEveryRequest) {
  ShardedServiceConfig config = ClosedBatchConfig(4);
  config.service.requests = 128;
  config.service.offered_rate_per_ms = 1.0;  // sustainable is 4/ms
  config.service.service_time_ms = 1.0;
  config.service.queue_capacity = 16;
  config.service.deadline_ms = 50.0;
  const ServiceResult result = MustRun(config);
  EXPECT_EQ(result.admitted, 128u);
  EXPECT_EQ(result.shed_queue_overflow, 0u);
  EXPECT_EQ(result.shed_deadline, 0u);
  EXPECT_LT(result.p99_queue_wait_ms, 5.0);
}

// Sustained 2x overload: the service sheds deterministically, every shed is
// a structured degradation (finalized exactly once, empty region, no
// coordinate anywhere), the adversary observer sees no exposure, and the
// admitted requests' queue wait stays bounded by the deadline.
TEST(ServiceDriverTest, OverloadShedsAreStructuredAndNonExposing) {
  const Scenario& scenario = SharedScenario();

  audit::TaintSet taint;
  for (uint32_t u = 0; u < scenario.dataset.size(); ++u) {
    taint.TaintPoint(u, scenario.dataset.point(u));
  }
  audit::ObserverConfig observer_config;
  observer_config.taint = &taint;
  audit::AdversaryObserver observer(observer_config);

  ShardedServiceConfig config = ClosedBatchConfig(4);
  config.service.requests = 256;
  config.service.offered_rate_per_ms = 8.0;  // 2x the sustainable 4/ms
  config.service.service_time_ms = 1.0;
  config.service.queue_capacity = 16;
  config.service.deadline_ms = 3.9;
  config.service.tap = &observer;
  const ServiceResult result = MustRun(config);

  EXPECT_GT(result.shed_queue_overflow, 0u);
  EXPECT_GT(result.shed_deadline, 0u);
  EXPECT_GT(result.admitted, 0u);
  EXPECT_EQ(result.admitted + result.shed_queue_overflow +
                result.shed_deadline,
            256u);
  EXPECT_LE(result.p99_queue_wait_ms, config.service.deadline_ms);

  for (const ServiceRequestRecord& record : result.records) {
    const core::DegradationReport& report = record.outcome.degradation;
    EXPECT_EQ(report.finalize_count, 1u) << "ordinal " << record.ordinal;
    if (record.admitted) continue;
    EXPECT_FALSE(record.outcome.anonymity_satisfied);
    EXPECT_EQ(record.outcome.region, geo::Rect());
    EXPECT_FALSE(report.failure_reason.empty());
    EXPECT_FALSE(report.stages.empty());
    EXPECT_FALSE(record.trace.empty());
    if (record.shed == ShedCause::kQueueOverflow) {
      EXPECT_EQ(report.failure_code, util::StatusCode::kUnavailable);
    } else {
      ASSERT_EQ(record.shed, ShedCause::kDeadline);
      EXPECT_EQ(report.failure_code, util::StatusCode::kDeadlineExceeded);
      EXPECT_GT(record.queue_wait_ms, config.service.deadline_ms);
    }
    // A shed must never name a coordinate: its reason is built from queue
    // lengths and times only.
    const geo::Point p = scenario.dataset.point(record.host);
    EXPECT_EQ(report.failure_reason.find(std::to_string(p.x)),
              std::string::npos);
    EXPECT_EQ(report.failure_reason.find(std::to_string(p.y)),
              std::string::npos);
  }

  EXPECT_TRUE(observer.clean()) << observer.Report();
  EXPECT_GT(observer.messages_seen(), 0u);

  // The shed set is a pure function of the config: a second run reproduces
  // every admission decision and the final digest bit for bit.
  config.service.tap = nullptr;
  const ServiceResult again = MustRun(config);
  EXPECT_EQ(again.registry_digest, result.registry_digest);
  ASSERT_EQ(again.records.size(), result.records.size());
  for (size_t r = 0; r < result.records.size(); ++r) {
    EXPECT_EQ(again.records[r].admitted, result.records[r].admitted);
    EXPECT_EQ(again.records[r].shed, result.records[r].shed);
    EXPECT_EQ(again.records[r].queue_wait_ms,
              result.records[r].queue_wait_ms);
  }
}

// A worker that stalls after speculating is re-executed by the watchdog;
// the rescued run's digest and traces are bit-identical to a run without
// the stall, at every thread count.
//
// At one thread the run also drives the commit rule deterministically:
// ordinal 4 speculates while ordinal 3 is parked, then rescues it from the
// turnstile wait, so ordinal 3's commit makes ordinal 4's mask stale. The
// turnstile must discard that speculation (one abort) and recompute; a
// clean one-thread run speculates on a current mask every time.
TEST(ServiceDriverTest, WatchdogRescuesStalledRequestWithoutDigestDrift) {
  for (uint32_t threads : {1u, 4u, 8u}) {
    ShardedServiceConfig config = ClosedBatchConfig(threads);
    config.service.requests = 96;
    const ServiceResult clean = MustRun(config);
    EXPECT_EQ(clean.watchdog_requeues, 0u);

    config.service.stall_ordinal = 3;
    const ServiceResult rescued = MustRun(config);
    EXPECT_EQ(rescued.watchdog_requeues, 1u) << "threads=" << threads;
    if (threads == 1) {
      EXPECT_EQ(clean.speculation_aborts, 0u);
      EXPECT_EQ(rescued.speculation_aborts, 1u);
    }
    EXPECT_EQ(rescued.registry_digest, clean.registry_digest)
        << "threads=" << threads;
    EXPECT_EQ(ConcatTraces(rescued.records), ConcatTraces(clean.records))
        << "threads=" << threads;
    for (const ServiceRequestRecord& record : rescued.records) {
      EXPECT_EQ(record.outcome.degradation.finalize_count, 1u)
          << "ordinal " << record.ordinal;
    }
  }
}

TEST(ServiceDriverTest, RejectsInvalidConfigs) {
  auto run_with = [](const ShardedServiceConfig& config) {
    return MakeDriver(config).Run();
  };

  ShardedServiceConfig no_requests = ClosedBatchConfig(1);
  no_requests.service.requests = 0;
  EXPECT_FALSE(run_with(no_requests).ok());

  ShardedServiceConfig zero_service = ClosedBatchConfig(1);
  zero_service.service.offered_rate_per_ms = 2.0;
  zero_service.service.service_time_ms = 0.0;
  EXPECT_FALSE(run_with(zero_service).ok());

  ShardedServiceConfig no_durability_dir = ClosedBatchConfig(1);
  no_durability_dir.service.checkpoint_interval = 4;  // nowhere to write
  EXPECT_FALSE(run_with(no_durability_dir).ok());

  ShardedServiceConfig stall_out_of_range = ClosedBatchConfig(1);
  stall_out_of_range.service.stall_ordinal =
      stall_out_of_range.service.requests;
  EXPECT_FALSE(run_with(stall_out_of_range).ok());
}

}  // namespace
}  // namespace nela::sim
