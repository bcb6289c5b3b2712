// Table-driven coverage of every DegradationReport failure path -- the
// engine-level degradations (below-k churn, exhausted retry budget, request
// deadline, broken increment policy) and the service-level ones (admission
// queue overflow, deadline shed, crash abort). Every path must deliver a
// structured report: the expected failure code, a non-empty reason naming
// no coordinate, an empty region, anonymity_satisfied = false, and
// FinalizeDegradation sealing the report exactly once.

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bounding/increment_policy.h"
#include "cluster/distributed_tconn.h"
#include "cluster/registry.h"
#include "core/cloaking_engine.h"
#include "core/policy_factory.h"
#include "core/request_context.h"
#include "data/generators.h"
#include "geo/rect.h"
#include "graph/wpg_builder.h"
#include "net/fault_plan.h"
#include "net/network.h"
#include "net/retry.h"
#include "scenario_fixtures.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/rng.h"
#include "util/status.h"

namespace nela::core {
namespace {

constexpr uint32_t kK = 4;

using fixtures::SmallWorld;

const SmallWorld& World() {
  static const SmallWorld world = fixtures::MakeWorld(41);
  return world;
}

PolicyFactory WorldPolicyFactory() {
  BoundingParams params;
  params.density = 200.0;
  return MakeSecurePolicyFactory(params);
}

// An engine whose phase 1 ignores the network (so clustering always
// succeeds) while phase 2 sees it -- isolating the bounding-layer
// degradations.
CloakingEngine MakeEngine(cluster::Registry* registry, net::Network* network,
                          PolicyFactory factory, util::Rng* jitter) {
  CloakingEngine engine(
      World().dataset,
      std::make_unique<cluster::DistributedTConnClusterer>(World().graph, kK,
                                                           registry),
      registry, std::move(factory), BoundingMode::kSecureProtocol, network);
  if (jitter != nullptr) {
    engine.SetRetryPolicy(net::BackoffPolicy{}, jitter);
  }
  return engine;
}

// A host whose clean cluster has at least kK + 1 members, plus that
// member list (for scheduling churn).
struct CleanCluster {
  data::UserId host = 0;
  std::vector<graph::VertexId> members;
};

const CleanCluster& FindCleanCluster() {
  static const CleanCluster found = [] {
    for (data::UserId host = 0; host < 40; ++host) {
      cluster::Registry registry(World().dataset.size());
      CloakingEngine engine =
          MakeEngine(&registry, nullptr, WorldPolicyFactory(), nullptr);
      auto outcome = engine.RequestCloaking(host);
      NELA_CHECK(outcome.ok());
      if (!outcome.value().anonymity_satisfied) continue;
      const auto& members =
          registry.info(outcome.value().cluster_id).members;
      if (members.size() >= kK + 1) {
        return CleanCluster{host, members};
      }
    }
    NELA_CHECK(false);  // the 200-user world always has such a cluster
    return CleanCluster{};
  }();
  return found;
}

struct CaseResult {
  CloakingOutcome outcome;
  geo::Point host_point;
};

struct FailurePathCase {
  const char* name;
  util::StatusCode expected_code;
  std::function<CaseResult()> run;
};

// --- Engine-level paths ---------------------------------------------------

CaseResult BelowKAfterChurn() {
  const CleanCluster& clean = FindCleanCluster();
  cluster::Registry registry(World().dataset.size());
  net::Network network(World().dataset.size());
  for (graph::VertexId member : clean.members) {
    if (member != clean.host) network.CrashNode(member);
  }
  util::Rng jitter(13);
  CloakingEngine engine =
      MakeEngine(&registry, &network, WorldPolicyFactory(), &jitter);
  auto outcome = engine.RequestCloaking(clean.host);
  NELA_CHECK(outcome.ok());
  return {std::move(outcome).value(), World().dataset.point(clean.host)};
}

CaseResult ExhaustedRetryBudget() {
  const CleanCluster& clean = FindCleanCluster();
  cluster::Registry registry(World().dataset.size());
  net::Network network(World().dataset.size());
  util::Rng loss_rng(4);
  NELA_CHECK(network.SetLossProbability(1.0, &loss_rng).ok());
  util::Rng jitter(13);
  CloakingEngine engine =
      MakeEngine(&registry, &network, WorldPolicyFactory(), &jitter);
  auto outcome = engine.RequestCloaking(clean.host);
  NELA_CHECK(outcome.ok());
  return {std::move(outcome).value(), World().dataset.point(clean.host)};
}

CaseResult RequestDeadlineExhausted() {
  const CleanCluster& clean = FindCleanCluster();
  cluster::Registry registry(World().dataset.size());
  net::Network network(World().dataset.size());
  util::Rng jitter(13);
  CloakingEngine engine =
      MakeEngine(&registry, &network, WorldPolicyFactory(), &jitter);
  RequestContext ctx(/*master_seed=*/7, /*ordinal=*/0, clean.host);
  ctx.set_deadline_ms(0.5);
  // An upstream wait (e.g. an admission queue) already spent the budget.
  ctx.scope().RecordBackoff(1.0);
  auto outcome = engine.RequestCloaking(clean.host, ctx);
  NELA_CHECK(outcome.ok());
  return {std::move(outcome).value(), World().dataset.point(clean.host)};
}

class ZeroIncrementPolicy : public bounding::IncrementPolicy {
 public:
  double NextIncrement(double, uint32_t, uint32_t) override { return 0.0; }
  const char* name() const override { return "zero"; }
};

CaseResult NonPositiveIncrement() {
  const CleanCluster& clean = FindCleanCluster();
  cluster::Registry registry(World().dataset.size());
  PolicyFactory broken = [](uint32_t) {
    return std::make_unique<ZeroIncrementPolicy>();
  };
  CloakingEngine engine =
      MakeEngine(&registry, nullptr, std::move(broken), nullptr);
  auto outcome = engine.RequestCloaking(clean.host);
  NELA_CHECK(outcome.ok());
  return {std::move(outcome).value(), World().dataset.point(clean.host)};
}

// --- Service-level paths --------------------------------------------------

const sim::Scenario& ServiceScenario() {
  static const sim::Scenario scenario = [] {
    sim::ScenarioConfig config;
    config.user_count = 600;
    config.delta = 0.03;
    config.seed = 11;
    auto built = sim::BuildScenario(config);
    NELA_CHECK(built.ok());
    return std::move(built).value();
  }();
  return scenario;
}

sim::ServiceResult RunService(const sim::ShardedServiceConfig& config) {
  const sim::Scenario& scenario = ServiceScenario();
  sim::ShardedServiceDriver driver(scenario.dataset, scenario.graph,
                                   MakeSecurePolicyFactory(BoundingParams{}),
                                   config);
  auto result = driver.Run();
  NELA_CHECK(result.ok());
  return std::move(result).value().service;
}

CaseResult FirstRecordWhere(
    const sim::ServiceResult& result,
    const std::function<bool(const sim::ServiceRequestRecord&)>& pred) {
  for (const sim::ServiceRequestRecord& record : result.records) {
    if (pred(record)) {
      return {record.outcome, ServiceScenario().dataset.point(record.host)};
    }
  }
  NELA_CHECK(false);  // the configs below always produce a match
  return {};
}

CaseResult QueueOverflowShed() {
  sim::ShardedServiceConfig config;
  config.service.k = 5;
  config.service.requests = 128;
  config.service.threads = 2;
  config.service.offered_rate_per_ms = 8.0;  // 4x the sustainable 2/ms
  config.service.service_time_ms = 1.0;
  config.service.queue_capacity = 4;
  const sim::ServiceResult result = RunService(config);
  return FirstRecordWhere(result, [](const sim::ServiceRequestRecord& r) {
    return r.shed == sim::ShedCause::kQueueOverflow;
  });
}

CaseResult DeadlineShed() {
  sim::ShardedServiceConfig config;
  config.service.k = 5;
  config.service.requests = 128;
  config.service.threads = 2;
  config.service.offered_rate_per_ms = 8.0;
  config.service.service_time_ms = 1.0;
  // Unbounded queue; the wait blows the deadline.
  config.service.deadline_ms = 2.0;
  const sim::ServiceResult result = RunService(config);
  return FirstRecordWhere(result, [](const sim::ServiceRequestRecord& r) {
    return r.shed == sim::ShedCause::kDeadline;
  });
}

CaseResult CrashAbort() {
  const std::string dir =
      ::testing::TempDir() + "degradation_crash_abort";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  sim::ShardedServiceConfig config;
  config.service.k = 5;
  config.service.requests = 64;
  config.service.threads = 2;
  config.durability_dir = dir;
  config.service.fault_plan.process_crashes.push_back(
      net::ProcessCrashEvent{net::ProcessCrashPoint::kPostCommit, 2});
  const sim::ServiceResult result = RunService(config);
  NELA_CHECK(result.crashed);
  return FirstRecordWhere(result, [](const sim::ServiceRequestRecord& r) {
    return r.aborted_by_crash;
  });
}

// --- The table ------------------------------------------------------------

class DegradationReportTest
    : public ::testing::TestWithParam<FailurePathCase> {};

TEST_P(DegradationReportTest, PathDeliversStructuredNonExposingReport) {
  const FailurePathCase& param = GetParam();
  const CaseResult result = param.run();
  const CloakingOutcome& outcome = result.outcome;
  const DegradationReport& report = outcome.degradation;

  EXPECT_FALSE(outcome.anonymity_satisfied);
  EXPECT_EQ(outcome.region, geo::Rect()) << "a failure path leaked a region";
  EXPECT_EQ(report.failure_code, param.expected_code);
  EXPECT_FALSE(report.failure_reason.empty());
  EXPECT_FALSE(report.stages.empty());
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.finalize_count, 1u)
      << "the report must be sealed exactly once";
  // The reason may name counts, ids, and times -- never the host position.
  EXPECT_EQ(report.failure_reason.find(std::to_string(result.host_point.x)),
            std::string::npos)
      << report.failure_reason;
  EXPECT_EQ(report.failure_reason.find(std::to_string(result.host_point.y)),
            std::string::npos)
      << report.failure_reason;
}

INSTANTIATE_TEST_SUITE_P(
    AllFailurePaths, DegradationReportTest,
    ::testing::Values(
        FailurePathCase{"below_k_after_churn",
                        util::StatusCode::kFailedPrecondition,
                        BelowKAfterChurn},
        FailurePathCase{"exhausted_retry_budget",
                        util::StatusCode::kDeadlineExceeded,
                        ExhaustedRetryBudget},
        FailurePathCase{"request_deadline",
                        util::StatusCode::kDeadlineExceeded,
                        RequestDeadlineExhausted},
        FailurePathCase{"non_positive_increment",
                        util::StatusCode::kInternal, NonPositiveIncrement},
        FailurePathCase{"queue_overflow_shed",
                        util::StatusCode::kUnavailable, QueueOverflowShed},
        FailurePathCase{"deadline_shed",
                        util::StatusCode::kDeadlineExceeded, DeadlineShed},
        FailurePathCase{"crash_abort", util::StatusCode::kUnavailable,
                        CrashAbort}),
    [](const ::testing::TestParamInfo<FailurePathCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace nela::core
