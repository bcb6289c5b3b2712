// Baseline mechanisms through the sharded service driver (ctest labels:
// mechanisms, determinism): for every non-default mechanism family the
// outcome digest -- the FNV fold of each request's (host, admission,
// satisfaction, region/probe bits) -- must be bit-identical across worker
// thread counts {1,4,8} and shard counts {1,2}, with the adversary
// observer and the family's leak-contract checker tapped onto the wire
// the whole time and staying clean. Also pins the config validation: the
// baseline mode composes with admission and fault plans, never with
// durability or stall injection.

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "audit/leak_contract.h"
#include "audit/observer.h"
#include "audit/taint.h"
#include "audit/tap_chain.h"
#include "core/policy_factory.h"
#include "geo/point.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/status.h"

namespace nela::sim {
namespace {

const Scenario& SharedScenario() {
  static const Scenario scenario = [] {
    ScenarioConfig config;
    config.user_count = 400;
    config.delta = 0.04;
    config.seed = 29;
    auto built = BuildScenario(config);
    NELA_CHECK(built.ok());
    return std::move(built).value();
  }();
  return scenario;
}

ShardedServiceConfig MechanismConfig(audit::MechanismFamily family,
                                     uint32_t threads, uint32_t shards) {
  ShardedServiceConfig config;
  config.service.k = 4;
  config.service.requests = 96;
  config.service.threads = threads;
  config.service.master_seed = 77;
  config.service.workload_seed = 31;
  config.service.mechanism = family;
  config.shards = shards;
  return config;
}

util::Result<ShardedServiceResult> RunConfig(
    const ShardedServiceConfig& config) {
  const Scenario& scenario = SharedScenario();
  const core::BoundingParams params;
  ShardedServiceDriver driver(scenario.dataset, scenario.graph,
                              core::MakeSecurePolicyFactory(params), config);
  return driver.Run();
}

TEST(MechanismDeterminismTest, OutcomeDigestIsThreadAndShardInvariant) {
  const Scenario& scenario = SharedScenario();
  audit::TaintSet taint;
  std::vector<geo::Point> true_points;
  for (uint32_t u = 0; u < scenario.dataset.size(); ++u) {
    taint.TaintPoint(u, scenario.dataset.point(u));
    true_points.push_back(scenario.dataset.point(u));
  }

  for (audit::MechanismFamily family :
       {audit::MechanismFamily::kGridCloak, audit::MechanismFamily::kGeoInd,
        audit::MechanismFamily::kDummyLocations}) {
    std::optional<uint64_t> reference;
    std::optional<uint64_t> reference_satisfied;
    for (uint32_t shards : {1u, 2u}) {
      for (uint32_t threads : {1u, 4u, 8u}) {
        audit::ObserverConfig oc;
        oc.taint = &taint;
        oc.allow_declared_exposure =
            family == audit::MechanismFamily::kGridCloak;
        audit::AdversaryObserver observer(oc);
        audit::LeakContractConfig cc;
        cc.family = family;
        cc.k = 4;
        cc.true_points = true_points;
        audit::LeakContractChecker checker(cc);
        audit::TapChain chain;
        chain.Add(&observer);
        chain.Add(&checker);

        ShardedServiceConfig config =
            MechanismConfig(family, threads, shards);
        config.service.tap = &chain;
        auto result = RunConfig(config);
        ASSERT_TRUE(result.ok()) << result.status().message();
        checker.Finalize();

        const ServiceResult& service = result.value().service;
        EXPECT_GT(service.outcome_digest, 0u);
        uint64_t satisfied = 0;
        for (const ServiceRequestRecord& record : service.records) {
          if (record.outcome.anonymity_satisfied) ++satisfied;
        }
        EXPECT_GT(satisfied, 0u)
            << audit::MechanismFamilyName(family);
        if (!reference.has_value()) {
          reference = service.outcome_digest;
          reference_satisfied = satisfied;
        } else {
          EXPECT_EQ(service.outcome_digest, *reference)
              << audit::MechanismFamilyName(family) << " threads=" << threads
              << " shards=" << shards;
          EXPECT_EQ(satisfied, *reference_satisfied);
        }
        EXPECT_TRUE(observer.clean())
            << audit::MechanismFamilyName(family) << "\n"
            << observer.Report();
        EXPECT_TRUE(checker.clean())
            << audit::MechanismFamilyName(family) << "\n"
            << checker.Report();
        EXPECT_GT(observer.messages_seen(), 0u);
        if (family == audit::MechanismFamily::kGridCloak) {
          EXPECT_GT(observer.declared_exposures(), 0u);
        } else {
          EXPECT_EQ(observer.declared_exposures(), 0u);
        }
      }
    }
  }
}

TEST(MechanismDeterminismTest, BaselineModeComposesWithAdmission) {
  ShardedServiceConfig config =
      MechanismConfig(audit::MechanismFamily::kGeoInd, 4, 1);
  config.service.offered_rate_per_ms = 50.0;
  config.service.service_time_ms = 1.0;
  config.service.queue_capacity = 8;
  auto result = RunConfig(config);
  ASSERT_TRUE(result.ok()) << result.status().message();
  const ServiceResult& service = result.value().service;
  // Saturated queue: something was shed, the rest were served.
  EXPECT_GT(service.shed_queue_overflow + service.shed_deadline, 0u);
  EXPECT_GT(service.admitted, 0u);
  // The shed set (computed sequentially up front) is part of the digest.
  auto again = RunConfig(config);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().service.outcome_digest, service.outcome_digest);
}

TEST(MechanismDeterminismTest, BaselineModeRejectsDurabilityAndStall) {
  {
    ShardedServiceConfig config =
        MechanismConfig(audit::MechanismFamily::kGeoInd, 1, 1);
    config.service.stall_ordinal = 3;
    auto result = RunConfig(config);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  }
  {
    ShardedServiceConfig config =
        MechanismConfig(audit::MechanismFamily::kDummyLocations, 1, 1);
    config.durability_dir = "/tmp/nela_mechanism_should_not_exist_dir";
    auto result = RunConfig(config);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace nela::sim
