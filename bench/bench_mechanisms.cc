// Comparative mechanism bench: every privacy mechanism (the paper's
// clustering+bounding scheme and the three baselines -- grid cloak,
// geo-indistinguishability, dummy locations) over dataset {uniform,
// clustered} x k, each campaign run with the adversary observer and the
// family's leak-contract checker on the wire. Per cell the paper-style
// columns come out side by side:
//
//   privacy  -- observer violations (must be 0), contract violations
//               (must be 0), declared exposures (grid cloak's upload
//               channel), and the tightest knowledge interval any
//               principal provably learned (-1 = nothing: the mechanism
//               never runs the bounding protocol);
//   utility  -- mean cloaked-region area / candidate probes per request,
//               mean POI candidates shipped back;
//   cost     -- mean LBS query cost (candidates x Cr) and wire messages
//               per request.
//
// Results go to stdout, <output_dir>/bench_mechanisms.csv, and the JSON
// summary <output_dir>/BENCH_mechanisms.json (path overridable via
// NELA_BENCH_MECHANISMS_JSON) for the CI bench-smoke artifact.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "audit/leak_contract.h"
#include "bench/bench_common.h"
#include "mechanisms/comparative_driver.h"
#include "sim/scenario.h"
#include "util/csv.h"
#include "util/flags.h"

namespace {

struct MechanismSample {
  std::string mechanism;
  std::string dataset;
  uint32_t k = 0;
  nela::mechanisms::CampaignResult result;
};

// JSON has no infinity; the "never learned anything" sentinel is -1.
double JsonWidth(double width) { return std::isinf(width) ? -1.0 : width; }

void WriteMechanismsJsonBody(std::FILE* f,
                             const std::vector<MechanismSample>& samples) {
  std::fprintf(f, "{\n  \"benchmark\": \"bench_mechanisms\",\n");
  std::fprintf(f, "  \"sweep\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const MechanismSample& s = samples[i];
    const nela::mechanisms::CampaignResult& r = s.result;
    std::fprintf(
        f,
        "    {\"mechanism\": \"%s\", \"dataset\": \"%s\", \"k\": %u, "
        "\"requests\": %" PRIu64 ", \"satisfied\": %" PRIu64
        ", \"request_errors\": %" PRIu64 ", \"mean_region_area\": %.6g, "
        "\"mean_candidate_count\": %.3f, \"mean_query_cost\": %.1f, "
        "\"mean_messages\": %.2f, \"observer_violations\": %" PRIu64
        ", \"contract_violations\": %" PRIu64
        ", \"declared_exposures\": %" PRIu64
        ", \"tightest_learned_width\": %.6g, \"messages_on_wire\": %" PRIu64
        "}%s\n",
        s.mechanism.c_str(), s.dataset.c_str(), s.k, r.requests, r.satisfied,
        r.request_errors, r.mean_region_area, r.mean_candidate_count,
        r.mean_query_cost, r.mean_messages, r.observer_violations,
        r.contract_violations, r.declared_exposures,
        JsonWidth(r.tightest_learned_width), r.messages_on_wire,
        i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

nela::util::Status WriteMechanismsJson(
    const std::string& output_dir,
    const std::vector<MechanismSample>& samples) {
  return nela::bench::WriteBenchJson(
      "NELA_BENCH_MECHANISMS_JSON", output_dir + "/BENCH_mechanisms.json",
      [&samples](std::FILE* f) { WriteMechanismsJsonBody(f, samples); });
}

int Run(int argc, char** argv) {
  int64_t users = 1500;
  int64_t requests = 64;
  int64_t master_seed = 1;
  int64_t workload_seed = 7;
  double delta = 0.025;
  std::string output_dir = "bench_results";
  nela::util::FlagParser flags;
  flags.AddInt64("users", &users, "population size per dataset");
  flags.AddInt64("requests", &requests, "requests per campaign cell");
  flags.AddInt64("master_seed", &master_seed,
                 "seed of per-request RNG sub-streams");
  flags.AddInt64("workload_seed", &workload_seed,
                 "seed selecting which hosts issue requests");
  flags.AddDouble("delta", &delta,
                  "WPG proximity threshold of the cluster-bound family");
  flags.AddString("output_dir", &output_dir,
                  "where CSV/JSON results are written");
  int exit_code = 0;
  if (!nela::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  std::printf("=== Mechanism comparison: family x dataset x k ===\n");
  std::printf("users=%lld requests=%lld delta=%.4f master_seed=%lld "
              "workload_seed=%lld\n\n",
              static_cast<long long>(users),
              static_cast<long long>(requests), delta,
              static_cast<long long>(master_seed),
              static_cast<long long>(workload_seed));

  nela::util::CsvWriter csv;
  csv.SetHeader({"mechanism", "dataset", "k", "requests", "satisfied",
                 "request_errors", "mean_region_area", "mean_candidate_count",
                 "mean_query_cost", "mean_messages", "observer_violations",
                 "contract_violations", "declared_exposures",
                 "tightest_learned_width", "messages_on_wire"});

  std::vector<MechanismSample> samples;
  for (const bool clustered : {false, true}) {
    nela::sim::ScenarioConfig scenario_config;
    scenario_config.user_count = static_cast<uint32_t>(users);
    scenario_config.delta = delta;
    scenario_config.clustered_dataset = clustered;
    auto scenario = nela::sim::BuildScenario(scenario_config);
    if (!scenario.ok()) {
      std::fprintf(stderr, "scenario failed: %s\n",
                   scenario.status().ToString().c_str());
      return 1;
    }
    const char* dataset_name = clustered ? "clustered" : "uniform";

    for (int family_index = 0;
         family_index < nela::audit::kMechanismFamilyCount; ++family_index) {
      const auto family =
          static_cast<nela::audit::MechanismFamily>(family_index);
      for (const uint32_t k : {2u, 5u, 10u}) {
        nela::mechanisms::CampaignConfig config;
        config.family = family;
        config.k = k;
        config.requests = static_cast<uint32_t>(requests);
        config.master_seed = static_cast<uint64_t>(master_seed);
        config.workload_seed = static_cast<uint64_t>(workload_seed);
        auto campaign = nela::mechanisms::RunCampaign(
            scenario.value().dataset, scenario.value().graph, config);
        if (!campaign.ok()) {
          std::fprintf(stderr, "campaign %s/%s/k=%u failed: %s\n",
                       nela::audit::MechanismFamilyName(family), dataset_name,
                       k, campaign.status().ToString().c_str());
          return 1;
        }
        const nela::mechanisms::CampaignResult& r = campaign.value();
        if (r.observer_violations != 0 || r.contract_violations != 0) {
          std::fprintf(stderr,
                       "AUDIT FAILURE %s/%s/k=%u: %" PRIu64
                       " observer + %" PRIu64 " contract violations\n",
                       r.mechanism.c_str(), dataset_name, k,
                       r.observer_violations, r.contract_violations);
          return 1;
        }
        std::printf(
            "%-14s %-9s k=%-3u satisfied=%3" PRIu64 "/%-3" PRIu64
            " area=%-9.3g candidates=%-7.2f cost=%-8.1f msgs=%-7.2f "
            "declared=%-4" PRIu64 " width=%.3g\n",
            r.mechanism.c_str(), dataset_name, k, r.satisfied, r.requests,
            r.mean_region_area, r.mean_candidate_count, r.mean_query_cost,
            r.mean_messages, r.declared_exposures,
            JsonWidth(r.tightest_learned_width));
        csv.AddRow({r.mechanism, dataset_name, std::to_string(k),
                    std::to_string(r.requests), std::to_string(r.satisfied),
                    std::to_string(r.request_errors),
                    std::to_string(r.mean_region_area),
                    std::to_string(r.mean_candidate_count),
                    std::to_string(r.mean_query_cost),
                    std::to_string(r.mean_messages),
                    std::to_string(r.observer_violations),
                    std::to_string(r.contract_violations),
                    std::to_string(r.declared_exposures),
                    std::to_string(JsonWidth(r.tightest_learned_width)),
                    std::to_string(r.messages_on_wire)});
        samples.push_back(MechanismSample{r.mechanism, dataset_name, k,
                                          campaign.value()});
      }
    }
  }

  const bool csv_ok =
      nela::bench::EmitCsv(csv, output_dir, "bench_mechanisms").ok();
  const bool json_ok = WriteMechanismsJson(output_dir, samples).ok();
  return csv_ok && json_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
