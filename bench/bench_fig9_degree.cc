// Figure 9 (a, b): average communication cost and cloaked-region size of
// the three k-clustering algorithms as the WPG density varies (max peers
// M in {4, 8, 16, 32, 64}).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sim/clustering_experiment.h"
#include "sim/scenario.h"
#include "util/csv.h"
#include "util/flags.h"

namespace {

using nela::sim::ClusteringAlgorithm;

int Run(int argc, char** argv) {
  int64_t users = 104770;
  int64_t k = 10;
  int64_t requests = 2000;
  double delta = 2e-3;
  std::string output_dir = "bench_results";
  nela::util::FlagParser flags;
  flags.AddInt64("users", &users, "population size");
  flags.AddInt64("k", &k, "anonymity requirement");
  flags.AddInt64("requests", &requests, "cloaking requests S");
  flags.AddDouble("delta", &delta, "proximity threshold");
  flags.AddString("output_dir", &output_dir, "where CSVs are written");
  int exit_code = 0;
  if (!nela::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  std::printf("=== Fig. 9: performance under various average degrees ===\n");
  std::printf("users=%lld delta=%g k=%lld S=%lld\n\n",
              static_cast<long long>(users), delta,
              static_cast<long long>(k), static_cast<long long>(requests));

  nela::util::CsvWriter csv;
  csv.SetHeader({"M", "avg_degree", "algorithm", "avg_comm_cost",
                 "avg_cloaked_area"});
  nela::bench::PrintRow({"M", "avg degree", "algorithm", "comm cost",
                         "cloaked size (1e-4)"});
  nela::bench::PrintRule(5);

  const ClusteringAlgorithm algorithms[] = {
      ClusteringAlgorithm::kDistributedTConn, ClusteringAlgorithm::kKnn,
      ClusteringAlgorithm::kCentralizedTConn};
  for (uint32_t m : {4u, 8u, 16u, 32u, 64u}) {
    nela::sim::ScenarioConfig scenario_config;
    scenario_config.user_count = static_cast<uint32_t>(users);
    scenario_config.delta = delta;
    scenario_config.max_peers = m;
    auto scenario = nela::sim::BuildScenario(scenario_config);
    if (!scenario.ok()) {
      std::fprintf(stderr, "scenario failed: %s\n",
                   scenario.status().ToString().c_str());
      return 1;
    }
    const double degree = scenario.value().graph.AverageDegree();
    for (ClusteringAlgorithm algorithm : algorithms) {
      nela::sim::ClusteringExperimentConfig config;
      config.k = static_cast<uint32_t>(k);
      config.requests = static_cast<uint32_t>(requests);
      auto result =
          nela::sim::RunClusteringExperiment(scenario.value(), algorithm,
                                             config);
      if (!result.ok()) {
        std::fprintf(stderr, "experiment failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      const char* name = nela::sim::ClusteringAlgorithmName(algorithm);
      nela::bench::PrintRow(
          {std::to_string(m), nela::util::CsvWriter::Cell(degree), name,
           nela::util::CsvWriter::Cell(result.value().avg_comm_cost),
           nela::util::CsvWriter::Cell(result.value().avg_cloaked_area *
                                       1e4)});
      csv.AddRow({std::to_string(m), nela::util::CsvWriter::Cell(degree),
                  name,
                  nela::util::CsvWriter::Cell(result.value().avg_comm_cost),
                  nela::util::CsvWriter::Cell(
                      result.value().avg_cloaked_area)});
    }
  }
  return nela::bench::EmitCsv(csv, output_dir, "fig9_degree").ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
