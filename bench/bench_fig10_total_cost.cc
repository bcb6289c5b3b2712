// Figure 10: overall communication cost (clustering messages + service
// request payload) as the POI-object / clustering-message size ratio
// varies. The clustering run is performed once per algorithm; the total is
// then avg_comm + avg_candidates * ratio.

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
  std::string output_dir = "bench_results";
  nela::util::FlagParser flags;
  flags.AddInt64("users", &users, "population size");
  flags.AddInt64("k", &k, "anonymity requirement");
  flags.AddInt64("requests", &requests, "cloaking requests S");
  flags.AddString("output_dir", &output_dir, "where CSVs are written");
  int exit_code = 0;
  if (!nela::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  std::printf(
      "=== Fig. 10: overall communication cost vs POI payload ratio ===\n");
  std::printf("users=%lld k=%lld S=%lld (default M)\n\n",
              static_cast<long long>(users), static_cast<long long>(k),
              static_cast<long long>(requests));

  nela::sim::ScenarioConfig scenario_config;
  scenario_config.user_count = static_cast<uint32_t>(users);
  auto scenario = nela::sim::BuildScenario(scenario_config);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }

  struct AlgorithmRun {
    ClusteringAlgorithm algorithm;
    double comm = 0.0;
    double candidates = 0.0;
  };
  std::vector<AlgorithmRun> runs = {
      {ClusteringAlgorithm::kDistributedTConn},
      {ClusteringAlgorithm::kKnn},
      {ClusteringAlgorithm::kCentralizedTConn}};
  for (AlgorithmRun& run : runs) {
    nela::sim::ClusteringExperimentConfig config;
    config.k = static_cast<uint32_t>(k);
    config.requests = static_cast<uint32_t>(requests);
    auto result = nela::sim::RunClusteringExperiment(scenario.value(),
                                                     run.algorithm, config);
    if (!result.ok()) {
      std::fprintf(stderr, "experiment failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    run.comm = result.value().avg_comm_cost;
    run.candidates = result.value().avg_candidates;
  }

  nela::util::CsvWriter csv;
  csv.SetHeader({"poi_to_message_ratio", "algorithm", "avg_total_cost"});
  nela::bench::PrintRow(
      {"POI/msg ratio", "t-Conn", "kNN", "centralized t-Conn"});
  nela::bench::PrintRule(4);
  for (double ratio : {1.0, 2.0, 5.0, 10.0, 15.0, 20.0}) {
    std::vector<std::string> row = {nela::util::CsvWriter::Cell(ratio)};
    for (const AlgorithmRun& run : runs) {
      const double total = run.comm + run.candidates * ratio;
      row.push_back(nela::util::CsvWriter::Cell(total));
      csv.AddRow({nela::util::CsvWriter::Cell(ratio),
                  nela::sim::ClusteringAlgorithmName(run.algorithm),
                  nela::util::CsvWriter::Cell(total)});
    }
    nela::bench::PrintRow(row);
  }
  return nela::bench::EmitCsv(csv, output_dir, "fig10_total_cost").ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
