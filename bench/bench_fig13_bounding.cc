// Figure 13 (a-d): the four bounding algorithms under various k --
// bounding communication cost, request cost (as a ratio of the optimal
// bounding), total communication cost, and CPU time.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sim/bounding_experiment.h"
#include "sim/scenario.h"
#include "util/csv.h"
#include "util/flags.h"

namespace {

using nela::sim::BoundingAlgorithm;

int Run(int argc, char** argv) {
  int64_t users = 104770;
  int64_t requests = 2000;
  double cb = 1.0;
  double cr = 1000.0;
  std::string output_dir = "bench_results";
  nela::util::FlagParser flags;
  flags.AddInt64("users", &users, "population size");
  flags.AddInt64("requests", &requests, "cloaking requests S");
  flags.AddDouble("cb", &cb, "per-verification cost Cb");
  flags.AddDouble("cr", &cr, "POI payload ratio Cr");
  flags.AddString("output_dir", &output_dir, "where CSVs are written");
  int exit_code = 0;
  if (!nela::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  std::printf("=== Fig. 13: bounding algorithms under various k ===\n");
  std::printf("users=%lld S=%lld Cb=%g Cr=%g\n\n",
              static_cast<long long>(users),
              static_cast<long long>(requests), cb, cr);

  nela::sim::ScenarioConfig scenario_config;
  scenario_config.user_count = static_cast<uint32_t>(users);
  auto scenario = nela::sim::BuildScenario(scenario_config);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }

  nela::util::CsvWriter csv;
  csv.SetHeader({"k", "algorithm", "avg_bounding_cost", "avg_request_cost",
                 "avg_request_ratio", "avg_total_cost", "avg_cpu_ms"});
  nela::bench::PrintRow({"k", "algorithm", "bounding cost", "request ratio",
                         "total cost", "cpu (ms)"});
  nela::bench::PrintRule(6);
  for (uint32_t k : {5u, 10u, 20u, 30u, 40u, 50u}) {
    nela::sim::BoundingExperimentConfig config;
    config.k = k;
    config.requests = static_cast<uint32_t>(requests);
    config.params.cb = cb;
    config.params.cr = cr;
    config.params.density = static_cast<double>(users);
    auto result =
        nela::sim::RunBoundingExperiment(scenario.value(), config);
    if (!result.ok()) {
      std::fprintf(stderr, "experiment failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    for (int i = 0; i < nela::sim::kBoundingAlgorithmCount; ++i) {
      const auto algorithm = static_cast<BoundingAlgorithm>(i);
      const auto& row = result.value().of(algorithm);
      const char* name = nela::sim::BoundingAlgorithmName(algorithm);
      nela::bench::PrintRow(
          {std::to_string(k), name,
           nela::util::CsvWriter::Cell(row.avg_bounding_cost),
           nela::util::CsvWriter::Cell(row.avg_request_ratio),
           nela::util::CsvWriter::Cell(row.avg_total_cost),
           nela::util::CsvWriter::Cell(row.avg_cpu_ms)});
      csv.AddRow({std::to_string(k), name,
                  nela::util::CsvWriter::Cell(row.avg_bounding_cost),
                  nela::util::CsvWriter::Cell(row.avg_request_cost),
                  nela::util::CsvWriter::Cell(row.avg_request_ratio),
                  nela::util::CsvWriter::Cell(row.avg_total_cost),
                  nela::util::CsvWriter::Cell(row.avg_cpu_ms)});
    }
  }
  return nela::bench::EmitCsv(csv, output_dir, "fig13_bounding").ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
