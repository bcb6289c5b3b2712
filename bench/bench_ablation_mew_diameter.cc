// Ablation: how loose is the maximum-edge-weight (MEW) objective as a
// proxy for the true weighted cluster diameter (Corollary 4.2's
// justification)? For the clusters the centralized algorithm produces on
// the default scenario, report MEW, the exact weighted diameter, their
// ratio, and the Corollary 4.2 bound evaluated at the cluster's size and
// average degree.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/centralized_tconn.h"
#include "graph/metrics.h"
#include "sim/scenario.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/stats.h"

namespace {

int Run(int argc, char** argv) {
  int64_t users = 104770;
  int64_t k = 10;
  int64_t sample = 400;
  std::string output_dir = "bench_results";
  nela::util::FlagParser flags;
  flags.AddInt64("users", &users, "population size");
  flags.AddInt64("k", &k, "anonymity requirement");
  flags.AddInt64("sample", &sample, "number of clusters to measure");
  flags.AddString("output_dir", &output_dir, "where CSVs are written");
  int exit_code = 0;
  if (!nela::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  std::printf("=== Ablation: MEW vs true weighted diameter ===\n");
  nela::sim::ScenarioConfig scenario_config;
  scenario_config.user_count = static_cast<uint32_t>(users);
  auto scenario = nela::sim::BuildScenario(scenario_config);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  const nela::graph::Wpg& graph = scenario.value().graph;
  const nela::cluster::Partition partition =
      nela::cluster::CentralizedKClustering(graph,
                                            static_cast<uint32_t>(k));

  nela::util::OnlineStats mew_stats;
  nela::util::OnlineStats diameter_stats;
  nela::util::OnlineStats ratio_stats;
  nela::util::OnlineStats bound_gap_stats;
  nela::util::CsvWriter csv;
  csv.SetHeader({"cluster_size", "mew", "diameter", "corollary_bound"});
  int measured = 0;
  for (const auto& cluster : partition.clusters) {
    if (measured >= sample) break;
    if (cluster.size() < static_cast<size_t>(k)) continue;
    const double mew = nela::graph::MaxEdgeWeightWithin(graph, cluster);
    const double diameter =
        nela::graph::WeightedDiameter(graph, cluster);
    if (!std::isfinite(diameter) || diameter <= 0.0) continue;
    // Average degree inside the cluster, floored at 3 for the bound.
    double degree_sum = 0.0;
    for (auto v : cluster) degree_sum += graph.Degree(v);
    const uint32_t degree = std::max<uint32_t>(
        3, static_cast<uint32_t>(degree_sum / static_cast<double>(cluster.size())));
    const double bound = nela::graph::RegularGraphDiameterBound(
        static_cast<uint32_t>(cluster.size()), degree, mew);
    mew_stats.Add(mew);
    diameter_stats.Add(diameter);
    ratio_stats.Add(diameter / mew);
    bound_gap_stats.Add(bound / diameter);
    csv.AddRow({std::to_string(cluster.size()),
                nela::util::CsvWriter::Cell(mew),
                nela::util::CsvWriter::Cell(diameter),
                nela::util::CsvWriter::Cell(bound)});
    ++measured;
  }
  std::printf("clusters measured: %d (k=%lld)\n", measured,
              static_cast<long long>(k));
  std::printf("avg MEW:                 %.3f\n", mew_stats.Mean());
  std::printf("avg weighted diameter:   %.3f\n", diameter_stats.Mean());
  std::printf("avg diameter/MEW:        %.3f (min %.3f max %.3f)\n",
              ratio_stats.Mean(), ratio_stats.Min(), ratio_stats.Max());
  std::printf("avg corollary-4.2 bound / diameter: %.3f (>= 1 everywhere: %s)\n",
              bound_gap_stats.Mean(),
              bound_gap_stats.Min() >= 1.0 ? "yes" : "NO");
  return nela::bench::EmitCsv(csv, output_dir, "ablation_mew_diameter").ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
