// Ablation: kNN baseline expansion strategies. The paper's narrative
// ("further span the WPG ... might be far away") implies hop-layered
// expansion; a Dijkstra over accumulated path weight uses the same
// information but picks spatially tighter members. This bench quantifies
// the difference in cloaked size and communication under depletion.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/knn_clustering.h"
#include "geo/rect.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

struct RunResult {
  double avg_area = 0.0;
  double avg_comm = 0.0;
  uint32_t invalid = 0;
};

RunResult RunOnce(const nela::sim::Scenario& scenario, uint32_t k,
                  const std::vector<nela::data::UserId>& hosts,
                  nela::cluster::KnnExpansion expansion) {
  nela::cluster::Registry registry(scenario.dataset.size(),
                                   /*allow_overlap=*/true);
  nela::cluster::KnnClusterer clusterer(
      scenario.graph, k, &registry, nullptr,
      nela::cluster::KnnTieBreak::kVertexId,
      nela::cluster::KnnReuse::kAlwaysFresh, expansion);
  RunResult result;
  nela::util::OnlineStats area;
  nela::util::OnlineStats comm;
  for (nela::data::UserId host : hosts) {
    auto outcome = clusterer.ClusterFor(host);
    NELA_CHECK(outcome.ok());
    comm.Add(static_cast<double>(outcome.value().involved_users));
    const auto& info = registry.info(outcome.value().cluster_id);
    if (!info.valid) ++result.invalid;
    nela::geo::Rect box;
    for (auto member : info.members) {
      box.ExpandToInclude(scenario.dataset.point(member));
    }
    area.Add(box.Area());
  }
  result.avg_area = area.Mean();
  result.avg_comm = comm.Mean();
  return result;
}

int Run(int argc, char** argv) {
  int64_t users = 104770;
  int64_t k = 10;
  int64_t requests = 8000;  // deep depletion is where the two diverge
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

  std::printf("=== Ablation: kNN expansion strategy under depletion ===\n");
  nela::sim::ScenarioConfig scenario_config;
  scenario_config.user_count = static_cast<uint32_t>(users);
  auto scenario = nela::sim::BuildScenario(scenario_config);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  nela::util::Rng workload_rng(7);
  const auto hosts = nela::sim::SampleWorkload(
      scenario.value().dataset.size(), static_cast<uint32_t>(requests),
      workload_rng);

  nela::util::CsvWriter csv;
  csv.SetHeader({"expansion", "avg_area", "avg_comm_cost", "invalid"});
  nela::bench::PrintRow(
      {"expansion", "cloaked size (1e-4)", "comm cost", "invalid"});
  nela::bench::PrintRule(4);
  const struct {
    nela::cluster::KnnExpansion expansion;
    const char* name;
  } variants[] = {
      {nela::cluster::KnnExpansion::kHopLayered, "hop-layered"},
      {nela::cluster::KnnExpansion::kShortestPath, "shortest-path"},
  };
  for (const auto& variant : variants) {
    const RunResult result =
        RunOnce(scenario.value(), static_cast<uint32_t>(k), hosts,
                variant.expansion);
    nela::bench::PrintRow(
        {variant.name, nela::util::CsvWriter::Cell(result.avg_area * 1e4),
         nela::util::CsvWriter::Cell(result.avg_comm),
         std::to_string(result.invalid)});
    csv.AddRow({variant.name, nela::util::CsvWriter::Cell(result.avg_area),
                nela::util::CsvWriter::Cell(result.avg_comm),
                std::to_string(result.invalid)});
  }
  return nela::bench::EmitCsv(csv, output_dir, "ablation_knn_expansion").ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
