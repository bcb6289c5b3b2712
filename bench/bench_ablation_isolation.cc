// Ablation: the value of Algorithm 2's border-vertex isolation check.
// Runs the same workload with the check enabled and disabled and compares
// the later requesters' cluster quality (cloaked size), the per-request
// communication, and the number of invalid (sub-k) clusters -- the check's
// whole point is protecting users who request *after* their neighborhood
// was carved up.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/distributed_tconn.h"
#include "geo/rect.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

struct RunResult {
  double avg_area_late = 0.0;  // cloaked size of the last third of requests
  double avg_comm = 0.0;
  uint32_t invalid = 0;
};

RunResult RunOnce(const nela::sim::Scenario& scenario, uint32_t k,
                  const std::vector<nela::data::UserId>& hosts,
                  bool isolation_enabled) {
  nela::cluster::Registry registry(scenario.dataset.size());
  nela::cluster::DistributedTConnClusterer clusterer(scenario.graph, k,
                                                     &registry);
  clusterer.set_isolation_check_enabled(isolation_enabled);
  RunResult result;
  nela::util::OnlineStats late_area;
  nela::util::OnlineStats comm;
  const size_t late_start = hosts.size() * 2 / 3;
  for (size_t i = 0; i < hosts.size(); ++i) {
    auto outcome = clusterer.ClusterFor(hosts[i]);
    NELA_CHECK(outcome.ok());
    comm.Add(static_cast<double>(outcome.value().involved_users));
    const auto& info = registry.info(outcome.value().cluster_id);
    if (!info.valid) ++result.invalid;
    if (i >= late_start) {
      nela::geo::Rect box;
      for (auto member : info.members) {
        box.ExpandToInclude(scenario.dataset.point(member));
      }
      late_area.Add(box.Area());
    }
  }
  result.avg_area_late = late_area.Mean();
  result.avg_comm = comm.Mean();
  return result;
}

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

  std::printf("=== Ablation: Algorithm 2 isolation check on/off ===\n");
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
  csv.SetHeader({"isolation_check", "avg_late_area", "avg_comm_cost",
                 "invalid_requests"});
  nela::bench::PrintRow({"isolation check", "late-request size (1e-4)",
                         "comm cost", "invalid"});
  nela::bench::PrintRule(4);
  for (bool enabled : {true, false}) {
    const RunResult result = RunOnce(
        scenario.value(), static_cast<uint32_t>(k), hosts, enabled);
    nela::bench::PrintRow(
        {enabled ? "on" : "off",
         nela::util::CsvWriter::Cell(result.avg_area_late * 1e4),
         nela::util::CsvWriter::Cell(result.avg_comm),
         std::to_string(result.invalid)});
    csv.AddRow({enabled ? "on" : "off",
                nela::util::CsvWriter::Cell(result.avg_area_late),
                nela::util::CsvWriter::Cell(result.avg_comm),
                std::to_string(result.invalid)});
  }
  return nela::bench::EmitCsv(csv, output_dir, "ablation_isolation").ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
