// Ablation (the paper's §VII future work): tightness vs privacy loss of
// the progressive bounding policies. A user that rejects X and accepts X'
// exposes its value to the interval (X, X']; finer increments mean tighter
// regions but narrower exposure intervals. This bench reports, per policy,
// the final bound overshoot and the distribution of exposure-interval
// widths over a synthetic cluster.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bounding/increment_policy.h"
#include "bounding/privacy_loss.h"
#include "bounding/protocol.h"
#include "bounding/secret.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

int Run(int argc, char** argv) {
  int64_t cluster_size = 20;
  int64_t trials = 500;
  double extent = 1.0;
  std::string output_dir = "bench_results";
  nela::util::FlagParser flags;
  flags.AddInt64("cluster_size", &cluster_size, "users per cluster");
  flags.AddInt64("trials", &trials, "number of synthetic clusters");
  flags.AddDouble("extent", &extent, "offset range of the cluster");
  flags.AddString("output_dir", &output_dir, "where CSVs are written");
  int exit_code = 0;
  if (!nela::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  std::printf("=== Ablation: bound tightness vs privacy loss ===\n");
  std::printf("cluster_size=%lld trials=%lld extent=%g\n\n",
              static_cast<long long>(cluster_size),
              static_cast<long long>(trials), extent);

  nela::util::Rng rng(99);
  nela::util::CsvWriter csv;
  csv.SetHeader({"policy", "avg_overshoot", "avg_interval", "min_interval",
                 "avg_verifications"});
  nela::bench::PrintRow({"policy", "overshoot", "avg interval",
                         "min interval", "verifications"});
  nela::bench::PrintRule(5);

  const nela::bounding::UniformDistribution model(extent);
  const nela::bounding::QuadraticCost cost(1000.0);
  for (int policy_id = 0; policy_id < 3; ++policy_id) {
    nela::util::OnlineStats overshoot;
    nela::util::OnlineStats interval;
    nela::util::OnlineStats min_interval;
    nela::util::OnlineStats verifications;
    const char* name = nullptr;
    for (int64_t t = 0; t < trials; ++t) {
      std::vector<double> values;
      double max_value = 0.0;
      for (int64_t i = 0; i < cluster_size; ++i) {
        values.push_back(rng.NextDouble(0.0, extent));
        max_value = std::max(max_value, values.back());
      }
      const auto secrets = nela::bounding::MakePrivate(values);

      nela::bounding::LinearIncrementPolicy linear(extent / 50.0);
      nela::bounding::ExponentialIncrementPolicy exponential(extent / 50.0);
      nela::bounding::SecureIncrementPolicy secure(model, cost, 1.0);
      nela::bounding::IncrementPolicy* policies[3] = {&linear, &exponential,
                                                      &secure};
      name = policies[policy_id]->name();
      const nela::bounding::BoundingRunResult run =
          nela::bounding::RunProgressiveUpperBounding(
              secrets, 0.0, *policies[policy_id]).value();
      const nela::bounding::PrivacyLossReport report =
          nela::bounding::AnalyzePrivacyLoss(run, 0.0);
      overshoot.Add(run.bound - max_value);
      interval.Add(report.mean_width);
      min_interval.Add(report.min_width);
      verifications.Add(static_cast<double>(run.verifications));
    }
    nela::bench::PrintRow({name,
                           nela::util::CsvWriter::Cell(overshoot.Mean()),
                           nela::util::CsvWriter::Cell(interval.Mean()),
                           nela::util::CsvWriter::Cell(min_interval.Mean()),
                           nela::util::CsvWriter::Cell(verifications.Mean())});
    csv.AddRow({name, nela::util::CsvWriter::Cell(overshoot.Mean()),
                nela::util::CsvWriter::Cell(interval.Mean()),
                nela::util::CsvWriter::Cell(min_interval.Mean()),
                nela::util::CsvWriter::Cell(verifications.Mean())});
  }
  std::printf(
      "\nNote: a tighter bound (small overshoot) comes with narrower\n"
      "exposure intervals (more privacy lost per user) -- the trade-off\n"
      "the paper flags as future work.\n");
  return nela::bench::EmitCsv(csv, output_dir, "ablation_privacy_loss").ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
