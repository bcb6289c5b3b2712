// Ablation: the exact N-bounding dynamic program (Equation 3) vs the
// closed-form approximation (Equation 5). Reports, per N, the two optimal
// increments and the DP's expected total cost, plus the wall time of each
// solver -- quantifying what the paper's "CPU-intensive" remark trades
// against.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "bounding/cost_model.h"
#include "bounding/distribution.h"
#include "bounding/nbound.h"
#include "bounding/unary.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

int Run(int argc, char** argv) {
  double upper = 1.0;
  double cr = 1000.0;
  double cb = 1.0;
  int64_t max_n = 32;
  std::string output_dir = "bench_results";
  nela::util::FlagParser flags;
  flags.AddDouble("upper", &upper, "uniform support U");
  flags.AddDouble("cr", &cr, "quadratic cost coefficient");
  flags.AddDouble("cb", &cb, "verification cost Cb");
  flags.AddInt64("max_n", &max_n, "largest N to tabulate");
  flags.AddString("output_dir", &output_dir, "where CSVs are written");
  int exit_code = 0;
  if (!nela::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  std::printf("=== Ablation: exact DP (Eq. 3) vs closed form (Eq. 5) ===\n");
  std::printf("Uniform(0,%g), R(x) = %g x^2, Cb = %g\n\n", upper, cr, cb);

  const nela::bounding::UniformDistribution distribution(upper);
  const nela::bounding::QuadraticCost cost(cr);

  nela::util::WallTimer unary_timer;
  const nela::bounding::UnarySolution unary =
      nela::bounding::SolveUnary(distribution, cost, cb);
  const double unary_ms = unary_timer.ElapsedMillis();

  nela::util::WallTimer dp_timer;
  const nela::bounding::ExactNBoundTable table(
      distribution, cost, cb, static_cast<uint32_t>(max_n));
  const double dp_ms = dp_timer.ElapsedMillis();

  nela::util::CsvWriter csv;
  csv.SetHeader({"n", "eq5_increment", "dp_increment", "dp_expected_cost"});
  nela::bench::PrintRow({"N", "Eq.5 x", "DP x", "DP C*(N)", "x ratio"});
  nela::bench::PrintRule(5);
  nela::util::WallTimer eq5_timer;
  for (uint32_t n = 1; n <= static_cast<uint32_t>(max_n); ++n) {
    const double approx = nela::bounding::SolveNBoundIncrement(
        distribution, cost, cb, n, unary);
    const double exact = table.increment(n);
    nela::bench::PrintRow({std::to_string(n),
                           nela::util::CsvWriter::Cell(approx),
                           nela::util::CsvWriter::Cell(exact),
                           nela::util::CsvWriter::Cell(table.expected_cost(n)),
                           nela::util::CsvWriter::Cell(approx / exact)});
    csv.AddRow({std::to_string(n), nela::util::CsvWriter::Cell(approx),
                nela::util::CsvWriter::Cell(exact),
                nela::util::CsvWriter::Cell(table.expected_cost(n))});
  }
  const double eq5_ms = eq5_timer.ElapsedMillis();
  std::printf("\nCPU: unary solve %.3f ms; Eq.5 for N=1..%lld %.3f ms; "
              "exact DP table %.3f ms (%.0fx the closed form)\n",
              unary_ms, static_cast<long long>(max_n), eq5_ms, dp_ms,
              eq5_ms > 0 ? dp_ms / eq5_ms : 0.0);
  return nela::bench::EmitCsv(csv, output_dir, "ablation_nbound_dp").ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
