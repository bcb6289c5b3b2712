// Batch throughput bench: the service driver in closed-batch mode (one
// shard, every request admitted at t=0) swept over worker-thread counts
// and batch sizes S. Per cell it reports requests/sec, wall-clock latency
// percentiles, and the speculations the commit turnstile discarded as stale
// -- plus the registry digest and reciprocity audit, which must agree
// across thread counts for the same S.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/policy_factory.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/csv.h"
#include "util/flags.h"

namespace {

int Run(int argc, char** argv) {
  int64_t users = 20000;
  int64_t k = 5;
  int64_t master_seed = 99;
  int64_t workload_seed = 17;
  std::string output_dir = "bench_results";
  nela::util::FlagParser flags;
  flags.AddInt64("users", &users, "population size");
  flags.AddInt64("k", &k, "anonymity requirement");
  flags.AddInt64("master_seed", &master_seed,
                 "seed of per-request RNG sub-streams");
  flags.AddInt64("workload_seed", &workload_seed,
                 "seed selecting which hosts issue requests");
  flags.AddString("output_dir", &output_dir, "where CSVs are written");
  int exit_code = 0;
  if (!nela::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  std::printf("=== Closed batch: throughput and speculation aborts, "
              "threads x S ===\n");
  std::printf("users=%lld k=%lld master_seed=%lld workload_seed=%lld\n\n",
              static_cast<long long>(users), static_cast<long long>(k),
              static_cast<long long>(master_seed),
              static_cast<long long>(workload_seed));

  std::optional<nela::sim::Scenario> scenario =
      nela::bench::BuildScenarioOrExit(static_cast<uint32_t>(users),
                                       &exit_code);
  if (!scenario.has_value()) return exit_code;

  const nela::core::BoundingParams params;
  nela::util::CsvWriter csv;
  csv.SetHeader({"threads", "S", "requests_per_sec", "wall_seconds",
                 "p50_latency_ms", "p99_latency_ms", "speculation_aborts",
                 "clusters_formed", "registry_digest", "reciprocity_ok"});
  nela::bench::PrintRow({"threads", "S", "req/sec", "p50 ms", "p99 ms",
                         "spec aborts", "digest"});
  nela::bench::PrintRule(7);
  for (int64_t requests : {256ll, 1024ll}) {
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      nela::sim::ShardedServiceConfig config;
      config.service.k = static_cast<uint32_t>(k);
      config.service.requests = static_cast<uint32_t>(requests);
      config.service.threads = threads;
      config.service.master_seed = static_cast<uint64_t>(master_seed);
      config.service.workload_seed = static_cast<uint64_t>(workload_seed);
      nela::sim::ShardedServiceDriver driver(
          scenario->dataset, scenario->graph,
          nela::core::MakeSecurePolicyFactory(params), config);
      auto result = driver.Run();
      if (!result.ok()) {
        std::fprintf(stderr, "batch failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      const nela::sim::ServiceResult& r = result.value().service;
      if (!r.reciprocity_ok) {
        std::fprintf(stderr,
                     "reciprocity violated at threads=%u S=%lld -- a user "
                     "landed in more than one cluster\n",
                     threads, static_cast<long long>(requests));
        return 1;
      }
      char digest[32];
      std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                    r.registry_digest);
      nela::bench::PrintRow(
          {std::to_string(threads), std::to_string(requests),
           nela::util::CsvWriter::Cell(r.requests_per_sec),
           nela::util::CsvWriter::Cell(r.p50_latency_ms),
           nela::util::CsvWriter::Cell(r.p99_latency_ms),
           std::to_string(r.speculation_aborts), digest});
      csv.AddRow({std::to_string(threads), std::to_string(requests),
                  nela::util::CsvWriter::Cell(r.requests_per_sec),
                  nela::util::CsvWriter::Cell(r.wall_seconds),
                  nela::util::CsvWriter::Cell(r.p50_latency_ms),
                  nela::util::CsvWriter::Cell(r.p99_latency_ms),
                  std::to_string(r.speculation_aborts),
                  std::to_string(r.clusters_formed), digest,
                  r.reciprocity_ok ? "1" : "0"});
    }
  }
  return nela::bench::EmitCsv(csv, output_dir, "batch_throughput").ok() ? 0
                                                                        : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
