// Shard-scaling bench for the spatially sharded anonymizer service.
//
// Sweeps shard count x offered load and reports, per cell: served
// throughput (admitted requests no crash aborted, per second of
// driver.Run() timed from outside the driver), the admission outcome mix,
// the simulated queue-wait percentiles (global and worst shard), and the
// committed clusters that straddle a shard boundary. A digest check against
// the K=1 run guards every cell: a shard-count-dependent digest is a bench
// error, not a data point.
//
// The sim_queue_wait_* columns are not measured: they follow from the
// admission queue model's fixed service_time_ms, whatever the real
// per-request cost. requests_per_sec is measured but cannot resolve a
// per-request change at the default scale (six runs of one configuration
// read 2,461-4,971 rps); the end-to-end benchmark (bench_e2e) measures
// throughput.
//
// Results go to stdout, <output_dir>/bench_shard_scaling.csv, and the JSON
// summary <output_dir>/BENCH_shard.json (path overridable via
// NELA_BENCH_SHARD_JSON) for the CI bench-smoke artifact; the bench exits 1
// when either cannot be written.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/policy_factory.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

struct ShardSample {
  uint32_t shards = 0;
  double load_multiplier = 0.0;  // 0 = closed batch (no queue model)
  uint64_t admitted = 0;
  uint64_t shed_queue_overflow = 0;
  uint64_t shed_deadline = 0;
  uint64_t cross_shard_clusters = 0;
  // Served requests per wall second of driver.Run().
  double requests_per_sec = 0.0;
  // Simulated queue wait (queue model, not measured).
  double sim_queue_wait_p50_ms = 0.0;
  double sim_queue_wait_p99_ms = 0.0;
  // Worst per-shard simulated p99 -- the imbalance signal the global
  // percentile hides.
  double sim_queue_wait_max_shard_p99_ms = 0.0;
};

void WriteShardJsonBody(std::FILE* f, const std::vector<ShardSample>& samples) {
  std::fprintf(f, "{\n  \"benchmark\": \"bench_shard_scaling\",\n");
  std::fprintf(f, "  \"sweep\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    const ShardSample& s = samples[i];
    std::fprintf(
        f,
        "    {\"shards\": %u, \"load_multiplier\": %.3f, "
        "\"admitted\": %" PRIu64 ", \"shed_queue_overflow\": %" PRIu64
        ", \"shed_deadline\": %" PRIu64 ", \"cross_shard_clusters\": %" PRIu64
        ", \"requests_per_sec\": %.1f, \"sim_queue_wait_p50_ms\": %.4f, "
        "\"sim_queue_wait_p99_ms\": %.4f, "
        "\"sim_queue_wait_max_shard_p99_ms\": %.4f}%s\n",
        s.shards, s.load_multiplier, s.admitted, s.shed_queue_overflow,
        s.shed_deadline, s.cross_shard_clusters, s.requests_per_sec,
        s.sim_queue_wait_p50_ms, s.sim_queue_wait_p99_ms,
        s.sim_queue_wait_max_shard_p99_ms,
        i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

nela::util::Status WriteShardBenchJson(
    const std::string& output_dir, const std::vector<ShardSample>& samples) {
  return nela::bench::WriteBenchJson(
      "NELA_BENCH_SHARD_JSON", output_dir + "/BENCH_shard.json",
      [&samples](std::FILE* f) { WriteShardJsonBody(f, samples); });
}

int Run(int argc, char** argv) {
  int64_t users = 2000;
  int64_t k = 5;
  int64_t requests = 512;
  int64_t threads = 4;
  int64_t master_seed = 99;
  int64_t workload_seed = 17;
  double delta = 0.02;
  std::string output_dir = "bench_results";
  nela::util::FlagParser flags;
  flags.AddInt64("users", &users, "population size");
  flags.AddInt64("k", &k, "anonymity requirement");
  flags.AddInt64("requests", &requests, "workload size");
  flags.AddDouble("delta", &delta,
                  "WPG proximity threshold; wide enough by default that "
                  "clusters straddle shard boundaries");
  flags.AddInt64("threads", &threads, "worker threads / queue servers");
  flags.AddInt64("master_seed", &master_seed,
                 "seed of per-request RNG sub-streams");
  flags.AddInt64("workload_seed", &workload_seed,
                 "seed selecting which hosts issue requests");
  flags.AddString("output_dir", &output_dir,
                  "where CSV/JSON results are written");
  int exit_code = 0;
  if (!nela::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  std::printf("=== Sharded service: shard count x offered load ===\n");
  std::printf("users=%lld k=%lld requests=%lld threads=%lld delta=%.4f "
              "master_seed=%lld workload_seed=%lld\n\n",
              static_cast<long long>(users), static_cast<long long>(k),
              static_cast<long long>(requests),
              static_cast<long long>(threads), delta,
              static_cast<long long>(master_seed),
              static_cast<long long>(workload_seed));

  nela::sim::ScenarioConfig scenario_config;
  scenario_config.user_count = static_cast<uint32_t>(users);
  scenario_config.delta = delta;
  scenario_config.seed = 11;
  auto scenario = nela::sim::BuildScenario(scenario_config);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  const nela::core::BoundingParams params;

  std::error_code ec;
  std::filesystem::create_directories(output_dir, ec);  // best effort

  nela::util::CsvWriter csv;
  csv.SetHeader({"shards", "load_multiplier", "admitted",
                 "shed_queue_overflow", "shed_deadline",
                 "cross_shard_clusters", "requests_per_sec",
                 "sim_queue_wait_p50_ms", "sim_queue_wait_p99_ms",
                 "sim_queue_wait_max_shard_p99_ms"});

  const double service_time_ms = 1.0;
  const double sustainable_per_ms =
      static_cast<double>(threads) / service_time_ms;

  std::vector<ShardSample> samples;
  uint64_t reference_digest = 0;
  bool have_reference = false;

  nela::bench::PrintRow({"shards", "load_x", "admitted", "shed", "xshard",
                         "req/s", "sim_p99", "sim_worst"});
  nela::bench::PrintRule(8);
  for (uint32_t shards : {1u, 4u, 16u}) {
    // multiplier 0 = closed batch; the rest exercise the queue model
    // around the sustainable rate.
    for (double multiplier : {0.0, 0.5, 1.0, 2.0}) {
      nela::sim::ShardedServiceConfig config;
      config.service.k = static_cast<uint32_t>(k);
      config.service.requests = static_cast<uint32_t>(requests);
      config.service.threads = static_cast<uint32_t>(threads);
      config.service.master_seed = static_cast<uint64_t>(master_seed);
      config.service.workload_seed = static_cast<uint64_t>(workload_seed);
      config.shards = shards;
      if (multiplier > 0.0) {
        config.service.offered_rate_per_ms =
            multiplier * sustainable_per_ms;
        config.service.service_time_ms = service_time_ms;
        config.service.queue_capacity = 32;
        config.service.deadline_ms = 8.0;
      }
      nela::sim::ShardedServiceDriver driver(
          scenario.value().dataset, scenario.value().graph,
          nela::core::MakeSecurePolicyFactory(params), config);
      const nela::util::WallTimer timer;
      auto run = driver.Run();
      const double wall_seconds = timer.ElapsedSeconds();
      if (!run.ok()) {
        std::fprintf(stderr, "sharded run failed at K=%u x%.1f: %s\n",
                     shards, multiplier, run.status().ToString().c_str());
        return 1;
      }
      const nela::sim::ShardedServiceResult& r = run.value();

      // Digest guard: closed-batch digests must be K-invariant.
      if (multiplier == 0.0) {
        if (!have_reference) {
          reference_digest = r.service.registry_digest;
          have_reference = true;
        } else if (r.service.registry_digest != reference_digest) {
          std::fprintf(stderr,
                       "digest diverged at K=%u: sharding changed what got "
                       "clustered\n",
                       shards);
          return 1;
        }
      }

      ShardSample sample;
      sample.shards = shards;
      sample.load_multiplier = multiplier;
      sample.admitted = r.service.admitted;
      sample.shed_queue_overflow = r.service.shed_queue_overflow;
      sample.shed_deadline = r.service.shed_deadline;
      sample.cross_shard_clusters = r.cross_shard_clusters;
      sample.requests_per_sec =
          static_cast<double>(r.service.admitted -
                              r.service.aborted_by_crash) /
          std::max(wall_seconds, 1e-9);
      sample.sim_queue_wait_p50_ms = r.service.p50_queue_wait_ms;
      sample.sim_queue_wait_p99_ms = r.service.p99_queue_wait_ms;
      for (const nela::sim::ShardRunStats& stats : r.shards) {
        sample.sim_queue_wait_max_shard_p99_ms =
            std::max(sample.sim_queue_wait_max_shard_p99_ms,
                     stats.p99_queue_wait_ms);
      }
      samples.push_back(sample);

      nela::bench::PrintRow(
          {std::to_string(shards), nela::util::CsvWriter::Cell(multiplier),
           std::to_string(sample.admitted),
           std::to_string(sample.shed_queue_overflow +
                          sample.shed_deadline),
           std::to_string(sample.cross_shard_clusters),
           nela::util::CsvWriter::Cell(sample.requests_per_sec),
           nela::util::CsvWriter::Cell(sample.sim_queue_wait_p99_ms),
           nela::util::CsvWriter::Cell(
               sample.sim_queue_wait_max_shard_p99_ms)});
      csv.AddRow({std::to_string(shards),
                  nela::util::CsvWriter::Cell(multiplier),
                  std::to_string(sample.admitted),
                  std::to_string(sample.shed_queue_overflow),
                  std::to_string(sample.shed_deadline),
                  std::to_string(sample.cross_shard_clusters),
                  nela::util::CsvWriter::Cell(sample.requests_per_sec),
                  nela::util::CsvWriter::Cell(sample.sim_queue_wait_p50_ms),
                  nela::util::CsvWriter::Cell(sample.sim_queue_wait_p99_ms),
                  nela::util::CsvWriter::Cell(
                      sample.sim_queue_wait_max_shard_p99_ms)});
    }
  }

  std::printf("\n");
  const bool json_ok = WriteShardBenchJson(output_dir, samples).ok();
  const bool csv_ok =
      nela::bench::EmitCsv(csv, output_dir, "bench_shard_scaling").ok();
  return json_ok && csv_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
