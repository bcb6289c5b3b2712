// Recovery and admission bench for the crash-durable anonymizer service.
//
// Part 1 sweeps WAL length (via request count) with and without
// checkpointing on a single-shard service (one stream under
// <scratch>/shard-0) and measures cold recovery: wall time to rebuild the
// registry from disk (RecoverAllShards + AssembleRegistry), records
// replayed vs skipped, and digest equality with the live pre-shutdown
// registry (a failed equality is a bench error, not a data point).
//
// Part 2 sweeps offered load around the sustainable rate (threads /
// service_time) and reports the admission outcome mix: admitted fraction,
// queue-overflow and deadline sheds, and queue-wait percentiles of the
// admitted population.
//
// Results go to stdout, <output_dir>/bench_recovery.csv, and the JSON
// summary <output_dir>/BENCH_service.json (path overridable via
// NELA_BENCH_SERVICE_JSON) for the CI bench-smoke artifact.

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/policy_factory.h"
#include "durability/sharded_recovery.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

struct RecoverySample {
  uint32_t requests = 0;
  uint32_t checkpoint_interval = 0;
  uint64_t wal_records = 0;
  uint64_t checkpoints_written = 0;
  uint64_t records_replayed = 0;
  uint64_t records_skipped = 0;
  double run_seconds = 0.0;
  double recovery_seconds = 0.0;
};

struct ShedSample {
  double load_multiplier = 0.0;
  double offered_rate_per_ms = 0.0;
  uint64_t admitted = 0;
  uint64_t shed_queue_overflow = 0;
  uint64_t shed_deadline = 0;
  double shed_fraction = 0.0;
  double p50_queue_wait_ms = 0.0;
  double p99_queue_wait_ms = 0.0;
};

void WriteServiceJsonBody(std::FILE* f,
                          const std::vector<RecoverySample>& recovery,
                          const std::vector<ShedSample>& shedding) {
  std::fprintf(f, "{\n  \"benchmark\": \"bench_recovery\",\n");
  std::fprintf(f, "  \"recovery\": [\n");
  for (size_t i = 0; i < recovery.size(); ++i) {
    const RecoverySample& s = recovery[i];
    std::fprintf(
        f,
        "    {\"requests\": %u, \"checkpoint_interval\": %u, "
        "\"wal_records\": %" PRIu64 ", \"checkpoints_written\": %" PRIu64
        ", \"records_replayed\": %" PRIu64 ", \"records_skipped\": %" PRIu64
        ", \"run_seconds\": %.6f, \"recovery_seconds\": %.6f}%s\n",
        s.requests, s.checkpoint_interval, s.wal_records,
        s.checkpoints_written, s.records_replayed, s.records_skipped,
        s.run_seconds, s.recovery_seconds,
        i + 1 < recovery.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"shedding\": [\n");
  for (size_t i = 0; i < shedding.size(); ++i) {
    const ShedSample& s = shedding[i];
    std::fprintf(
        f,
        "    {\"load_multiplier\": %.3f, \"offered_rate_per_ms\": %.3f, "
        "\"admitted\": %" PRIu64 ", \"shed_queue_overflow\": %" PRIu64
        ", \"shed_deadline\": %" PRIu64 ", \"shed_fraction\": %.4f, "
        "\"p50_queue_wait_ms\": %.4f, \"p99_queue_wait_ms\": %.4f}%s\n",
        s.load_multiplier, s.offered_rate_per_ms, s.admitted,
        s.shed_queue_overflow, s.shed_deadline, s.shed_fraction,
        s.p50_queue_wait_ms, s.p99_queue_wait_ms,
        i + 1 < shedding.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

nela::util::Status WriteServiceBenchJson(
    const std::string& output_dir, const std::vector<RecoverySample>& recovery,
    const std::vector<ShedSample>& shedding) {
  return nela::bench::WriteBenchJson(
      "NELA_BENCH_SERVICE_JSON", output_dir + "/BENCH_service.json",
      [&](std::FILE* f) { WriteServiceJsonBody(f, recovery, shedding); });
}

int Run(int argc, char** argv) {
  int64_t users = 2000;
  int64_t k = 5;
  int64_t threads = 4;
  int64_t master_seed = 99;
  int64_t workload_seed = 17;
  std::string output_dir = "bench_results";
  nela::util::FlagParser flags;
  flags.AddInt64("users", &users, "population size");
  flags.AddInt64("k", &k, "anonymity requirement");
  flags.AddInt64("threads", &threads, "worker threads / queue servers");
  flags.AddInt64("master_seed", &master_seed,
                 "seed of per-request RNG sub-streams");
  flags.AddInt64("workload_seed", &workload_seed,
                 "seed selecting which hosts issue requests");
  flags.AddString("output_dir", &output_dir,
                  "where CSV/JSON results and scratch WALs are written");
  int exit_code = 0;
  if (!nela::bench::ParseFlagsOrExit(flags, argc, argv, &exit_code)) {
    return exit_code;
  }

  std::printf("=== Crash-durable service: recovery cost and load "
              "shedding ===\n");
  std::printf("users=%lld k=%lld threads=%lld master_seed=%lld "
              "workload_seed=%lld\n\n",
              static_cast<long long>(users), static_cast<long long>(k),
              static_cast<long long>(threads),
              static_cast<long long>(master_seed),
              static_cast<long long>(workload_seed));

  std::optional<nela::sim::Scenario> scenario =
      nela::bench::BuildScenarioOrExit(static_cast<uint32_t>(users),
                                       &exit_code);
  if (!scenario.has_value()) return exit_code;
  const nela::core::BoundingParams params;

  std::error_code ec;
  std::filesystem::create_directories(output_dir, ec);  // best effort

  nela::util::CsvWriter csv;
  csv.SetHeader({"section", "requests", "checkpoint_interval",
                 "wal_records", "checkpoints_written", "records_replayed",
                 "records_skipped", "run_seconds", "recovery_seconds",
                 "load_multiplier", "admitted", "shed_queue_overflow",
                 "shed_deadline", "p50_queue_wait_ms", "p99_queue_wait_ms"});

  // --- Part 1: recovery time vs WAL length -------------------------------
  std::vector<RecoverySample> recovery_samples;
  std::printf("--- recovery: replay cost vs WAL length ---\n");
  nela::bench::PrintRow({"requests", "ckpt_ival", "wal_records",
                         "replayed", "skipped", "recovery_s"});
  nela::bench::PrintRule(6);
  for (uint32_t requests : {64u, 256u, 512u}) {
    for (uint32_t interval : {0u, 32u}) {
      const std::string scratch = output_dir + "/recovery_scratch";
      std::filesystem::remove_all(scratch, ec);
      std::filesystem::create_directories(scratch, ec);

      nela::sim::ShardedServiceConfig config;
      config.service.k = static_cast<uint32_t>(k);
      config.service.requests = requests;
      config.service.threads = static_cast<uint32_t>(threads);
      config.service.master_seed = static_cast<uint64_t>(master_seed);
      config.service.workload_seed = static_cast<uint64_t>(workload_seed);
      config.service.checkpoint_interval = interval;
      config.durability_dir = scratch;
      nela::sim::ShardedServiceDriver driver(
          scenario->dataset, scenario->graph,
          nela::core::MakeSecurePolicyFactory(params), config);
      const nela::util::WallTimer run_timer;
      auto result = driver.Run();
      if (!result.ok()) {
        std::fprintf(stderr, "service run failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      const double run_seconds = run_timer.ElapsedSeconds();
      const nela::sim::ServiceResult& live = result.value().service;

      const nela::util::WallTimer recovery_timer;
      auto recovered = nela::durability::RecoverAllShards(
          scratch, config.shards, static_cast<uint32_t>(users));
      if (!recovered.ok()) {
        std::fprintf(stderr, "recovery failed: %s\n",
                     recovered.status().ToString().c_str());
        return 1;
      }
      auto registry = nela::durability::AssembleRegistry(recovered.value());
      const double recovery_seconds = recovery_timer.ElapsedSeconds();
      if (!registry.ok()) {
        std::fprintf(stderr, "registry assembly failed: %s\n",
                     registry.status().ToString().c_str());
        return 1;
      }
      if (registry.value()->Digest() != live.registry_digest) {
        std::fprintf(stderr,
                     "recovered digest diverged from the live registry at "
                     "requests=%u interval=%u\n",
                     requests, interval);
        return 1;
      }

      RecoverySample sample;
      sample.requests = requests;
      sample.checkpoint_interval = interval;
      const nela::durability::ShardRecoveredState& stream =
          recovered.value().shards[0];
      sample.wal_records = live.wal_records;
      sample.checkpoints_written = live.checkpoints_written;
      sample.records_replayed = stream.records_replayed;
      sample.records_skipped = stream.records_skipped;
      sample.run_seconds = run_seconds;
      sample.recovery_seconds = recovery_seconds;
      recovery_samples.push_back(sample);

      nela::bench::PrintRow(
          {std::to_string(requests), std::to_string(interval),
           std::to_string(sample.wal_records),
           std::to_string(sample.records_replayed),
           std::to_string(sample.records_skipped),
           nela::util::CsvWriter::Cell(recovery_seconds)});
      csv.AddRow({"recovery", std::to_string(requests),
                  std::to_string(interval),
                  std::to_string(sample.wal_records),
                  std::to_string(sample.checkpoints_written),
                  std::to_string(sample.records_replayed),
                  std::to_string(sample.records_skipped),
                  nela::util::CsvWriter::Cell(run_seconds),
                  nela::util::CsvWriter::Cell(recovery_seconds), "", "", "",
                  "", "", ""});
      std::filesystem::remove_all(scratch, ec);
    }
  }

  // --- Part 2: shed rate vs offered load ---------------------------------
  std::vector<ShedSample> shed_samples;
  const double service_time_ms = 1.0;
  const double sustainable_per_ms =
      static_cast<double>(threads) / service_time_ms;
  std::printf("\n--- admission: shed mix vs offered load (sustainable "
              "%.1f/ms) ---\n",
              sustainable_per_ms);
  nela::bench::PrintRow({"load_x", "admitted", "overflow", "deadline",
                         "shed_frac", "p99_wait_ms"});
  nela::bench::PrintRule(6);
  for (double multiplier : {0.5, 1.0, 2.0, 4.0}) {
    nela::sim::ShardedServiceConfig sharded;
    nela::sim::ServiceConfig& config = sharded.service;
    config.k = static_cast<uint32_t>(k);
    config.requests = 512;
    config.threads = static_cast<uint32_t>(threads);
    config.master_seed = static_cast<uint64_t>(master_seed);
    config.workload_seed = static_cast<uint64_t>(workload_seed);
    config.offered_rate_per_ms = multiplier * sustainable_per_ms;
    config.service_time_ms = service_time_ms;
    config.queue_capacity = 32;
    config.deadline_ms = 8.0;
    nela::sim::ShardedServiceDriver driver(
        scenario->dataset, scenario->graph,
        nela::core::MakeSecurePolicyFactory(params), sharded);
    auto result = driver.Run();
    if (!result.ok()) {
      std::fprintf(stderr, "service run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const nela::sim::ServiceResult& r = result.value().service;

    ShedSample sample;
    sample.load_multiplier = multiplier;
    sample.offered_rate_per_ms = config.offered_rate_per_ms;
    sample.admitted = r.admitted;
    sample.shed_queue_overflow = r.shed_queue_overflow;
    sample.shed_deadline = r.shed_deadline;
    sample.shed_fraction =
        static_cast<double>(r.shed_queue_overflow + r.shed_deadline) /
        static_cast<double>(config.requests);
    sample.p50_queue_wait_ms = r.p50_queue_wait_ms;
    sample.p99_queue_wait_ms = r.p99_queue_wait_ms;
    shed_samples.push_back(sample);

    nela::bench::PrintRow(
        {nela::util::CsvWriter::Cell(multiplier),
         std::to_string(r.admitted), std::to_string(r.shed_queue_overflow),
         std::to_string(r.shed_deadline),
         nela::util::CsvWriter::Cell(sample.shed_fraction),
         nela::util::CsvWriter::Cell(r.p99_queue_wait_ms)});
    csv.AddRow({"shedding", std::to_string(config.requests), "", "", "", "",
                "", "", "", nela::util::CsvWriter::Cell(multiplier),
                std::to_string(r.admitted),
                std::to_string(r.shed_queue_overflow),
                std::to_string(r.shed_deadline),
                nela::util::CsvWriter::Cell(r.p50_queue_wait_ms),
                nela::util::CsvWriter::Cell(r.p99_queue_wait_ms)});
  }

  std::printf("\n");
  const bool json_ok =
      WriteServiceBenchJson(output_dir, recovery_samples, shed_samples).ok();
  const bool csv_ok =
      nela::bench::EmitCsv(csv, output_dir, "bench_recovery").ok();
  return json_ok && csv_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
