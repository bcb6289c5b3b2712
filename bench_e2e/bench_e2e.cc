// bench_e2e: the end-to-end benchmark of the cloaking service.
//
// One process runs one workload through sim::ShardedServiceDriver, the
// service's entry point, and prints every end-to-end metric by name and
// unit. The load is a closed loop: T workers each take the next request as
// soon as their previous one finishes, with no think time; the driver's
// simulated admission queue is off.
//
//   bench_e2e --workload=paper_default --seed=1 --seconds=12
//   bench_e2e --workload=paper_default --seed=1 --traced --trace_out=t.json
//
// Timed mode sets up the scenario several times (setup_s is the median),
// warms up on a fresh driver with a tenth of the requests, then runs whole
// workload passes on fresh drivers until --seconds of driver wall time have
// been measured. Each timing metric is the median over passes.
//
// Traced mode attributes the time to the src/ modules by timing calls into
// their public functions from outside: a reference pipeline built from the
// five core::Stage classes (each wrapped in a timing decorator), the
// unwrapped CloakingEngine, and driver runs at one and four threads, at one
// and sixteen shards and with durability on and off, plus recovery. Spans
// are kept in memory and written once as Chrome trace-event JSON (open it in
// https://ui.perfetto.dev).
//
// The last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (timed) or the per-layer metrics (traced).
// The exit code is non-zero when any correctness check fails.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/distributed_tconn.h"
#include "cluster/registry.h"
#include "core/anonymity_audit.h"
#include "core/cloaking_engine.h"
#include "core/pipeline.h"
#include "core/policy_factory.h"
#include "core/request_context.h"
#include "core/stages.h"
#include "durability/sharded_recovery.h"
#include "graph/wpg_builder.h"
#include "lbs/poi_database.h"
#include "lbs/server.h"
#include "net/network.h"
#include "sim/scenario.h"
#include "sim/sharded_service_driver.h"
#include "sim/workload.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using nela::util::WallTimer;

// Fixed by the benchmark definition; only the workload seed varies.
constexpr uint32_t kK = 10;
constexpr uint64_t kMasterSeed = 99;
// Durable runs cut a checkpoint every this many commits. At 32, one request
// in 32 paid a checkpoint pause, so sharded_durable's p99 measured those
// pauses alone and moved by 32% between two sets of runs; at 128 the pauses
// sit above p99 and show in throughput and CPU time instead.
constexpr uint32_t kCheckpointInterval = 128;
// Cr of Table I: one POI costs this many clustering messages to ship.
constexpr double kPoiPayloadRatio = 1000.0;
// The traced run compares each workload's driver at one thread with four,
// and at one shard with sixteen.
constexpr uint32_t kConcurrentThreads = 4;
constexpr uint32_t kAltShards = 16;
constexpr int kSnapshotSamples = 32;

struct Workload {
  const char* name;
  uint32_t users;
  uint32_t requests;  // S <= users, as SampleWorkload requires
  uint32_t threads;
  uint32_t shards;
  bool durable;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// Only paper_default runs concurrent workers in timed mode. On the 4-core
// reference host four threads made a reuse_storm pass slower (1.63 s against
// 1.28 s at one thread) and a large_population pass no faster, and made
// sharded_durable faster but far noisier: 430-521 req/s over five identical
// runs, against 332-350 at one thread (both checkpointing every 32 commits).
// The traced run still compares one thread with four on every workload.
constexpr Workload kWorkloads[] = {
    {"paper_default", 104770, 8000, 4, 1, false},
    {"reuse_storm", 10000, 10000, 1, 1, false},
    {"sharded_durable", 104770, 8000, 1, 16, true},
    {"large_population", 300000, 1000, 1, 1, false},
};

// Timed mode: setup_s is the median of this many set-ups.
constexpr uint32_t kSetupReps = 5;

// ---------------------------------------------------------------------------
// Small measurement helpers.

// num / den, and 0 when there is nothing to divide by.
double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint32_t AvailableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// The host block every result carries: where and how it was measured.
std::string HostStampJson() {
  return std::string("{\"cores\": ") + std::to_string(AvailableCores()) +
         ", \"compiler\": \"" + JsonEscape(NELA_BENCH_COMPILER) +
         "\", \"build_type\": \"" + JsonEscape(NELA_BENCH_BUILD_TYPE) +
         "\", \"cxx_flags\": \"" + JsonEscape(NELA_BENCH_CXX_FLAGS) +
         "\", \"commit\": \"" + JsonEscape(NELA_BENCH_COMMIT) + "\"}";
}

// Named metrics in print order; the JSON result line is built from them.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Collects failed correctness checks; any failure makes the exit code 1.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
      failed_ = true;
    }
  }
  bool ok() const { return !failed_; }

 private:
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// Setup: the population, its WPG and the LBS index.

struct Setup {
  std::unique_ptr<nela::sim::Scenario> scenario;
  std::unique_ptr<nela::lbs::PoiDatabase> pois;
  double scenario_s = 0.0;
  double index_s = 0.0;
};

nela::util::Result<Setup> BuildSetup(uint32_t users) {
  Setup setup;
  nela::sim::ScenarioConfig config;
  config.user_count = users;
  const WallTimer scenario_timer;
  auto scenario = nela::sim::BuildScenario(config);
  setup.scenario_s = scenario_timer.ElapsedSeconds();
  if (!scenario.ok()) return scenario.status();
  setup.scenario =
      std::make_unique<nela::sim::Scenario>(std::move(scenario).value());
  const WallTimer index_timer;
  setup.pois =
      std::make_unique<nela::lbs::PoiDatabase>(setup.scenario->dataset);
  setup.index_s = index_timer.ElapsedSeconds();
  return setup;
}

nela::core::PolicyFactory MakePolicy(uint32_t users) {
  nela::core::BoundingParams params;
  params.density = static_cast<double>(users);
  return nela::core::MakeSecurePolicyFactory(params);
}

// ---------------------------------------------------------------------------
// Driver runs, timed from outside.

struct DriverRun {
  nela::sim::ShardedServiceResult result;
  double wall_s = 0.0;  // Run() wall time
  double cpu_s = 0.0;   // process user+sys time over Run()
  uint64_t disk_bytes = 0;
  std::string durability_dir;
  double recover_s = 0.0;  // RecoverAllShards + AssembleRegistry
};

nela::util::Result<DriverRun> RunDriver(const Setup& setup,
                                        const nela::core::PolicyFactory& policy,
                                        uint64_t seed, uint32_t requests,
                                        uint32_t threads, uint32_t shards,
                                        const std::string& durability_dir) {
  nela::sim::ShardedServiceConfig config;
  config.service.k = kK;
  config.service.requests = requests;
  config.service.threads = threads;
  config.service.master_seed = kMasterSeed;
  config.service.workload_seed = seed;
  config.shards = shards;
  if (!durability_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(durability_dir, ec);
    config.durability_dir = durability_dir;
    config.service.checkpoint_interval = kCheckpointInterval;
  }
  nela::sim::ShardedServiceDriver driver(setup.scenario->dataset,
                                         setup.scenario->graph, policy,
                                         config);
  DriverRun run;
  const double cpu_before = ProcessCpuSeconds();
  const WallTimer timer;
  auto result = driver.Run();
  run.wall_s = timer.ElapsedSeconds();
  run.cpu_s = ProcessCpuSeconds() - cpu_before;
  if (!result.ok()) return result.status();
  run.result = std::move(result).value();
  if (!durability_dir.empty()) {
    run.disk_bytes = DirectoryBytes(durability_dir);
    run.durability_dir = durability_dir;
  }
  return run;
}

// Service-level checks every driver run must pass.
void CheckDriverRun(const DriverRun& run, const std::string& label,
                    Checks& checks) {
  const nela::sim::ServiceResult& service = run.result.service;
  checks.Expect(!service.crashed, label + ": run reported a crash");
  checks.Expect(service.reciprocity_ok, label + ": reciprocity violated");
  uint64_t delivered_once = 0;
  for (const nela::sim::ServiceRequestRecord& record : service.records) {
    if (record.admitted &&
        record.outcome.degradation.finalize_count == 1) {
      ++delivered_once;
    }
  }
  checks.Expect(delivered_once == service.records.size(),
                label + ": " +
                    std::to_string(service.records.size() - delivered_once) +
                    " requests not delivered exactly once");
}

// Recovers the durable streams of `run`, reassembles the registry and checks
// it against the run's digest and the anonymity audit. Returns the wall time
// of RecoverAllShards + AssembleRegistry.
double RecoverAndCheck(const DriverRun& run, const Setup& setup,
                       uint32_t shards, uint32_t threads, Checks& checks) {
  nela::util::ThreadPool pool(threads);
  const WallTimer timer;
  auto recovered = nela::durability::RecoverAllShards(
      run.durability_dir, shards, setup.scenario->dataset.size(), &pool);
  if (!recovered.ok()) {
    checks.Expect(false, "recovery: " + recovered.status().ToString());
    return timer.ElapsedSeconds();
  }
  auto registry = nela::durability::AssembleRegistry(recovered.value());
  const double recover_s = timer.ElapsedSeconds();
  if (!registry.ok()) {
    checks.Expect(false, "assemble: " + registry.status().ToString());
    return recover_s;
  }
  checks.Expect(
      registry.value()->Digest() == run.result.service.registry_digest,
      "recovered registry digest differs from the run's");
  const nela::core::AuditReport audit = nela::core::AuditAnonymity(
      *registry.value(), setup.scenario->dataset, kK);
  checks.Expect(audit.ok(), "anonymity audit of the recovered registry: " +
                                std::to_string(audit.violations.size()) +
                                " violations");
  return recover_s;
}

// ---------------------------------------------------------------------------
// Timed mode.

struct PassMetrics {
  double throughput_rps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double cpu_ms_per_req = 0.0;
  uint64_t attempted = 0;
  // Not delivered: shed at admission or aborted.
  uint64_t failed = 0;
  // Delivered, but the host's remaining component was smaller than k, so
  // the outcome reports anonymity_satisfied = false. This is the paper's
  // answer for a sparse pocket of the road network, not a service failure.
  uint64_t unsatisfied = 0;
  double comm_msgs_per_req = 0.0;
  double region_candidates_per_req = 0.0;
};

PassMetrics MeasurePass(const DriverRun& run,
                        const nela::lbs::LbsServer& server) {
  PassMetrics m;
  std::vector<double> latencies;
  uint64_t completed = 0;
  uint64_t comm = 0;
  uint64_t candidates = 0;
  uint64_t regions = 0;
  for (const nela::sim::ServiceRequestRecord& record :
       run.result.service.records) {
    ++m.attempted;
    const nela::core::CloakingOutcome& outcome = record.outcome;
    if (!record.admitted || record.aborted_by_crash) {
      ++m.failed;
      continue;
    }
    ++completed;
    latencies.push_back(record.wall_ms);
    if (!outcome.anonymity_satisfied) ++m.unsatisfied;
    comm += outcome.clustering_messages + outcome.bounding_verifications;
    if (!outcome.region.empty()) {
      candidates += server.RangeQuery(outcome.region).candidate_count;
      ++regions;
    }
  }
  m.throughput_rps = static_cast<double>(completed) / run.wall_s;
  m.latency_p50_ms = nela::util::Percentile(latencies, 0.50);
  m.latency_p99_ms = nela::util::Percentile(latencies, 0.99);
  m.cpu_ms_per_req = 1e3 * run.cpu_s / static_cast<double>(completed);
  m.comm_msgs_per_req = Ratio(comm, m.attempted);
  m.region_candidates_per_req = Ratio(candidates, regions);
  return m;
}

int RunTimed(const Workload& w, uint64_t seed, double seconds,
             uint32_t users, uint32_t requests, uint32_t threads,
             const std::string& scratch_dir) {
  Checks checks;
  std::vector<double> setup_times;
  Setup setup;
  for (uint32_t rep = 0; rep < kSetupReps; ++rep) {
    // Free the previous population before building the next; the index
    // points into the dataset, so it goes first.
    setup.pois.reset();
    setup.scenario.reset();
    auto built = BuildSetup(users);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup = std::move(built).value();
    setup_times.push_back(setup.scenario_s + setup.index_s);
    std::fprintf(stderr, "setup %u: %.3f s\n", rep, setup_times.back());
  }
  const nela::core::PolicyFactory policy = MakePolicy(users);
  const nela::lbs::LbsServer server(setup.pois.get(), kPoiPayloadRatio);
  const std::string durability_dir =
      w.durable ? scratch_dir + "/durable-" + std::to_string(getpid()) : "";

  // Pass -1 is the untimed warm-up: a fresh driver over a tenth of the
  // requests. Every pass runs on a fresh driver and registry, is checked,
  // and, when durable, is recovered and audited before its streams go.
  std::vector<PassMetrics> passes;
  double measured_s = 0.0;
  uint64_t digest = 0;
  for (int pass = -1; pass < 1 || measured_s < seconds; ++pass) {
    const bool warmup = pass < 0;
    const std::string label =
        warmup ? "warm-up" : "pass " + std::to_string(pass);
    auto run = RunDriver(setup, policy, seed,
                         warmup ? std::max(1u, requests / 10) : requests,
                         threads, w.shards, durability_dir);
    if (!run.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", label.c_str(),
                   run.status().ToString().c_str());
      return 1;
    }
    CheckDriverRun(run.value(), label, checks);
    if (w.durable) {
      RecoverAndCheck(run.value(), setup, w.shards, threads, checks);
      std::error_code ec;
      std::filesystem::remove_all(durability_dir, ec);
    }
    if (warmup) continue;
    const uint64_t pass_digest = run.value().result.service.registry_digest;
    if (passes.empty()) digest = pass_digest;
    checks.Expect(pass_digest == digest,
                  label + ": registry digest differs from pass 0");
    measured_s += run.value().wall_s;
    passes.push_back(MeasurePass(run.value(), server));
    std::fprintf(stderr, "%s: %.3f s wall, %.1f req/s\n", label.c_str(),
                 run.value().wall_s, passes.back().throughput_rps);
  }

  const auto median_of = [&passes](double PassMetrics::*field) {
    std::vector<double> values;
    for (const PassMetrics& p : passes) values.push_back(p.*field);
    return nela::util::Percentile(values, 0.5);
  };
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t unsatisfied = 0;
  for (const PassMetrics& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    unsatisfied += p.unsatisfied;
  }
  std::printf("host %s\n", HostStampJson().c_str());
  std::printf("workload %s: users=%u requests=%u threads=%u shards=%u "
              "durable=%d seed=%" PRIu64 " passes=%zu digest=%016" PRIx64
              " failed_frac=%.6f unsatisfied_frac=%.6f\n",
              w.name, users, requests, threads, w.shards, w.durable ? 1 : 0,
              seed, passes.size(), digest,
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<double>(unsatisfied) /
                  static_cast<double>(attempted));
  PrintResult(
      checks.ok(), attempted, failed,
      {{"throughput_rps", median_of(&PassMetrics::throughput_rps), "1/s"},
       {"latency_p50_ms", median_of(&PassMetrics::latency_p50_ms), "ms"},
       {"latency_p99_ms", median_of(&PassMetrics::latency_p99_ms), "ms"},
       {"cpu_ms_per_req", median_of(&PassMetrics::cpu_ms_per_req), "ms"},
       {"setup_s", nela::util::Percentile(setup_times, 0.5), "s"},
       {"peak_rss_mb", PeakRssMib(), "MiB"},
       {"comm_msgs_per_req", median_of(&PassMetrics::comm_msgs_per_req),
        "messages"},
       {"region_candidates_per_req",
        median_of(&PassMetrics::region_candidates_per_req), "POIs"}});
  return checks.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced mode: spans recorded from outside around calls into each module.

class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t ordinal;
    int64_t parent;  // index into spans(), -1 for a root
    double start_us;
    double dur_us;
    double child_us;  // time covered by direct children

    double self_us() const { return dur_us - child_us; }
  };

  void set_ordinal(uint64_t ordinal) { ordinal_ = ordinal; }

  size_t Begin(const char* name) {
    const int64_t parent =
        open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    spans_.push_back(Span{name, ordinal_, parent, clock_.ElapsedMicros(), 0.0,
                          0.0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void End(size_t id) {
    Span& span = spans_[id];
    span.dur_us = clock_.ElapsedMicros() - span.start_us;
    open_.pop_back();
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].child_us += span.dur_us;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON: complete ("X") events on one thread, nested by
  // time containment. Arguments carry ordinals only, never coordinates.
  bool Write(const std::string& path, const std::string& host_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"host\": "
                    "%s}, \"traceEvents\": [\n",
                 host_json.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"ordinal\": "
                   "%" PRIu64 "}}%s\n",
                   s.name, s.start_us, s.dur_us, s.ordinal,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  WallTimer clock_;
  uint64_t ordinal_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t id_;
};

// Timing decorator over a pipeline stage; the trace name stays the inner
// stage's, so the request's deterministic trace is unchanged.
class TimedStage final : public nela::core::Stage {
 public:
  TimedStage(nela::core::Stage* inner, const char* span, SpanLog* log)
      : inner_(inner), span_(span), log_(log) {}

  const char* name() const override { return inner_->name(); }
  nela::util::Status Run(nela::core::RequestContext& ctx,
                         nela::core::PipelineState& state,
                         nela::core::StageRecord& record) override {
    const ScopedSpan span(log_, span_);
    return inner_->Run(ctx, state, record);
  }

 private:
  nela::core::Stage* inner_;
  const char* span_;
  SpanLog* log_;
};

// Timing decorator over the phase-1 clusterer, so t-Conn's own calls are
// separated from the cluster stage around them.
class TimedClusterer final : public nela::cluster::Clusterer {
 public:
  TimedClusterer(nela::cluster::Clusterer* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  using Clusterer::ClusterFor;
  nela::util::Result<nela::cluster::ClusteringOutcome> ClusterFor(
      nela::graph::VertexId host, nela::net::RequestScope* scope) override {
    const ScopedSpan span(log_, "cluster.tconn");
    auto outcome = inner_->ClusterFor(host, scope);
    if (outcome.ok()) involved_ += outcome.value().involved_users;
    return outcome;
  }
  const char* name() const override { return inner_->name(); }
  uint32_t k() const override { return inner_->k(); }
  bool reciprocal() const override { return inner_->reciprocal(); }

  uint64_t involved() const { return involved_; }

 private:
  nela::cluster::Clusterer* inner_;
  SpanLog* log_;
  uint64_t involved_ = 0;
};

struct SpanSummary {
  uint64_t calls = 0;
  double self_s = 0.0;
  double total_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

SpanSummary Summarize(const SpanLog& log, const std::string& name) {
  SpanSummary summary;
  std::vector<double> durations;
  for (const SpanLog::Span& span : log.spans()) {
    if (name != span.name) continue;
    ++summary.calls;
    summary.self_s += 1e-6 * span.self_us();
    summary.total_s += 1e-6 * span.dur_us;
    durations.push_back(span.dur_us);
  }
  summary.p50_us = nela::util::Percentile(durations, 0.50);
  summary.p99_us = nela::util::Percentile(durations, 0.99);
  return summary;
}

struct ReferenceRun {
  uint64_t digest = 0;
  bool audit_ok = false;
  double wall_s = 0.0;
  uint64_t requests = 0;
  uint64_t region_reused = 0;
  uint64_t unsatisfied = 0;
  uint64_t verifications = 0;
  uint64_t iterations = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t involved = 0;
  double snapshot_us = 0.0;
};

// The five public stages assembled exactly as
// CloakingEngine::RequestCloaking does, each wrapped in a TimedStage, over
// the driver's hosts and master seed with a fault-free network.
nela::util::Result<ReferenceRun> RunReference(
    const Setup& setup, const nela::core::PolicyFactory& policy,
    const std::vector<nela::data::UserId>& hosts,
    const nela::lbs::LbsServer& server, SpanLog* log) {
  using namespace nela;
  const data::Dataset& dataset = setup.scenario->dataset;
  cluster::Registry registry(dataset.size());
  net::Network network(dataset.size());
  cluster::DistributedTConnClusterer tconn(setup.scenario->graph, kK,
                                           &registry);
  TimedClusterer clusterer(&tconn, log);

  ReferenceRun ref;
  const WallTimer timer;
  for (uint64_t ordinal = 0; ordinal < hosts.size(); ++ordinal) {
    const data::UserId host = hosts[ordinal];
    log->set_ordinal(ordinal);
    const ScopedSpan request(log, "request");
    core::RequestContext ctx(kMasterSeed, ordinal, host);
    if (!network.IsAlive(host)) {
      return util::UnavailableError("reference host is offline");
    }
    core::PipelineState state;
    state.host = host;
    state.k = clusterer.k();
    core::ResolveReuseStage resolve_reuse(&clusterer, &registry);
    core::ClusterStage cluster_stage(&clusterer, &registry);
    core::ClaimCommitStage claim_commit;
    core::SecureBoundStage::Config bound_config;
    bound_config.dataset = &dataset;
    bound_config.policy_factory = &policy;
    bound_config.network = &network;
    core::SecureBoundStage secure_bound(bound_config);
    core::PublishStage publish(&registry, &secure_bound, &network);
    TimedStage timed_reuse(&resolve_reuse, "core.resolve_reuse", log);
    TimedStage timed_cluster(&cluster_stage, "core.cluster", log);
    TimedStage timed_claim(&claim_commit, "core.claim_commit", log);
    TimedStage timed_bound(&secure_bound, "bounding.secure_bound", log);
    TimedStage timed_publish(&publish, "core.publish", log);
    const std::vector<core::Stage*> stages = {
        &timed_reuse, &timed_cluster, &timed_claim, &timed_bound,
        &timed_publish};
    const util::Status status = core::RunPipeline(stages, ctx, state);
    core::FinalizeDegradation(ctx, &state.outcome);
    if (!status.ok()) return status;

    const core::CloakingOutcome& outcome = state.outcome;
    ++ref.requests;
    if (outcome.region_reused) ++ref.region_reused;
    if (!outcome.anonymity_satisfied) ++ref.unsatisfied;
    ref.verifications += outcome.bounding_verifications;
    ref.iterations += outcome.bounding_iterations;
    ref.messages += ctx.scope().stats().messages_delivered;
    ref.bytes += ctx.scope().stats().bytes_delivered;
    if (!outcome.region.empty()) {
      const ScopedSpan query(log, "lbs.range_query");
      (void)server.RangeQuery(outcome.region);
    }
  }
  ref.wall_s = timer.ElapsedSeconds();
  ref.involved = clusterer.involved();
  ref.digest = registry.Digest();
  ref.audit_ok = core::AuditAnonymity(registry, dataset, kK).ok();

  std::vector<double> snapshot_us;
  for (int i = 0; i < kSnapshotSamples; ++i) {
    const WallTimer snapshot_timer;
    const std::unique_ptr<cluster::Registry> copy = registry.Snapshot();
    snapshot_us.push_back(snapshot_timer.ElapsedMicros());
  }
  ref.snapshot_us = nela::util::Percentile(snapshot_us, 0.5);
  return ref;
}

// The unwrapped CloakingEngine over the same hosts: the digest witness and
// the baseline for the decorators' overhead.
struct EngineRun {
  uint64_t digest = 0;
  double wall_s = 0.0;
};

nela::util::Result<EngineRun> RunEngine(
    const Setup& setup, const nela::core::PolicyFactory& policy,
    const std::vector<nela::data::UserId>& hosts) {
  using namespace nela;
  const data::Dataset& dataset = setup.scenario->dataset;
  cluster::Registry registry(dataset.size());
  net::Network network(dataset.size());
  core::CloakingEngine engine(
      dataset,
      std::make_unique<cluster::DistributedTConnClusterer>(
          setup.scenario->graph, kK, &registry),
      &registry, policy, core::BoundingMode::kSecureProtocol, &network);
  engine.set_master_seed(kMasterSeed);
  EngineRun run;
  const WallTimer timer;
  for (const data::UserId host : hosts) {
    auto outcome = engine.RequestCloaking(host);
    if (!outcome.ok()) return outcome.status();
  }
  run.wall_s = timer.ElapsedSeconds();
  run.digest = registry.Digest();
  return run;
}

int RunTraced(const Workload& w, uint64_t seed, uint32_t users,
              uint32_t requests, uint32_t threads,
              const std::string& scratch_dir, const std::string& trace_out) {
  using namespace nela;
  Checks checks;
  auto built = BuildSetup(users);
  if (!built.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const Setup setup = std::move(built).value();
  const data::Dataset& dataset = setup.scenario->dataset;

  // The WPG rebuilt once on the generated dataset, with BuildScenario's
  // parameters, separates its share of BuildScenario.
  const graph::WpgBuildParams wpg_params;
  const WallTimer wpg_timer;
  auto rebuilt = graph::BuildWpg(dataset, wpg_params);
  const double graph_build_s = wpg_timer.ElapsedSeconds();
  if (!rebuilt.ok()) {
    std::fprintf(stderr, "WPG rebuild failed: %s\n",
                 rebuilt.status().ToString().c_str());
    return 1;
  }

  const core::PolicyFactory policy = MakePolicy(users);
  const lbs::LbsServer server(setup.pois.get(), kPoiPayloadRatio);
  util::Rng workload_rng(seed);
  const std::vector<data::UserId> hosts =
      sim::SampleWorkload(users, requests, workload_rng);

  // Warm up on a tenth of the hosts first, so neither of the two sequential
  // runs compared by core.trace_overhead_frac pays the cold start.
  const std::vector<data::UserId> warmup_hosts(
      hosts.begin(), hosts.begin() + std::max<size_t>(1, hosts.size() / 10));
  if (auto warmup = RunEngine(setup, policy, warmup_hosts); !warmup.ok()) {
    std::fprintf(stderr, "warm-up failed: %s\n",
                 warmup.status().ToString().c_str());
    return 1;
  }
  SpanLog log;
  auto reference = RunReference(setup, policy, hosts, server, &log);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference pipeline failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  const ReferenceRun& ref = reference.value();
  auto engine = RunEngine(setup, policy, hosts);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine run failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  // Driver runs: the workload as configured, the same at the other end of
  // the 1-vs-4-thread comparison, the other side of the shard comparison,
  // and durability toggled.
  const std::string durability_dir =
      scratch_dir + "/durable-" + std::to_string(getpid());
  const uint32_t concurrent = std::min(kConcurrentThreads, AvailableCores());
  const uint32_t other_threads = threads == 1 ? concurrent : 1;
  const uint32_t other_shards = w.shards == 1 ? kAltShards : 1;
  struct Plan {
    const char* label;
    uint32_t threads;
    uint32_t shards;
    bool durable;
  };
  const Plan plans[] = {
      {"driver", threads, w.shards, w.durable},
      {"other_threads", other_threads, w.shards, w.durable},
      {"other_shards", threads, other_shards, false},
      {"durability_toggled", threads, w.shards, !w.durable},
  };
  std::vector<DriverRun> runs;
  for (const Plan& plan : plans) {
    auto run = RunDriver(setup, policy, seed, requests, plan.threads,
                         plan.shards, plan.durable ? durability_dir : "");
    if (!run.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", plan.label,
                   run.status().ToString().c_str());
      return 1;
    }
    CheckDriverRun(run.value(), plan.label, checks);
    checks.Expect(run.value().result.service.registry_digest == ref.digest,
                  std::string(plan.label) +
                      ": registry digest differs from the reference pipeline");
    if (plan.durable) {
      run.value().recover_s = RecoverAndCheck(run.value(), setup, plan.shards,
                                              plan.threads, checks);
      std::error_code ec;
      std::filesystem::remove_all(durability_dir, ec);
    }
    std::fprintf(stderr, "%s: %.3f s wall\n", plan.label, run.value().wall_s);
    runs.push_back(std::move(run).value());
  }
  checks.Expect(engine.value().digest == ref.digest,
                "CloakingEngine digest differs from the reference pipeline");
  checks.Expect(ref.audit_ok, "anonymity audit of the reference registry");

  const DriverRun& t1_run = threads == 1 ? runs[0] : runs[1];
  const DriverRun& tn_run = threads == 1 ? runs[1] : runs[0];
  const DriverRun& durable_run = w.durable ? runs[0] : runs[3];
  const DriverRun& plain_run = w.durable ? runs[3] : runs[0];
  const DriverRun& k1_run = w.shards == 1 ? plain_run : runs[2];
  const DriverRun& k16_run = w.shards == 1 ? runs[2] : plain_run;
  // Contention counters come from the concurrent run.
  const sim::ServiceResult& contended = tn_run.result.service;

  const SpanSummary request = Summarize(log, "request");
  const SpanSummary reuse = Summarize(log, "core.resolve_reuse");
  const SpanSummary claim = Summarize(log, "core.claim_commit");
  const SpanSummary publish = Summarize(log, "core.publish");
  const SpanSummary tconn = Summarize(log, "cluster.tconn");
  const SpanSummary bound = Summarize(log, "bounding.secure_bound");
  const SpanSummary query = Summarize(log, "lbs.range_query");
  const double pipeline_s = request.total_s - query.total_s;
  const double stage_self_s = reuse.self_s + claim.self_s + publish.self_s +
                              tconn.self_s + bound.self_s;
  const double residual_s = pipeline_s - stage_self_s;
  const double tax_s = t1_run.wall_s - pipeline_s;
  const double concurrency_s = tn_run.wall_s - t1_run.wall_s;

  if (!trace_out.empty() && !log.Write(trace_out, HostStampJson())) {
    checks.Expect(false, "cannot write trace file " + trace_out);
  }

  std::printf("host %s\n", HostStampJson().c_str());
  std::printf("workload %s: users=%u requests=%u threads=%u shards=%u "
              "durable=%d seed=%" PRIu64 " digest=%016" PRIx64 "\n",
              w.name, users, requests, threads, w.shards, w.durable ? 1 : 0,
              seed, ref.digest);
  std::printf("driver wall at T=%u = sum stage self + residual + tax + "
              "concurrency: %.4f s = %.4f + %.4f + %.4f + %.4f\n",
              concurrent, tn_run.wall_s, stage_self_s, residual_s, tax_s,
              concurrency_s);
  PrintResult(
      checks.ok(), ref.requests, 0,
      {{"data.generate_s", setup.scenario_s - graph_build_s, "s"},
       {"graph.build_s", graph_build_s, "s"},
       {"graph.edges", static_cast<double>(rebuilt.value().edge_count()),
        "count"},
       {"lbs.index_s", setup.index_s, "s"},
       {"core.resolve_reuse.self_s", reuse.self_s, "s"},
       {"core.claim_commit.self_s", claim.self_s, "s"},
       {"core.publish.self_s", publish.self_s, "s"},
       {"cluster.tconn.calls", static_cast<double>(tconn.calls), "count"},
       {"cluster.tconn.self_s", tconn.self_s, "s"},
       {"cluster.tconn.p50_us", tconn.p50_us, "us"},
       {"cluster.tconn.p99_us", tconn.p99_us, "us"},
       {"bounding.secure_bound.calls", static_cast<double>(bound.calls),
        "count"},
       {"bounding.secure_bound.self_s", bound.self_s, "s"},
       {"bounding.secure_bound.p50_us", bound.p50_us, "us"},
       {"bounding.secure_bound.p99_us", bound.p99_us, "us"},
       {"core.pipeline_s", pipeline_s, "s"},
       {"core.residual_s", residual_s, "s"},
       {"core.reuse_ratio", Ratio(ref.region_reused, ref.requests), "ratio"},
       {"core.unsatisfied_frac", Ratio(ref.unsatisfied, ref.requests),
        "ratio"},
       {"core.trace_overhead_frac",
        (ref.wall_s - engine.value().wall_s) / engine.value().wall_s, "ratio"},
       {"sim.driver_t1_s", t1_run.wall_s, "s"},
       {"sim.driver_t4_s", tn_run.wall_s, "s"},
       {"sim.driver_tax_s", tax_s, "s"},
       {"sim.concurrency_s", concurrency_s, "s"},
       {"sim.spec_abort_ratio",
        Ratio(contended.speculation_aborts, contended.admitted), "ratio"},
       {"sim.spec_retries",
        static_cast<double>(contended.speculation_retries), "count"},
       {"sim.shard_overhead_s", k16_run.wall_s - k1_run.wall_s, "s"},
       {"cluster.involved_per_call", Ratio(ref.involved, tconn.calls),
        "users"},
       {"cluster.snapshot_us", ref.snapshot_us, "us"},
       {"cluster.claim_conflicts",
        static_cast<double>(contended.claim_conflicts), "count"},
       {"cluster.claim_wounds",
        static_cast<double>(contended.claim_wounds), "count"},
       {"cluster.cross_shard_handoff_ratio",
        Ratio(k16_run.result.cross_shard_handoffs,
              k16_run.result.service.admitted),
        "ratio"},
       {"cluster.cross_shard_clusters",
        static_cast<double>(k16_run.result.cross_shard_clusters), "count"},
       {"bounding.verifications_per_call",
        Ratio(ref.verifications, bound.calls), "messages"},
       {"bounding.iterations_per_call", Ratio(ref.iterations, bound.calls),
        "count"},
       {"net.msgs_per_req", Ratio(ref.messages, ref.requests), "messages"},
       {"net.bytes_per_req", Ratio(ref.bytes, ref.requests), "bytes"},
       {"lbs.query_p50_us", query.p50_us, "us"},
       {"lbs.query_p99_us", query.p99_us, "us"},
       {"durability.overhead_s", durable_run.wall_s - plain_run.wall_s, "s"},
       {"durability.wal_records",
        static_cast<double>(durable_run.result.service.wal_records), "count"},
       {"durability.checkpoints",
        static_cast<double>(durable_run.result.service.checkpoints_written),
        "count"},
       {"durability.disk_bytes", static_cast<double>(durable_run.disk_bytes),
        "bytes"},
       {"durability.recover_s", durable_run.recover_s, "s"}});
  return checks.ok() ? 0 : 1;
}

int Run(int argc, char** argv) {
  std::string workload_name;
  int64_t seed = 1;
  double seconds = 12.0;
  bool traced = false;
  std::string trace_out;
  std::string scratch_dir = ".bench_build/scratch";
  int64_t users_override = 0;
  int64_t requests_override = 0;
  nela::util::FlagParser flags;
  flags.AddString("workload", &workload_name,
                  "paper_default | reuse_storm | sharded_durable | "
                  "large_population");
  flags.AddInt64("seed", &seed, "workload seed: which hosts issue requests");
  flags.AddDouble("seconds", &seconds,
                  "timed mode: driver wall time to measure (whole passes)");
  flags.AddBool("traced", &traced, "report per-layer metrics instead");
  flags.AddString("trace_out", &trace_out,
                  "traced mode: Chrome trace-event JSON output file");
  flags.AddString("scratch_dir", &scratch_dir,
                  "where durable workloads put their WAL/checkpoint streams");
  flags.AddInt64("users", &users_override,
                 "smoke test only: population override (0 = workload's)");
  flags.AddInt64("requests", &requests_override,
                 "smoke test only: request-count override (0 = workload's)");
  const nela::util::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    if (parsed.code() == nela::util::StatusCode::kOutOfRange) return 0;
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  const auto out_of_range = [](int64_t value) {
    return value < 0 || value > int64_t{UINT32_MAX};
  };
  if (workload == nullptr || seed < 0 || out_of_range(users_override) ||
      out_of_range(requests_override)) {
    std::fprintf(stderr, "unknown workload '%s' or value out of range\n",
                 workload_name.c_str());
    flags.PrintUsage(argv[0]);
    return 2;
  }
  const uint32_t users = users_override > 0
                             ? static_cast<uint32_t>(users_override)
                             : workload->users;
  const uint32_t requests = std::min(
      users, requests_override > 0 ? static_cast<uint32_t>(requests_override)
                                   : workload->requests);
  // No run uses more threads than the cores it may run on.
  const uint32_t threads = std::min(workload->threads, AvailableCores());
  std::error_code ec;
  std::filesystem::create_directories(scratch_dir, ec);
  return traced ? RunTraced(*workload, static_cast<uint64_t>(seed), users,
                            requests, threads, scratch_dir, trace_out)
                : RunTimed(*workload, static_cast<uint64_t>(seed), seconds,
                           users, requests, threads, scratch_dir);
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
