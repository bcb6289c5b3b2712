#include "sim/admission.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <string>

#include "util/rng.h"

namespace nela::sim {

std::vector<AdmissionDecision> AdmitWorkload(
    const ServiceConfig& service, const std::vector<cluster::ShardId>& home_of,
    uint32_t shard_count) {
  std::vector<AdmissionDecision> decisions(home_of.size());
  if (service.offered_rate_per_ms <= 0.0) return decisions;

  util::Rng arrival_rng(service.workload_seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<uint32_t> servers(shard_count, 0);
  const uint32_t threads = std::max(1u, service.threads);
  for (uint32_t t = 0; t < threads; ++t) ++servers[t % shard_count];
  using MinHeap = std::priority_queue<double, std::vector<double>,
                                      std::greater<double>>;
  // Earliest free time per server, per shard.
  std::vector<MinHeap> free_at(shard_count);
  for (uint32_t shard = 0; shard < shard_count; ++shard) {
    for (uint32_t s = 0; s < std::max(1u, servers[shard]); ++s) {
      free_at[shard].push(0.0);
    }
  }
  // Start times of admitted requests per shard, non-decreasing under FIFO
  // service -- a shard queue's occupancy at time t is the count of its
  // admitted starts > t.
  std::vector<std::vector<double>> start_times(shard_count);

  double clock_ms = 0.0;
  for (size_t ordinal = 0; ordinal < home_of.size(); ++ordinal) {
    AdmissionDecision& decision = decisions[ordinal];
    clock_ms += arrival_rng.NextExponential(service.offered_rate_per_ms);
    decision.arrival_ms = clock_ms;
    const cluster::ShardId shard = home_of[ordinal];
    std::vector<double>& starts = start_times[shard];
    const auto waiting = static_cast<uint32_t>(
        starts.end() -
        std::upper_bound(starts.begin(), starts.end(), clock_ms));
    if (service.queue_capacity > 0 && waiting >= service.queue_capacity) {
      decision.shed = ShedCause::kQueueOverflow;
      decision.reason = util::UnavailableError(
          "admission queue full (occupancy=" + std::to_string(waiting) +
          " capacity=" + std::to_string(service.queue_capacity) +
          "); request shed");
      continue;
    }
    decision.queue_wait_ms = std::max(0.0, free_at[shard].top() - clock_ms);
    if (decision.queue_wait_ms > service.deadline_ms) {
      decision.shed = ShedCause::kDeadline;
      decision.reason = util::DeadlineExceededError(
          "simulated queue wait " + std::to_string(decision.queue_wait_ms) +
          "ms exceeds deadline " + std::to_string(service.deadline_ms) +
          "ms; request shed");
      continue;
    }
    free_at[shard].pop();
    const double start = clock_ms + decision.queue_wait_ms;
    free_at[shard].push(start + service.service_time_ms);
    starts.push_back(start);
  }
  return decisions;
}

}  // namespace nela::sim
