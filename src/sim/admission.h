// Admission: which requests run, and with what simulated queue wait,
// decided sequentially before any of them executes.
//
// Arrivals come on ONE global Poisson clock; each request queues at its
// host's home shard, FIFO onto that shard's earliest-free server. Worker
// threads are spread across shards as servers (floor one per shard), so at
// K=1 this is one c-server queue with c = threads. A request that finds
// its shard's waiting room full is shed with kUnavailable; one whose wait
// would exceed the deadline is shed with kDeadlineExceeded. The decisions
// are a pure function of (config, home shards, thread count). With
// offered_rate_per_ms = 0 the queue model is off: all admitted at t=0.

#ifndef NELA_SIM_ADMISSION_H_
#define NELA_SIM_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "cluster/shard_map.h"
#include "sim/sharded_service_driver.h"
#include "util/status.h"

namespace nela::sim {

struct AdmissionDecision {
  ShedCause shed = ShedCause::kNone;  // kNone: admitted
  // Why the request was shed, for its degradation report; Ok if admitted.
  util::Status reason;
  double arrival_ms = 0.0;
  double queue_wait_ms = 0.0;  // 0 for a queue-overflow shed
};

// One decision per request, in ordinal order; `home_of` maps ordinal ->
// home shard (< shard_count).
std::vector<AdmissionDecision> AdmitWorkload(
    const ServiceConfig& service, const std::vector<cluster::ShardId>& home_of,
    uint32_t shard_count);

}  // namespace nela::sim

#endif  // NELA_SIM_ADMISSION_H_
