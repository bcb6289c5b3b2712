// Simulated peer-to-peer message layer with deterministic fault injection.
//
// The paper's evaluation metric is communication cost in number of messages
// (and, for Fig. 10, message payload size). This substrate gives every
// protocol a common place to record traffic: protocols call Send() for each
// point-to-point message, and the harness reads the counters.
//
// Fault model (paper §VII robustness discussion): an installed FaultPlan
// drops messages with a seeded probability, delays them through a latency
// model whose samples above the timeout threshold surface as losses, and
// crashes nodes at scheduled points of the execution. Protocols recover via
// net::SendWithRetry (retry.h), whose retransmissions and observed timeouts
// are accounted per message kind here, so benchmarks can report the
// bandwidth cost of fault tolerance, not just the happy-path traffic.

#ifndef NELA_NET_NETWORK_H_
#define NELA_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/accounting.h"
#include "net/fault_plan.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nela::net {

enum class MessageKind : uint8_t {
  kAdjacencyExchange = 0,  // a user's adjacency list sent to a host/anonymizer
  kClusterAssignment,      // final cluster membership notification
  kBoundProposal,          // secure bounding: hypothesized bound broadcast
  kBoundVote,              // secure bounding: agree/disagree reply
  kServiceRequest,         // cloaked region sent to the LBS server
  kServiceReply,           // candidate POIs returned by the LBS server
  kControl,                // anything else (handshakes, retries)
};
inline constexpr int kMessageKindCount = 7;

// Stable short name of a kind ("adjacency_exchange", ...). The name table is
// static_asserted against kMessageKindCount, so adding a kind without a name
// fails to compile instead of silently drifting.
const char* MessageKindName(MessageKind kind);

// --- Structured payload model -------------------------------------------
//
// A message's payload is described, not serialized: each field carries a
// semantic tag, the principal the field is *about* (whose privacy it can
// affect), and the scalar value that would go on the wire. The audit layer
// (audit::AdversaryObserver) reconstructs per-principal knowledge from
// these descriptors; protocols that send opaque byte counts only
// (kControl handshakes, service replies) may leave the descriptor empty.

enum class FieldTag : uint8_t {
  kAdjacencyList = 0,  // size of a user's proximity adjacency list
  kBoundHypothesis,    // secure bounding: proposed upper bound (public value)
  kBoundVerdict,       // secure bounding: agree(1)/disagree(0) vote
  kCloakedRegion,      // a published region edge (min_x/min_y/max_x/max_y)
  kRawCoordinate,      // an exact user coordinate -- only the OPT baseline
                       // may ever send one, and the observer flags it
  kControl,            // untyped bookkeeping value
  kNoisedCoordinate,   // a perturbed coordinate (geo-indistinguishability);
                       // declared to differ from every private bit pattern
  kCandidateLocation,  // one member of a dummy-location candidate set (a
                       // grid cell center, never a raw user position)
};
inline constexpr int kFieldTagCount = 8;

// Stable short name of a tag ("adjacency_list", ...), static_asserted
// against kFieldTagCount like MessageKindName.
const char* FieldTagName(FieldTag tag);

// Subject id for fields that are about no particular user (a cluster-wide
// bound hypothesis, a region edge).
inline constexpr NodeId kPublicSubject = 0xffffffffu;

struct PayloadField {
  FieldTag tag = FieldTag::kControl;
  NodeId subject = kPublicSubject;
  double value = 0.0;
};

// Fixed-capacity field list: payloads in this protocol family are tiny
// (a region is 4 edges), and keeping the descriptor inline keeps Send()
// allocation-free on the hot bench paths.
struct PayloadDescriptor {
  static constexpr int kMaxFields = 4;

  std::array<PayloadField, kMaxFields> fields{};
  uint8_t field_count = 0;

  void Add(FieldTag tag, NodeId subject, double value) {
    NELA_CHECK_LT(field_count, kMaxFields);
    fields[field_count++] = PayloadField{tag, subject, value};
  }
  bool empty() const { return field_count == 0; }
  const PayloadField* begin() const { return fields.data(); }
  const PayloadField* end() const { return fields.data() + field_count; }
};

// A fully described message. Send(Message) is the audited path; the legacy
// positional Send() remains for traffic whose payload carries no
// per-principal information.
struct Message {
  NodeId from = 0;
  NodeId to = 0;
  MessageKind kind = MessageKind::kControl;
  uint64_t bytes = 0;
  PayloadDescriptor payload;
};

// Observes every send attempt, delivered or not (an adversary on the wire
// sees transmissions; whether the simulated fault process drops them is
// reported so taps can model either a global eavesdropper or an endpoint).
// Invoked outside the network's internal mutex: taps may call back into
// Network accessors but must do their own synchronization if the network
// is shared across threads.
class TrafficTap {
 public:
  virtual ~TrafficTap() = default;
  virtual void OnMessage(const Message& message, bool delivered) = 0;
};

struct TrafficCounter {
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

// Fault-tolerance accounting, kept per message kind: how often senders had
// to retransmit, how many send attempts they observed as lost/timed out,
// and the bytes burned on retransmissions.
struct RetryStats {
  static constexpr int kJitterBuckets = 8;

  uint64_t retries = 0;
  uint64_t timeouts_observed = 0;
  uint64_t retransmitted_bytes = 0;
  // Histogram of backoff jitter draws: each SendWithRetry backoff records
  // its drawn fraction of the policy's jitter window into one of
  // kJitterBuckets equal-width buckets. A healthy seeded spread fills the
  // buckets roughly evenly; all draws collapsing into one bucket is the
  // retransmission-synchronization signature jitter exists to prevent.
  std::array<uint64_t, kJitterBuckets> jitter_histogram{};

  uint64_t jitter_draws() const {
    uint64_t draws = 0;
    for (uint64_t bucket : jitter_histogram) draws += bucket;
    return draws;
  }
};

// Thread safety: every counter mutation and liveness transition happens
// under one internal mutex, so concurrent requests (sim::ShardedServiceDriver
// workers) may share a Network. Determinism caveat: with a loss/latency
// process installed, the *order* in which concurrent senders draw from the
// fault RNG depends on scheduling -- per-run bit-identical fault injection
// therefore requires a single in-flight request (all current chaos drivers
// are single-threaded). On a fault-free network the counters are pure sums
// and every interleaving yields identical totals.
class Network {
 public:
  explicit Network(uint32_t node_count);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  uint32_t node_count() const { return node_count_; }

  // Records one send attempt. Returns false when the message is not
  // delivered: dropped by the injected loss process, delayed past the
  // latency model's timeout, or addressed from/to a crashed node. Callers
  // needing delivery use net::SendWithRetry on top. When `scope` is given,
  // the attempt is additionally accounted to that request's scope.
  bool Send(NodeId from, NodeId to, MessageKind kind, uint64_t bytes,
            RequestScope* scope = nullptr) EXCLUDES(mu_);

  // Audited path: same semantics, but the message's payload descriptor is
  // handed to the installed TrafficTap (if any) along with the delivery
  // outcome.
  bool Send(const Message& message, RequestScope* scope = nullptr)
      EXCLUDES(mu_);

  // Installs (or clears, with nullptr) the traffic tap. Not owned; must
  // outlive the network or be cleared first. Install before traffic starts:
  // swapping the tap concurrently with in-flight sends is a data race.
  void SetTap(TrafficTap* tap) { tap_ = tap; }
  TrafficTap* tap() const { return tap_; }

  // Installs the full fault plan (replaces any previous loss setting). The
  // RNG driving loss and latency is owned by the network and seeded from
  // plan.seed, so runs are reproducible. Fails with kInvalidArgument when
  // loss_probability is outside [0, 1], a latency parameter is negative,
  // or a crash event names an out-of-range node.
  [[nodiscard]] util::Status InstallFaultPlan(const FaultPlan& plan)
      EXCLUDES(mu_);

  // Legacy lightweight path: every subsequent Send is dropped with
  // probability `loss_probability` using `rng` (not owned; must outlive the
  // network). Pass 0 to disable. Fails with kInvalidArgument when the
  // probability is outside [0, 1] or a positive probability comes without
  // an RNG (which would otherwise fault on the next Send).
  [[nodiscard]] util::Status SetLossProbability(double loss_probability,
                                                util::Rng* rng) EXCLUDES(mu_);

  // --- Liveness ---------------------------------------------------------

  // Immediately removes `node` from the system: every later send touching
  // it fails. Idempotent.
  void CrashNode(NodeId node) EXCLUDES(mu_);

  bool IsAlive(NodeId node) const EXCLUDES(mu_) {
    NELA_CHECK_LT(node, node_count_);
    util::MutexLock lock(mu_);
    return alive_[node];
  }
  uint32_t alive_count() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return alive_count_;
  }

  // --- Counters ---------------------------------------------------------
  // The const-reference accessors return views into mutex-protected state;
  // reading them concurrently with in-flight sends yields a momentary
  // snapshot (fine for monotone counters), copy-by-value accessors take the
  // lock.

  // Global counters (delivered messages only).
  TrafficCounter total() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return total_;
  }
  TrafficCounter of_kind(MessageKind kind) const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return by_kind_[static_cast<size_t>(kind)];
  }

  // Every Send call, delivered or not; drives the crash schedule.
  uint64_t send_attempts() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return send_attempts_;
  }

  // Loss-process drops and the bandwidth they wasted.
  uint64_t dropped_messages() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return dropped_;
  }
  uint64_t dropped_bytes() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return dropped_bytes_;
  }

  // Latency-model samples above the timeout threshold.
  uint64_t timed_out_messages() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return timed_out_;
  }

  // Send attempts addressed from or to a crashed node.
  uint64_t dead_endpoint_attempts() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return dead_endpoint_attempts_;
  }

  // Simulated delivery latency summed over delivered messages (0 without a
  // latency model).
  double total_latency_ms() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return total_latency_ms_;
  }

  // Retry accounting, fed by SendWithRetry via RecordRetry/RecordTimeout.
  RetryStats retry_stats_of(MessageKind kind) const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return retry_by_kind_[static_cast<size_t>(kind)];
  }
  RetryStats total_retry_stats() const EXCLUDES(mu_);

  void RecordRetry(MessageKind kind, uint64_t bytes,
                   RequestScope* scope = nullptr) EXCLUDES(mu_);
  void RecordTimeoutObserved(MessageKind kind, RequestScope* scope = nullptr)
      EXCLUDES(mu_);
  // `fraction_of_window` is the backoff jitter draw normalized to [0, 1)
  // over the policy's jitter window (SendWithRetry computes it from the
  // draw it already made, so recording never perturbs the RNG sequence).
  void RecordBackoffJitter(MessageKind kind, double fraction_of_window)
      EXCLUDES(mu_);

  // Per-node counters.
  uint64_t SentBy(NodeId node) const EXCLUDES(mu_);
  uint64_t ReceivedBy(NodeId node) const EXCLUDES(mu_);

  // Zeroes every traffic/fault counter. Keeps the fault configuration, the
  // crash schedule position, and node liveness: counters describe a
  // measurement window, liveness describes the world.
  void ResetCounters() EXCLUDES(mu_);

 private:
  // Fires every crash event whose threshold the attempt counter reached.
  void AdvanceCrashScheduleLocked() REQUIRES(mu_);
  void CrashNodeLocked(NodeId node) REQUIRES(mu_);
  // Counter/fault bookkeeping for one attempt; returns whether it was
  // delivered. Takes mu_ itself; the caller invokes the tap afterwards so
  // the tap never runs under the network lock.
  bool SendImpl(NodeId from, NodeId to, MessageKind kind, uint64_t bytes,
                RequestScope* scope) EXCLUDES(mu_);

  // Deliberately unguarded: install-before-traffic contract (see SetTap).
  // Guarding it would put the tap swap under mu_ without fixing the real
  // hazard (a tap swapped mid-send still races with the tap *invocation*,
  // which runs outside the lock by design).
  TrafficTap* tap_ = nullptr;
  mutable util::Mutex mu_;
  uint32_t node_count_;
  TrafficCounter total_ GUARDED_BY(mu_);
  std::array<TrafficCounter, kMessageKindCount> by_kind_ GUARDED_BY(mu_){};
  std::array<RetryStats, kMessageKindCount> retry_by_kind_ GUARDED_BY(mu_){};
  std::vector<uint64_t> sent_ GUARDED_BY(mu_);
  std::vector<uint64_t> received_ GUARDED_BY(mu_);
  std::vector<bool> alive_ GUARDED_BY(mu_);
  uint32_t alive_count_ GUARDED_BY(mu_);
  uint64_t send_attempts_ GUARDED_BY(mu_) = 0;
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  uint64_t dropped_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t timed_out_ GUARDED_BY(mu_) = 0;
  uint64_t dead_endpoint_attempts_ GUARDED_BY(mu_) = 0;
  double total_latency_ms_ GUARDED_BY(mu_) = 0.0;

  double loss_probability_ GUARDED_BY(mu_) = 0.0;
  // External (legacy path) or &owned_rng_.
  util::Rng* loss_rng_ GUARDED_BY(mu_) = nullptr;
  std::optional<util::Rng> owned_rng_ GUARDED_BY(mu_);
  LatencyModel latency_ GUARDED_BY(mu_);
  // Sorted by after_attempts.
  std::vector<CrashEvent> crash_schedule_ GUARDED_BY(mu_);
  size_t next_crash_ GUARDED_BY(mu_) = 0;
};

}  // namespace nela::net

#endif  // NELA_NET_NETWORK_H_
