// Concurrency control for simultaneous cloaking requests (the paper's §VII
// future work: "a single user can only join one cluster but can participate
// in the clustering process of multiple host users; our protocols must
// prevent deadlocks while making the best clustering decision").
//
// Model: every clustering request must atomically claim the set of users it
// intends to cluster. Requests that overlap contend; the coordinator grants
// claims with two guarantees:
//
//  * safety -- a user is never part of two committed clusters (reciprocity
//    survives concurrency);
//  * liveness -- contention cannot deadlock: claims are acquired in one
//    atomic all-or-nothing step, and losers abort-and-retry with a
//    deterministic priority (older ticket wins), so some request always
//    commits (wound-wait style, no circular waiting is even possible).
//
// The coordinator is deliberately decoupled from the clustering algorithms:
// phase 1 proposes a candidate membership from a copy of the registry's
// remaining-WPG mask (DistributedTConnClusterer::Propose), then commits it
// through the coordinator; a conflict means another host claimed an
// overlapping set first, and the request recomputes against the fresh
// registry state. ConcurrentCloakingSession drives that loop.
//
// Cost: the coordinator keeps, next to the per-user holder table, the list
// of users each live ticket holds, so Release and wounding cost O(users the
// ticket holds) -- O(1) for a ticket that holds nothing here -- and never
// scan the population. Memory beyond the holder table is O(claims in
// flight): a ticket's list is dropped when it is released or wounded.

#ifndef NELA_CLUSTER_CONCURRENCY_H_
#define NELA_CLUSTER_CONCURRENCY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/clusterer.h"
#include "cluster/registry.h"
#include "graph/wpg.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nela::cluster {

// Ticket identifying one in-flight cloaking request; lower = older = higher
// priority.
using Ticket = uint64_t;
inline constexpr Ticket kNoTicket = 0;

// Thread safety: every operation is atomic under an internal mutex, so
// genuinely parallel requests (sim::ShardedServiceDriver worker threads)
// and the single-threaded round-robin simulation share the same
// coordinator code.
class ClaimCoordinator {
 public:
  explicit ClaimCoordinator(uint32_t user_count);

  ClaimCoordinator(const ClaimCoordinator&) = delete;
  ClaimCoordinator& operator=(const ClaimCoordinator&) = delete;

  // Registers a new request and returns its ticket (monotonically
  // increasing; older tickets win conflicts).
  Ticket OpenRequest() EXCLUDES(mu_);

  // Registers a request under an explicit, caller-assigned ticket. The
  // sharded service runs one coordinator per shard but needs a GLOBAL
  // wound-wait priority (the request's admission rank), so every involved
  // shard's coordinator must see the same ticket for the same request.
  // Tickets assigned this way must be unique per coordinator and nonzero;
  // auto-assigned tickets from OpenRequest() continue above the highest
  // explicit one.
  Ticket OpenRequestAt(Ticket ticket) EXCLUDES(mu_);

  // Attempts to claim every user in `members` for `ticket`, atomically:
  // either all become held by `ticket`, or nothing changes.
  //
  // Conflict resolution (wound-wait): if some member is held by a YOUNGER
  // ticket, that holder's claims are revoked ("wounded") and the claim
  // succeeds -- the wounded request observes its loss via WasWounded() and
  // must retry. If some member is held by an OLDER ticket, the claim fails
  // and the caller should recompute/retry. Returns true on success.
  bool TryClaim(Ticket ticket, const std::vector<graph::VertexId>& members)
      EXCLUDES(mu_);

  // True when another (older) request revoked this ticket's claims; the
  // wounded request must drop its candidate and retry against the fresh
  // registry state. Resets the flag.
  bool WasWounded(Ticket ticket) EXCLUDES(mu_);

  // Releases every claim of `ticket` (after commit or abort). O(users the
  // ticket holds in this coordinator).
  void Release(Ticket ticket) EXCLUDES(mu_);

  // Holder of user `v`, or kNoTicket.
  Ticket HolderOf(graph::VertexId v) const EXCLUDES(mu_);

  uint64_t conflicts_observed() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return conflicts_;
  }
  uint64_t wounds_inflicted() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return wounds_;
  }

  // Names the coordinator lock for cross-class ordering annotations: the
  // service driver acquires its run lock strictly before any
  // shard's coordinator lock (see sim/sharded_service_driver.cc).
  util::Mutex& mu() const RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  // Frees every user `ticket` holds and forgets its claim list.
  void DropClaimsLocked(Ticket ticket) REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::vector<Ticket> holder_ GUARDED_BY(mu_);
  // Live ticket -> the users it holds, each once: claims_[t] lists exactly
  // the users v with holder_[v] == t. Only tickets holding at least one
  // claim have an entry.
  std::unordered_map<Ticket, std::vector<graph::VertexId>> claims_
      GUARDED_BY(mu_);
  // Indexed by ticket (grown on demand).
  std::vector<uint8_t> wounded_ GUARDED_BY(mu_);
  Ticket next_ticket_ GUARDED_BY(mu_) = 1;
  uint64_t conflicts_ GUARDED_BY(mu_) = 0;
  uint64_t wounds_ GUARDED_BY(mu_) = 0;
};

// Serializes concurrent cloaking requests on top of any Clusterer.
//
// Simulates R hosts whose requests arrive "almost at the same time": each
// request repeatedly (a) copies the registry's remaining-WPG mask, (b)
// proposes phase 1's candidate partition over it, (c) claims the
// candidate's users through the coordinator, and (d) commits into the real
// registry -- retrying from (a) whenever it loses a claim or was wounded.
// The commit order interleaves round-robin, so claims genuinely contend.
struct ConcurrentOutcome {
  ClusterId cluster_id = kNoCluster;
  uint32_t retries = 0;
};

class ConcurrentCloakingSession {
 public:
  // `registry` is the authoritative store; must outlive the session.
  ConcurrentCloakingSession(const graph::Wpg& graph, uint32_t k,
                            Registry* registry);

  // Runs all `hosts` "concurrently" (fair round-robin interleaving of
  // claim attempts) and returns each host's final cluster. Guarantees:
  // every user ends in at most one cluster; no deadlock (the oldest
  // request in any conflict always makes progress).
  util::Result<std::vector<ConcurrentOutcome>> RunAll(
      const std::vector<graph::VertexId>& hosts);

  const ClaimCoordinator& coordinator() const { return coordinator_; }

 private:
  const graph::Wpg& graph_;
  uint32_t k_;
  Registry* registry_;
  ClaimCoordinator coordinator_;
};

}  // namespace nela::cluster

#endif  // NELA_CLUSTER_CONCURRENCY_H_
