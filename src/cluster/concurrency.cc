#include "cluster/concurrency.h"

#include <algorithm>

#include "cluster/distributed_tconn.h"

namespace nela::cluster {

ClaimCoordinator::ClaimCoordinator(uint32_t user_count)
    : holder_(user_count, kNoTicket) {}

Ticket ClaimCoordinator::OpenRequest() {
  util::MutexLock lock(mu_);
  const Ticket ticket = next_ticket_++;
  if (wounded_.size() <= ticket) wounded_.resize(ticket + 1, 0);
  return ticket;
}

Ticket ClaimCoordinator::OpenRequestAt(Ticket ticket) {
  NELA_CHECK_NE(ticket, kNoTicket);
  util::MutexLock lock(mu_);
  if (next_ticket_ <= ticket) next_ticket_ = ticket + 1;
  if (wounded_.size() <= ticket) wounded_.resize(ticket + 1, 0);
  return ticket;
}

bool ClaimCoordinator::TryClaim(Ticket ticket,
                                const std::vector<graph::VertexId>& members) {
  NELA_CHECK_NE(ticket, kNoTicket);
  util::MutexLock lock(mu_);
  // Pass 1: inspect every contended member. An older holder anywhere means
  // the whole claim fails; younger holders will be wounded.
  std::vector<Ticket> to_wound;
  for (graph::VertexId v : members) {
    NELA_CHECK_LT(v, holder_.size());
    const Ticket holder = holder_[v];
    if (holder == kNoTicket || holder == ticket) continue;
    ++conflicts_;
    if (holder < ticket) return false;  // older wins; we retry
    to_wound.push_back(holder);
  }
  // Pass 2: wound every younger holder (revoke all their claims).
  std::sort(to_wound.begin(), to_wound.end());
  to_wound.erase(std::unique(to_wound.begin(), to_wound.end()),
                 to_wound.end());
  for (Ticket victim : to_wound) {
    ++wounds_;
    wounded_[victim] = 1;
    DropClaimsLocked(victim);
  }
  // Pass 3: take everything, listing each newly held user once.
  std::vector<graph::VertexId>* held = nullptr;
  for (graph::VertexId v : members) {
    if (holder_[v] == ticket) continue;
    if (held == nullptr) held = &claims_[ticket];
    holder_[v] = ticket;
    held->push_back(v);
  }
  return true;
}

void ClaimCoordinator::DropClaimsLocked(Ticket ticket) {
  const auto it = claims_.find(ticket);
  if (it == claims_.end()) return;
  for (graph::VertexId v : it->second) holder_[v] = kNoTicket;
  claims_.erase(it);
}

bool ClaimCoordinator::WasWounded(Ticket ticket) {
  NELA_CHECK_NE(ticket, kNoTicket);
  util::MutexLock lock(mu_);
  if (ticket >= wounded_.size() || !wounded_[ticket]) return false;
  wounded_[ticket] = 0;
  return true;
}

void ClaimCoordinator::Release(Ticket ticket) {
  NELA_CHECK_NE(ticket, kNoTicket);
  util::MutexLock lock(mu_);
  DropClaimsLocked(ticket);
}

Ticket ClaimCoordinator::HolderOf(graph::VertexId v) const {
  // Lock before the bounds check: holder_ never grows, but the read of
  // its size is guarded state like any other (pre-annotation code checked
  // it before taking the lock -- benign, yet formally racy).
  util::MutexLock lock(mu_);
  NELA_CHECK_LT(v, holder_.size());
  return holder_[v];
}

ConcurrentCloakingSession::ConcurrentCloakingSession(const graph::Wpg& graph,
                                                     uint32_t k,
                                                     Registry* registry)
    : graph_(graph), k_(k), registry_(registry),
      coordinator_(graph.vertex_count()) {
  NELA_CHECK(registry != nullptr);
  NELA_CHECK_EQ(registry->user_count(), graph.vertex_count());
}

util::Result<std::vector<ConcurrentOutcome>>
ConcurrentCloakingSession::RunAll(const std::vector<graph::VertexId>& hosts) {
  enum class State { kIdle, kClaimed, kDone };
  struct Pending {
    graph::VertexId host;
    Ticket ticket;
    ConcurrentOutcome outcome;
    State state = State::kIdle;
    // Speculative partition held while claimed.
    std::vector<ClusterInfo> new_clusters;
  };
  std::vector<Pending> pending;
  pending.reserve(hosts.size());
  for (graph::VertexId host : hosts) {
    if (host >= graph_.vertex_count()) {
      return util::InvalidArgumentError("host out of range");
    }
    pending.push_back(Pending{host, coordinator_.OpenRequest(), {},
                              State::kIdle, {}});
  }

  // Only proposes; commits go through registry_->Register below.
  DistributedTConnClusterer clusterer(graph_, k_, registry_);

  // Fair round-robin, one step per turn: an idle request computes its
  // candidate and claims it; a claimed request commits on its NEXT turn --
  // leaving a window in which contending requests genuinely wound each
  // other. Wound-wait guarantees the oldest contending request always
  // commits, so every full pass retires at least one request.
  uint32_t remaining = static_cast<uint32_t>(pending.size());
  // Generous safety bound: exceeding it would indicate a livelock bug.
  uint64_t turn_budget =
      32ull * (pending.size() + 1) * (pending.size() + 1) + 64;
  while (remaining > 0) {
    NELA_CHECK_GT(turn_budget--, 0u);
    for (Pending& request : pending) {
      if (request.state == State::kDone) continue;

      if (request.state == State::kClaimed) {
        if (coordinator_.WasWounded(request.ticket)) {
          // An older request revoked our claims: drop the candidate.
          request.new_clusters.clear();
          request.state = State::kIdle;
          ++request.outcome.retries;
          continue;
        }
        // Commit the speculative partition into the authoritative
        // registry (claims make overlapping commits impossible).
        for (const ClusterInfo& info : request.new_clusters) {
          auto committed = registry_->Register(info.members,
                                               info.connectivity, info.valid);
          if (!committed.ok()) return committed.status();
        }
        request.new_clusters.clear();
        request.outcome.cluster_id = registry_->ClusterOf(request.host);
        NELA_CHECK_NE(request.outcome.cluster_id, kNoCluster);
        coordinator_.Release(request.ticket);
        request.state = State::kDone;
        --remaining;
        continue;
      }

      // Idle: fast path first -- someone may have clustered this host.
      if (registry_->IsClustered(request.host)) {
        request.outcome.cluster_id = registry_->ClusterOf(request.host);
        coordinator_.Release(request.ticket);
        request.state = State::kDone;
        --remaining;
        continue;
      }

      // Speculative phase 1: propose over the current remaining WPG.
      auto proposal =
          clusterer.Propose(request.host, registry_->ActiveMask(), nullptr);
      if (!proposal.ok()) return proposal.status();

      std::vector<graph::VertexId> claim_set;
      for (const ClusterInfo& info : proposal.value().clusters) {
        claim_set.insert(claim_set.end(), info.members.begin(),
                         info.members.end());
      }
      if (!coordinator_.TryClaim(request.ticket, claim_set)) {
        ++request.outcome.retries;  // an older request holds users we need
        continue;
      }
      request.new_clusters = std::move(proposal.value().clusters);
      request.state = State::kClaimed;
    }
  }
  std::vector<ConcurrentOutcome> outcomes;
  outcomes.reserve(pending.size());
  for (const Pending& request : pending) outcomes.push_back(request.outcome);
  return outcomes;
}

}  // namespace nela::cluster
