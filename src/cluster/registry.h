// Cluster registry: the authoritative record of which users are clustered
// together and which cloaked region each cluster uses.
//
// Location k-anonymity requires the *reciprocity property* (§IV): every user
// of a cluster maps to the same cluster. The registry enforces it by
// construction -- a user belongs to at most one cluster, membership is
// immutable once registered, and the region is stored per cluster, so
// S(v) = S(u) for all members.

#ifndef NELA_CLUSTER_REGISTRY_H_
#define NELA_CLUSTER_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "geo/rect.h"
#include "graph/wpg.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nela::cluster {

using ClusterId = uint32_t;
inline constexpr ClusterId kNoCluster = 0xffffffffu;

struct ClusterInfo {
  std::vector<graph::VertexId> members;  // sorted ascending
  // Smallest t for which the members form one t-connectivity class (0 for
  // singletons; the MEW objective the algorithms minimize).
  double connectivity = 0.0;
  // False when the cluster could not reach size k (host's whole remaining
  // component was smaller) -- anonymity is degraded and callers must know.
  bool valid = true;
  // The shared cloaked region, set after phase 2 runs once for the cluster.
  std::optional<geo::Rect> region;
};

// Thread safety: mutations (Register, SetRegion) and every read of mutable
// state are serialized on an internal mutex, so concurrent requests (the
// service driver's workers) may share a registry. Clusters live in a deque,
// which keeps info() references stable across later Register calls --
// membership is immutable once registered, so reading a committed cluster's
// members never races (the region field is published under the mutex and
// must be read through `info(id).region` only after a reuse decision made
// under external coordination, e.g. the service driver's commit turnstile).
// Speculative concurrent runs read the remaining-WPG mask through
// ActiveMask(), a copy taken under the lock together with the version.
class Registry {
 public:
  // `allow_overlap` relaxes the uniqueness invariant for baseline studies:
  // a user may then appear in several clusters (ClusterOf reports the most
  // recent). The paper's kNN experiment needs this -- its requests always
  // form a fresh k-cluster, so a previously consumed requester ends up in
  // two clusters, which is exactly the reciprocity violation the paper
  // criticizes. Production cloaking must use the default (strict) mode.
  explicit Registry(uint32_t user_count, bool allow_overlap = false);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Immutable after construction, so readable without the lock. (Before
  // the capability annotations this read cluster_of_.size() unlocked --
  // benign on every implementation we ship on, but formally a race the
  // analysis rejects; the dedicated const member makes the no-lock read
  // provably safe. See DESIGN.md, "Compile-time adversary".)
  uint32_t user_count() const { return user_count_; }
  uint32_t cluster_count() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return static_cast<uint32_t>(clusters_.size());
  }
  uint32_t clustered_user_count() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return clustered_users_;
  }

  bool IsClustered(graph::VertexId v) const {
    return ClusterOf(v) != kNoCluster;
  }

  // kNoCluster when v is not yet clustered.
  ClusterId ClusterOf(graph::VertexId v) const EXCLUDES(mu_) {
    // Bounds check against the immutable count: the pre-annotation code
    // read cluster_of_.size() here before taking the lock.
    NELA_CHECK_LT(v, user_count_);
    util::MutexLock lock(mu_);
    return cluster_of_[v];
  }

  const ClusterInfo& info(ClusterId id) const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    NELA_CHECK_LT(id, clusters_.size());
    return clusters_[id];
  }

  // Race-free by-value read of a cluster's region, for readers that cannot
  // rely on external coordination against a concurrent SetRegion.
  std::optional<geo::Rect> RegionOf(ClusterId id) const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    NELA_CHECK_LT(id, clusters_.size());
    return clusters_[id].region;
  }

  // Registers a new cluster. Fails when `members` is empty or any member is
  // already clustered (that would break reciprocity).
  [[nodiscard]] util::Result<ClusterId> Register(
      std::vector<graph::VertexId> members, double connectivity, bool valid)
      EXCLUDES(mu_);

  // Stores the cloaked region computed by phase 2. May be set exactly once.
  void SetRegion(ClusterId id, const geo::Rect& region) EXCLUDES(mu_);

  // A copy of the "remaining WPG" mask the distributed algorithms operate
  // on: bit v is true while v is unclustered. Taken under the lock,
  // atomically with the membership version written to `version_out`, so a
  // speculation can later tell whether its mask is still current.
  std::vector<bool> ActiveMask(uint64_t* version_out = nullptr) const
      EXCLUDES(mu_);

  // Membership version: bumped by every Register (not by SetRegion).
  // Speculative executions validate their ActiveMask() copy against it
  // before committing -- an unchanged version proves the membership state
  // they computed from is still the authoritative one.
  uint64_t version() const EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return version_;
  }

  // Deep-copies the membership state (members, connectivity, validity --
  // regions are not copied) into a fresh registry, atomically with the
  // returned version. O(population + clustered users), so no request path
  // calls it: speculation reads ActiveMask() instead. Only bench_e2e calls
  // it, to time the copy as a per-layer metric.
  std::unique_ptr<Registry> Snapshot(uint64_t* version_out = nullptr) const
      EXCLUDES(mu_);

  // Order- and bit-exact FNV-1a fingerprint of the full registry state
  // (per cluster: member count, members, validity, then the region's four
  // coordinate bit patterns or a fixed no-region sentinel). Two registries
  // with equal digests went through the same committed history -- this is
  // the equality the determinism tests and crash-recovery replay assert.
  // Taken atomically under the registry mutex.
  uint64_t Digest() const EXCLUDES(mu_);

  // Names the registry lock so other classes can order their own locks
  // against it (durability::ShardedDurableRegistry declares ACQUIRED_BEFORE
  // relations through this accessor).
  util::Mutex& mu() const RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  bool allow_overlap_;
  const uint32_t user_count_;
  mutable util::Mutex mu_;
  std::vector<ClusterId> cluster_of_ GUARDED_BY(mu_);
  std::vector<bool> active_ GUARDED_BY(mu_);
  std::deque<ClusterInfo> clusters_ GUARDED_BY(mu_);
  uint32_t clustered_users_ GUARDED_BY(mu_) = 0;
  uint64_t version_ GUARDED_BY(mu_) = 0;
};

}  // namespace nela::cluster

#endif  // NELA_CLUSTER_REGISTRY_H_
