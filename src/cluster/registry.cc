#include "cluster/registry.h"

#include <algorithm>

#include "util/hash.h"

namespace nela::cluster {

Registry::Registry(uint32_t user_count, bool allow_overlap)
    : allow_overlap_(allow_overlap), user_count_(user_count),
      cluster_of_(user_count, kNoCluster), active_(user_count, true) {}

util::Result<ClusterId> Registry::Register(
    std::vector<graph::VertexId> members, double connectivity, bool valid) {
  if (members.empty()) {
    return util::InvalidArgumentError("cluster must have members");
  }
  util::MutexLock lock(mu_);
  for (graph::VertexId v : members) {
    if (v >= cluster_of_.size()) {
      return util::InvalidArgumentError("member id out of range");
    }
    if (cluster_of_[v] != kNoCluster && !allow_overlap_) {
      return util::FailedPreconditionError(
          "user already clustered; reciprocity forbids reassignment");
    }
  }
  std::sort(members.begin(), members.end());
  for (size_t i = 1; i < members.size(); ++i) {
    if (members[i] == members[i - 1]) {
      return util::InvalidArgumentError("duplicate member");
    }
  }
  const ClusterId id = static_cast<ClusterId>(clusters_.size());
  for (graph::VertexId v : members) {
    if (cluster_of_[v] == kNoCluster) ++clustered_users_;
    cluster_of_[v] = id;
    active_[v] = false;
  }
  clusters_.push_back(
      ClusterInfo{std::move(members), connectivity, valid, std::nullopt});
  ++version_;
  return id;
}

void Registry::SetRegion(ClusterId id, const geo::Rect& region) {
  util::MutexLock lock(mu_);
  NELA_CHECK_LT(id, clusters_.size());
  NELA_CHECK(!clusters_[id].region.has_value());
  NELA_CHECK(!region.empty());
  clusters_[id].region = region;
}

uint64_t Registry::Digest() const {
  util::MutexLock lock(mu_);
  uint64_t digest = util::kFnv64Offset;
  for (const ClusterInfo& info : clusters_) {
    util::FnvMix64(&digest, info.members.size());
    for (graph::VertexId member : info.members) {
      util::FnvMix64(&digest, member);
    }
    util::FnvMix64(&digest, info.valid ? 1 : 0);
    if (info.region.has_value()) {
      util::FnvMix64(&digest, util::DoubleBits(info.region->min_x()));
      util::FnvMix64(&digest, util::DoubleBits(info.region->min_y()));
      util::FnvMix64(&digest, util::DoubleBits(info.region->max_x()));
      util::FnvMix64(&digest, util::DoubleBits(info.region->max_y()));
    } else {
      // Sentinel for "no region yet"; kept stable because recorded digests
      // (tests, recovery assertions) depend on it.
      util::FnvMix64(&digest, 0xe0e0e0e0ull);
    }
  }
  return digest;
}

std::vector<bool> Registry::ActiveMask(uint64_t* version_out) const {
  util::MutexLock lock(mu_);
  if (version_out != nullptr) *version_out = version_;
  return active_;
}

std::unique_ptr<Registry> Registry::Snapshot(uint64_t* version_out) const {
  util::MutexLock lock(mu_);
  auto copy = std::make_unique<Registry>(user_count_, allow_overlap_);
  // Bypass Register: replay the internal state directly so the copy is an
  // exact membership image (including invalid clusters) at this version.
  // The copy is private to this thread, but its members are still guarded
  // state to the analysis -- take its (uncontended) lock for the writes.
  util::MutexLock copy_lock(copy->mu_);
  copy->cluster_of_ = cluster_of_;
  copy->active_ = active_;
  copy->clustered_users_ = clustered_users_;
  copy->version_ = version_;
  for (const ClusterInfo& info : clusters_) {
    copy->clusters_.push_back(
        ClusterInfo{info.members, info.connectivity, info.valid, std::nullopt});
  }
  if (version_out != nullptr) *version_out = version_;
  return copy;
}

}  // namespace nela::cluster
