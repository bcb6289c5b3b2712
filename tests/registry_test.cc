#include <gtest/gtest.h>

#include "cluster/registry.h"

namespace nela::cluster {
namespace {

TEST(RegistryTest, StartsUnclustered) {
  Registry registry(4);
  EXPECT_EQ(registry.user_count(), 4u);
  EXPECT_EQ(registry.cluster_count(), 0u);
  EXPECT_EQ(registry.clustered_user_count(), 0u);
  for (graph::VertexId v = 0; v < 4; ++v) {
    EXPECT_FALSE(registry.IsClustered(v));
    EXPECT_EQ(registry.ClusterOf(v), kNoCluster);
    EXPECT_TRUE(registry.ActiveMask()[v]);
  }
}

TEST(RegistryTest, RegisterAssignsAllMembers) {
  Registry registry(5);
  auto id = registry.Register({3, 1}, 2.0, true);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(registry.cluster_count(), 1u);
  EXPECT_EQ(registry.clustered_user_count(), 2u);
  EXPECT_TRUE(registry.IsClustered(1));
  EXPECT_TRUE(registry.IsClustered(3));
  EXPECT_FALSE(registry.IsClustered(0));
  EXPECT_EQ(registry.ClusterOf(1), id.value());
  EXPECT_EQ(registry.ClusterOf(3), id.value());
  EXPECT_FALSE(registry.ActiveMask()[1]);
  // Members are stored sorted: reciprocity means one shared set.
  EXPECT_EQ(registry.info(id.value()).members,
            (std::vector<graph::VertexId>{1, 3}));
  EXPECT_DOUBLE_EQ(registry.info(id.value()).connectivity, 2.0);
  EXPECT_TRUE(registry.info(id.value()).valid);
}

TEST(RegistryTest, RejectsEmptyCluster) {
  Registry registry(3);
  EXPECT_FALSE(registry.Register({}, 0.0, true).ok());
}

TEST(RegistryTest, RejectsOutOfRangeMember) {
  Registry registry(3);
  EXPECT_FALSE(registry.Register({5}, 0.0, true).ok());
}

TEST(RegistryTest, RejectsDuplicateMember) {
  Registry registry(3);
  EXPECT_FALSE(registry.Register({1, 1}, 0.0, true).ok());
}

TEST(RegistryTest, ReciprocityForbidsReassignment) {
  Registry registry(4);
  ASSERT_TRUE(registry.Register({0, 1}, 1.0, true).ok());
  auto second = registry.Register({1, 2}, 1.0, true);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), util::StatusCode::kFailedPrecondition);
  // The failed registration must not have clustered vertex 2.
  EXPECT_FALSE(registry.IsClustered(2));
}

TEST(RegistryTest, RegionSetOnce) {
  Registry registry(2);
  auto id = registry.Register({0, 1}, 1.0, true);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(registry.info(id.value()).region.has_value());
  registry.SetRegion(id.value(), geo::Rect(0, 0, 1, 1));
  ASSERT_TRUE(registry.info(id.value()).region.has_value());
  EXPECT_EQ(*registry.info(id.value()).region, geo::Rect(0, 0, 1, 1));
}

TEST(RegistryTest, InvalidClusterIsRecorded) {
  Registry registry(2);
  auto id = registry.Register({0}, 0.0, false);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(registry.info(id.value()).valid);
}

TEST(RegistryTest, ActiveMaskIsACopyTakenWithTheVersion) {
  Registry registry(3);
  uint64_t version = 99;
  const std::vector<bool> before = registry.ActiveMask(&version);
  EXPECT_EQ(version, 0u);
  ASSERT_TRUE(registry.Register({2, 0}, 1.0, true).ok());
  // The copy does not follow later registrations; a fresh copy does, and
  // carries the bumped version.
  EXPECT_EQ(before, (std::vector<bool>{true, true, true}));
  EXPECT_EQ(registry.ActiveMask(&version),
            (std::vector<bool>{false, true, false}));
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(version, registry.version());
}

}  // namespace
}  // namespace nela::cluster
