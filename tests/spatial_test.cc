#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "geo/point.h"
#include "spatial/grid_index.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace nela::spatial {
namespace {

// Brute-force oracle for radius queries.
std::vector<Neighbor> BruteRadius(const std::vector<geo::Point>& points,
                                  const geo::Point& query, double radius,
                                  uint32_t self) {
  std::vector<Neighbor> out;
  for (uint32_t i = 0; i < points.size(); ++i) {
    if (i == self) continue;
    const double d2 = geo::SquaredDistance(query, points[i]);
    if (d2 <= radius * radius) out.push_back(Neighbor{i, d2});
  }
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.squared_distance < b.squared_distance ||
           (a.squared_distance == b.squared_distance && a.id < b.id);
  });
  return out;
}

TEST(GridIndexTest, RadiusQuerySimple) {
  const std::vector<geo::Point> points = {
      {0.5, 0.5}, {0.52, 0.5}, {0.5, 0.53}, {0.9, 0.9}};
  const GridIndex index(points, 0.05);
  const std::vector<Neighbor> near =
      index.RadiusQuery(points[0], 0.05, /*self=*/0);
  ASSERT_EQ(near.size(), 2u);
  EXPECT_EQ(near[0].id, 1u);  // 0.02 away
  EXPECT_EQ(near[1].id, 2u);  // 0.03 away
}

TEST(GridIndexTest, SelfIsExcluded) {
  const std::vector<geo::Point> points = {{0.5, 0.5}, {0.5, 0.5}};
  const GridIndex index(points, 0.1);
  const std::vector<Neighbor> near = index.RadiusQuery(points[0], 0.1, 0);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0].id, 1u);
}

TEST(GridIndexTest, ZeroRadiusFindsCoincidentPoints) {
  const std::vector<geo::Point> points = {{0.5, 0.5}, {0.5, 0.5}, {0.6, 0.5}};
  const GridIndex index(points, 0.1);
  const std::vector<Neighbor> near = index.RadiusQuery(points[0], 0.0, 0);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0].id, 1u);
}

TEST(GridIndexTest, NearestNeighborsOrdering) {
  const std::vector<geo::Point> points = {
      {0.5, 0.5}, {0.6, 0.5}, {0.55, 0.5}, {0.9, 0.9}, {0.51, 0.5}};
  const GridIndex index(points, 0.02);
  const std::vector<Neighbor> nn = index.NearestNeighbors(points[0], 3, 0);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_EQ(nn[0].id, 4u);
  EXPECT_EQ(nn[1].id, 2u);
  EXPECT_EQ(nn[2].id, 1u);
}

TEST(GridIndexTest, NearestNeighborsWhenFewerPointsExist) {
  const std::vector<geo::Point> points = {{0.1, 0.1}, {0.9, 0.9}};
  const GridIndex index(points, 0.1);
  const std::vector<Neighbor> nn = index.NearestNeighbors(points[0], 10, 0);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 1u);
}

TEST(GridIndexTest, RangeQueryInclusiveBorders) {
  const std::vector<geo::Point> points = {
      {0.0, 0.0}, {0.5, 0.5}, {1.0, 1.0}, {0.5, 1.01}};
  const GridIndex index(points, 0.25);
  std::vector<uint32_t> hits = index.RangeQuery(geo::Rect(0.0, 0.0, 1.0, 1.0));
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_TRUE(index.RangeQuery(geo::Rect()).empty());
}

// Property sweep: the grid index must agree with brute force for every
// combination of dataset size and cell size. `count` is 64-bit so the struct
// has no padding: gtest names each case after the struct's bytes, and
// uninitialised padding would make the test names differ from run to run.
struct GridParam {
  uint64_t count;
  double cell_size;
  double radius;
};

class GridIndexPropertyTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(GridIndexPropertyTest, RadiusAgreesWithBruteForce) {
  const GridParam param = GetParam();
  const auto count = static_cast<uint32_t>(param.count);
  util::Rng rng(1234 + count);
  const data::Dataset dataset = data::GenerateUniform(count, rng);
  const GridIndex index(dataset.points(), param.cell_size);
  for (uint32_t q = 0; q < std::min<uint32_t>(count, 25); ++q) {
    const auto expected =
        BruteRadius(dataset.points(), dataset.point(q), param.radius, q);
    const auto actual = index.RadiusQuery(dataset.point(q), param.radius, q);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id);
      EXPECT_DOUBLE_EQ(actual[i].squared_distance,
                       expected[i].squared_distance);
    }
  }
}

TEST_P(GridIndexPropertyTest, KnnAgreesWithBruteForce) {
  const GridParam param = GetParam();
  const auto count = static_cast<uint32_t>(param.count);
  util::Rng rng(99 + count);
  const data::Dataset dataset = data::GenerateUniform(count, rng);
  const GridIndex index(dataset.points(), param.cell_size);
  const uint32_t kCount = 5;
  for (uint32_t q = 0; q < std::min<uint32_t>(count, 10); ++q) {
    auto all = BruteRadius(dataset.points(), dataset.point(q), 2.0, q);
    const auto actual = index.NearestNeighbors(dataset.point(q), kCount, q);
    const size_t expected_size =
        std::min<size_t>(kCount, dataset.size() - 1);
    ASSERT_EQ(actual.size(), expected_size);
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_DOUBLE_EQ(actual[i].squared_distance, all[i].squared_distance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridIndexPropertyTest,
    ::testing::Values(GridParam{1, 0.1, 0.2}, GridParam{10, 0.01, 0.05},
                      GridParam{100, 0.05, 0.1}, GridParam{500, 0.002, 0.01},
                      GridParam{1000, 0.5, 0.3}, GridParam{2000, 0.03, 0.02}));

TEST(GridIndexTest, EqualDistancesOrderByAscendingId) {
  // Four points at exactly the same distance from the query: the tie group
  // must come back ordered by id, and a kNN cut landing inside the group
  // must keep the lowest ids -- never an arbitrary (e.g. cell-traversal)
  // subset.
  const std::vector<geo::Point> points = {
      {0.5, 0.5},                           // query (self)
      {0.6, 0.5}, {0.5, 0.6}, {0.4, 0.5}, {0.5, 0.4},  // tie group, d=0.1
      {0.9, 0.9}};
  const GridIndex index(points, 0.07);
  const auto near = index.RadiusQuery(points[0], 0.15, 0);
  ASSERT_EQ(near.size(), 4u);
  for (size_t i = 0; i < near.size(); ++i) {
    EXPECT_EQ(near[i].id, static_cast<uint32_t>(i + 1));
  }
  const auto nn = index.NearestNeighbors(points[0], 2, 0);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].id, 1u);
  EXPECT_EQ(nn[1].id, 2u);
}

TEST(GridIndexTest, KnnDeterministicUnderInsertionOrder) {
  // Seeded property: points snapped to a coarse lattice (forcing plenty of
  // exact distance ties), indexed twice -- once as generated and once under
  // a random permutation. The answers must describe the same geometry: a
  // radius query returns the same point set, kNN returns the same distance
  // profile, and within each index ties are ordered by ascending id.
  util::PropSpec spec;
  spec.name = "spatial_test";
  spec.base_seed = 0x9d1dull;
  spec.iterations = 20;  // CI elevates via NELA_PROPTEST_ITERS
  spec.min_size = 8;
  spec.max_size = 64;

  auto failure = util::RunProperty(
      spec, [](util::Rng& rng, uint32_t size) -> std::optional<std::string> {
        const uint32_t n = size;
        std::vector<geo::Point> points(n);
        for (geo::Point& p : points) {
          // 8x8 lattice: with n up to 64 points, exact ties are common.
          p.x = static_cast<double>(rng.NextUint64(8)) / 8.0;
          p.y = static_cast<double>(rng.NextUint64(8)) / 8.0;
        }
        std::vector<uint32_t> perm(n);
        for (uint32_t i = 0; i < n; ++i) perm[i] = i;
        rng.Shuffle(perm);
        std::vector<geo::Point> shuffled(n);
        for (uint32_t i = 0; i < n; ++i) shuffled[i] = points[perm[i]];

        const GridIndex original(points, 0.1);
        const GridIndex permuted(shuffled, 0.1);
        const uint32_t kCount = 1 + static_cast<uint32_t>(rng.NextUint64(6));
        for (uint32_t trial = 0; trial < 4; ++trial) {
          const geo::Point query{rng.NextDouble(), rng.NextDouble()};
          const uint32_t no_self = n;  // out-of-range id excludes nothing

          // Radius queries must return the same point set...
          const auto a = original.RadiusQuery(query, 0.3, no_self);
          const auto b = permuted.RadiusQuery(query, 0.3, no_self);
          if (a.size() != b.size()) {
            return "radius result sizes differ: " + std::to_string(a.size()) +
                   " vs " + std::to_string(b.size());
          }
          for (size_t i = 0; i < a.size(); ++i) {
            // ...with identical distance profiles (ties make per-rank point
            // identity id-dependent, but the distances are geometry only)...
            if (a[i].squared_distance != b[i].squared_distance) {
              return "distance profiles diverge at rank " + std::to_string(i);
            }
            // ...and within each index, ties ordered by ascending id.
            if (i > 0 &&
                a[i].squared_distance == a[i - 1].squared_distance &&
                a[i].id <= a[i - 1].id) {
              return "tie not ordered by id at rank " + std::to_string(i);
            }
          }

          // kNN: same distance profile regardless of insertion order.
          const auto ka = original.NearestNeighbors(query, kCount, no_self);
          const auto kb = permuted.NearestNeighbors(query, kCount, no_self);
          if (ka.size() != kb.size()) {
            return std::string("kNN result sizes differ");
          }
          for (size_t i = 0; i < ka.size(); ++i) {
            if (ka[i].squared_distance != kb[i].squared_distance) {
              return "kNN distance profiles diverge at rank " +
                     std::to_string(i);
            }
          }
        }
        return std::nullopt;
      });
  ASSERT_FALSE(failure.has_value()) << failure->message << "\n"
                                    << failure->repro;
}

TEST(GridIndexTest, HandlesPointsOutsideUnitSquare) {
  const std::vector<geo::Point> points = {{-0.5, -0.5}, {1.5, 1.5}, {0.5, 0.5}};
  const GridIndex index(points, 0.1);
  const auto near = index.RadiusQuery(points[0], 3.0, 0);
  EXPECT_EQ(near.size(), 2u);
}

TEST(GridIndexTest, RadiusQueryIntoAppendsAndMatchesRadiusQuery) {
  util::Rng rng(321);
  const data::Dataset dataset = data::GenerateUniform(400, rng);
  const GridIndex index(dataset.points(), 0.05);
  GridIndex::QueryScratch scratch;
  std::vector<uint32_t> out;
  std::vector<uint32_t> counts;
  for (uint32_t q = 0; q < 40; ++q) {
    counts.push_back(index.RadiusQueryInto(dataset.point(q), 0.08, q,
                                           &scratch, &out));
  }
  // Append semantics: `out` accumulates all queries back to back...
  uint64_t total = 0;
  for (const uint32_t c : counts) total += c;
  ASSERT_EQ(out.size(), total);
  // ...and each packed slice equals the allocating query's id sequence.
  size_t cursor = 0;
  for (uint32_t q = 0; q < 40; ++q) {
    const auto expected = index.RadiusQuery(dataset.point(q), 0.08, q);
    ASSERT_EQ(counts[q], expected.size()) << "query " << q;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(out[cursor + i], expected[i].id) << "query " << q;
    }
    cursor += counts[q];
  }
}

TEST(GridIndexTest, NearestNeighborsFromDenseHomeCell) {
  // All requested neighbors live in the query's own cell, so the
  // occupancy-seeded search must still certify against the surrounding
  // ring (a point in an adjacent cell can be closer than a same-cell one).
  std::vector<geo::Point> points;
  for (uint32_t i = 0; i < 50; ++i) {
    points.push_back({0.55 + 1e-4 * i, 0.55});
  }
  points.push_back({0.599, 0.55});   // same cell, far side
  points.push_back({0.601, 0.55});   // adjacent cell, nearer than many
  const GridIndex index(points, 0.1);
  const auto nn = index.NearestNeighbors({0.598, 0.55}, 3,
                                       static_cast<uint32_t>(points.size()));
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_EQ(nn[0].id, 50u);  // 0.599: distance 0.001
  EXPECT_EQ(nn[1].id, 51u);  // 0.601: distance 0.003 — crosses the cell edge
}

TEST(GridIndexTest, NearestNeighborsQueryOutsideGrid) {
  const std::vector<geo::Point> points = {
      {0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}, {0.8, 0.8}};
  const GridIndex index(points, 0.05);
  // Query far outside the indexed extent: home-cell occupancy is zero and
  // the ring expansion must still find the true nearest points.
  const auto nn = index.NearestNeighbors({-2.0, -2.0}, 2,
                                       static_cast<uint32_t>(points.size()));
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].id, 0u);
  EXPECT_EQ(nn[1].id, 1u);
}

TEST(GridIndexTest, NearestNeighborsCountExceedsDataset) {
  util::Rng rng(555);
  const data::Dataset dataset = data::GenerateUniform(20, rng);
  const GridIndex index(dataset.points(), 0.25);
  const auto nn = index.NearestNeighbors(dataset.point(0), 100, 0);
  EXPECT_EQ(nn.size(), 19u);  // everyone but self
  for (size_t i = 1; i < nn.size(); ++i) {
    EXPECT_LE(nn[i - 1].squared_distance, nn[i].squared_distance);
  }
}

}  // namespace
}  // namespace nela::spatial
