// Shared test fixtures: the "small world" datasets and leak-assertion
// helpers that the engine, chaos, degradation, and mechanism tests all
// build their scenarios from. Hoisted here so every suite
// exercises the same worlds and the same no-coordinate-leak predicate.
//
// Test-only header; depends on gtest.

#ifndef NELA_TESTS_SCENARIO_FIXTURES_H_
#define NELA_TESTS_SCENARIO_FIXTURES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "geo/point.h"
#include "graph/wpg.h"
#include "graph/wpg_builder.h"
#include "net/network.h"
#include "util/check.h"
#include "util/rng.h"

namespace nela::fixtures {

struct SmallWorld {
  data::Dataset dataset;
  graph::Wpg graph;
};

// `users` points uniform in the unit square, WPG dense enough for k=4
// clusters at the defaults (the historical per-suite fixtures used
// delta=0.12 for 200 users and delta=0.1 for larger worlds; both are
// expressible here).
inline SmallWorld MakeWorld(uint64_t seed, uint32_t users = 200,
                            double delta = 0.12, uint32_t max_peers = 8) {
  util::Rng rng(seed);
  data::Dataset dataset = data::GenerateUniform(users, rng);
  graph::WpgBuildParams params;
  params.delta = delta;
  params.max_peers = max_peers;
  auto graph = graph::BuildWpg(dataset, params);
  NELA_CHECK(graph.ok());
  return SmallWorld{std::move(dataset), std::move(graph).value()};
}

inline core::BoundingParams SmallWorldBounding(double density = 200.0) {
  core::BoundingParams params;
  params.density = density;
  return params;
}

// Failure messages may name node ids and attempt counts, never positions.
// Every formatted coordinate contains a decimal point and the full
// std::to_string rendering of some member coordinate; assert both away.
inline void ExpectNoCoordinateLeak(const std::string& message,
                                   const data::Dataset& dataset) {
  EXPECT_FALSE(message.empty());
  EXPECT_EQ(message.find('.'), std::string::npos) << message;
  for (uint32_t i = 0; i < dataset.size(); ++i) {
    const geo::Point p = dataset.point(i);
    EXPECT_EQ(message.find(std::to_string(p.x)), std::string::npos) << message;
    EXPECT_EQ(message.find(std::to_string(p.y)), std::string::npos) << message;
  }
}

inline std::vector<geo::Point> FirstPoints(const data::Dataset& dataset,
                                           uint32_t n) {
  std::vector<geo::Point> points;
  points.reserve(n);
  for (uint32_t i = 0; i < n; ++i) points.push_back(dataset.point(i));
  return points;
}

inline std::vector<net::NodeId> Iota(uint32_t n) {
  std::vector<net::NodeId> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

}  // namespace nela::fixtures

#endif  // NELA_TESTS_SCENARIO_FIXTURES_H_
