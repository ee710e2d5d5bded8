#include "core/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

TEST(GridIndexTest, FindsSelf) {
  const StatePair state = test::make_static_1d({0.5});
  const GridIndex grid(state, state.abnormal(), 0.1);
  EXPECT_EQ(grid.within(0, 0.1), (std::vector<DeviceId>{0}));
}

TEST(GridIndexTest, RejectsNonPositiveCell) {
  const StatePair state = test::make_static_1d({0.5});
  EXPECT_THROW(GridIndex(state, state.abnormal(), 0.0), std::invalid_argument);
}

TEST(GridIndexTest, RadiusFiltersByJointDistance) {
  // Device 1 close at k, far at k-1: joint distance is large.
  const StatePair state = test::make_state_1d({{0.5, 0.5}, {0.9, 0.52}});
  const GridIndex grid(state, state.abnormal(), 0.1);
  EXPECT_EQ(grid.within(0, 0.1), (std::vector<DeviceId>{0}));
  EXPECT_EQ(grid.within(0, 0.4), (std::vector<DeviceId>{0, 1}));
}

TEST(GridIndexTest, OnlyIndexedMembersReturned) {
  const StatePair state =
      test::make_static_1d({0.50, 0.52, 0.54});
  const GridIndex grid(state, DeviceSet({0, 2}), 0.1);
  EXPECT_EQ(grid.within(0, 0.1), (std::vector<DeviceId>{0, 2}));
}

TEST(GridIndexTest, LargerRadiusThanCellWorks) {
  // 4r query on a 2r grid (the L_k(j) second hop).
  const StatePair state = test::make_static_1d({0.10, 0.25, 0.40, 0.70});
  const GridIndex grid(state, state.abnormal(), 0.1);
  EXPECT_EQ(grid.within(0, 0.2), (std::vector<DeviceId>{0, 1}));
  EXPECT_EQ(grid.within(0, 0.31), (std::vector<DeviceId>{0, 1, 2}));
}

TEST(GridIndexTest, BoundaryDistanceIncluded) {
  // Exactly representable doubles: distance is exactly the radius.
  const StatePair state = test::make_static_1d({0.25, 0.375});
  const GridIndex grid(state, state.abnormal(), 0.125);
  EXPECT_EQ(grid.within(0, 0.125), (std::vector<DeviceId>{0, 1}));
}

class GridRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridRandomSweep, MatchesLinearScan) {
  Rng rng(GetParam());
  const std::size_t n = 40;
  const std::size_t d = 1 + GetParam() % 3;
  std::vector<std::vector<double>> prev(n, std::vector<double>(d));
  std::vector<std::vector<double>> curr(n, std::vector<double>(d));
  for (auto& p : prev)
    for (auto& x : p) x = rng.uniform();
  for (auto& c : curr)
    for (auto& x : c) x = rng.uniform();
  const StatePair state = test::make_state(prev, curr);
  const double cell = 0.05 + 0.1 * rng.uniform();
  const GridIndex grid(state, state.abnormal(), cell);

  for (const double radius : {cell * 0.5, cell, cell * 2.0}) {
    for (DeviceId j = 0; j < n; j += 7) {
      std::vector<DeviceId> expected;
      for (DeviceId other = 0; other < n; ++other) {
        if (state.joint_distance(j, other) <= radius) expected.push_back(other);
      }
      EXPECT_EQ(grid.within(j, radius), expected)
          << "j=" << j << " radius=" << radius << " seed=" << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridRandomSweep,
                         ::testing::Range(std::uint64_t{0}, std::uint64_t{12}));

// ----- GridIndex::components (the motion plane's grid BFS) against an
// all-pairs union-find over exact joint distances.

using ComponentList = std::vector<std::vector<DeviceId>>;

ComponentList pairwise_components(const StatePair& state, const DeviceSet& members,
                                  double radius) {
  const std::vector<DeviceId> ids(members.begin(), members.end());
  std::vector<std::size_t> parent(ids.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (std::size_t a = 0; a < ids.size(); ++a) {
    for (std::size_t b = a + 1; b < ids.size(); ++b) {
      if (state.joint_distance(ids[a], ids[b]) <= radius) parent[find(a)] = find(b);
    }
  }
  ComponentList out;
  std::vector<std::size_t> slot(ids.size(), ids.size());
  for (std::size_t a = 0; a < ids.size(); ++a) {
    const std::size_t root = find(a);
    if (slot[root] == ids.size()) {
      slot[root] = out.size();
      out.emplace_back();
    }
    out[slot[root]].push_back(ids[a]);
  }
  return out;
}

/// Checks components() of a grid over `members` (cell side `cell`) against
/// the all-pairs reference, including the per-rank labels.
void expect_components_match(const StatePair& state, const DeviceSet& members,
                             double cell, double radius, const std::string& what) {
  const GridIndex grid(state, members, cell);
  const GridIndex::Components got = grid.components(radius);
  const ComponentList expected = pairwise_components(state, members, radius);
  ASSERT_EQ(got.count(), expected.size()) << what;
  ASSERT_EQ(got.of.size(), members.size()) << what;
  for (std::size_t c = 0; c < expected.size(); ++c) {
    const auto comp = got.component(c);
    EXPECT_EQ(std::vector<DeviceId>(comp.begin(), comp.end()), expected[c])
        << what << " component " << c;
  }
  for (std::size_t rank = 0; rank < members.size(); ++rank) {
    const auto comp = got.component(got.of[rank]);
    EXPECT_TRUE(std::binary_search(comp.begin(), comp.end(), members[rank]))
        << what << " rank " << rank;
  }
}

std::vector<double> random_point(Rng& rng, std::size_t d) {
  std::vector<double> x(d);
  for (double& v : x) v = rng.uniform();
  return x;
}

class GridComponentsSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(GridComponentsSweep, UniformPointsMatchPairwise) {
  const auto [d, seed] = GetParam();
  Rng rng(seed);
  const std::size_t n = 300;
  std::vector<std::vector<double>> prev(n);
  std::vector<std::vector<double>> curr(n);
  for (std::size_t j = 0; j < n; ++j) {
    prev[j] = random_point(rng, d);
    curr[j] = random_point(rng, d);
    // Half the fleet barely moves, so prev does not rule out every pair.
    if (j % 2 == 0) prev[j] = curr[j];
  }
  const StatePair state = test::make_state(prev, curr);
  for (const double radius : {0.02, 0.06, 0.15}) {
    expect_components_match(state, state.abnormal(), radius, radius,
                            "uniform r=" + std::to_string(radius));
  }
  // A strict subset indexed, and a cell other than the radius.
  std::vector<DeviceId> odd;
  for (DeviceId j = 1; j < n; j += 2) odd.push_back(j);
  expect_components_match(state, DeviceSet(odd), 0.04, 0.06, "odd members");
  expect_components_match(state, state.abnormal(), 0.13, 0.06, "cell > radius");
}

TEST_P(GridComponentsSweep, TightBlobsWiderThanOneCellMatchPairwise) {
  const auto [d, seed] = GetParam();
  Rng rng(seed + 100);
  const double radius = 0.02;
  std::vector<std::vector<double>> prev;
  std::vector<std::vector<double>> curr;
  for (int blob = 0; blob < 4; ++blob) {
    std::vector<double> centre = random_point(rng, d);
    for (double& v : centre) v = 0.15 + 0.7 * v;
    // Spread of ~3 cells: a blob spans several buckets and only chains
    // through its members.
    for (int k = 0; k < 120; ++k) {
      std::vector<double> x(d);
      for (std::size_t i = 0; i < d; ++i) {
        x[i] = std::clamp(centre[i] + rng.normal(0.0, 1.5 * radius), 0.0, 1.0);
      }
      prev.push_back(x);
      for (std::size_t i = 0; i < d; ++i) {
        x[i] = std::clamp(x[i] + rng.normal(0.0, 0.2 * radius), 0.0, 1.0);
      }
      curr.push_back(x);
    }
  }
  const StatePair state = test::make_state(prev, curr);
  expect_components_match(state, state.abnormal(), radius, radius, "blobs");
}

TEST_P(GridComponentsSweep, ChainsAcrossCellBoundariesMatchPairwise) {
  const auto [d, seed] = GetParam();
  Rng rng(seed + 200);
  const double radius = 0.05;
  std::vector<std::vector<double>> prev;
  std::vector<std::vector<double>> curr;
  // Diagonal chains stepping 0.9 radius per link (crossing a cell boundary
  // every link or two), one broken by a single 1.01-radius gap.
  for (int chain = 0; chain < 3; ++chain) {
    const double offset = 0.013 * chain + 0.1 * rng.uniform();
    double t = 0.0;
    for (int k = 0; k < 12; ++k) {
      t += (chain == 2 && k == 6) ? 1.01 * radius : 0.9 * radius;
      std::vector<double> x(d, offset + 0.3 * chain);
      x[0] = 0.05 + t;
      prev.push_back(x);
      curr.push_back(x);
    }
  }
  const StatePair state = test::make_state(prev, curr);
  expect_components_match(state, state.abnormal(), radius, radius, "chains");
  const GridIndex grid(state, state.abnormal(), radius);
  EXPECT_EQ(grid.components(radius).count(), 4u);  // chain 2 splits in two
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSeeds, GridComponentsSweep,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{3}),
                       ::testing::Range(std::uint64_t{0}, std::uint64_t{4})));

TEST(GridComponents, ExactRadiusJoinsAndOneUlpBeyondSplits) {
  // Same current position, prev apart by exactly the radius (exactly
  // representable) — or by one ulp more. Only prev separates them, so the
  // grid (built on curr) puts them in one cell and the joint test decides.
  const double radius = 0.125;
  const double beyond = std::nextafter(0.375, 1.0);
  const StatePair state = test::make_state(
      {{0.25, 0.5}, {0.375, 0.5}, {0.25, 0.1}, {beyond, 0.1}},
      {{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.1}, {0.5, 0.1}});
  const GridIndex grid(state, state.abnormal(), radius);
  const GridIndex::Components comps = grid.components(radius);
  ASSERT_EQ(comps.count(), 3u);
  EXPECT_EQ(std::vector<DeviceId>(comps.component(0).begin(), comps.component(0).end()),
            (std::vector<DeviceId>{0, 1}));
  EXPECT_EQ(std::vector<DeviceId>(comps.component(1).begin(), comps.component(1).end()),
            (std::vector<DeviceId>{2}));
  EXPECT_EQ(std::vector<DeviceId>(comps.component(2).begin(), comps.component(2).end()),
            (std::vector<DeviceId>{3}));
  expect_components_match(state, state.abnormal(), radius, radius, "boundary");
}

TEST(GridComponents, CoincidentPointsFormOneComponent) {
  // Ten devices on one spot, two more on the same current spot but far at
  // k-1, and one exactly on a cell corner.
  std::vector<std::vector<double>> prev(10, {0.4, 0.4, 0.4});
  std::vector<std::vector<double>> curr(10, {0.4, 0.4, 0.4});
  prev.push_back({0.9, 0.9, 0.9});
  curr.push_back({0.4, 0.4, 0.4});
  prev.push_back({0.9, 0.9, 0.9});
  curr.push_back({0.4, 0.4, 0.4});
  prev.push_back({0.5, 0.5, 0.5});
  curr.push_back({0.5, 0.5, 0.5});
  const StatePair state = test::make_state(prev, curr);
  const GridIndex grid(state, state.abnormal(), 0.05);
  const GridIndex::Components comps = grid.components(0.05);
  ASSERT_EQ(comps.count(), 3u);
  EXPECT_EQ(comps.component(0).size(), 10u);
  EXPECT_EQ(std::vector<DeviceId>(comps.component(1).begin(), comps.component(1).end()),
            (std::vector<DeviceId>{10, 11}));
  expect_components_match(state, state.abnormal(), 0.05, 0.05, "coincident");
}

TEST(GridComponents, EmptyIndexHasNoComponents) {
  const StatePair state = test::make_static_1d({0.5});
  const GridIndex grid(state, DeviceSet{}, 0.1);
  const GridIndex::Components comps = grid.components(0.1);
  EXPECT_EQ(comps.count(), 0u);
  EXPECT_TRUE(comps.members.empty());
}

}  // namespace
}  // namespace acn
