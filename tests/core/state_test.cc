#include "core/state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

TEST(SnapshotTest, ValidatesUnitBox) {
  EXPECT_THROW(Snapshot({Point{1.2}}), std::invalid_argument);
  EXPECT_THROW(Snapshot({Point{-0.1, 0.5}}), std::invalid_argument);
  EXPECT_NO_THROW(Snapshot({Point{0.0}, Point{1.0}}));
}

TEST(SnapshotTest, ValidatesConsistentDimensions) {
  EXPECT_THROW(Snapshot({Point{0.1}, Point{0.1, 0.2}}), std::invalid_argument);
}

TEST(SnapshotTest, RejectsEmpty) {
  EXPECT_THROW(Snapshot({}), std::invalid_argument);
}

TEST(StatePairTest, ValidatesMatchingShapes) {
  Snapshot one({Point{0.1}});
  Snapshot two({Point{0.1}, Point{0.2}});
  EXPECT_THROW(StatePair(one, two, DeviceSet{}), std::invalid_argument);
}

TEST(StatePairTest, ValidatesAbnormalRange) {
  Snapshot s({Point{0.1}, Point{0.2}});
  EXPECT_THROW(StatePair(s, s, DeviceSet({5})), std::invalid_argument);
  EXPECT_NO_THROW(StatePair(s, s, DeviceSet({1})));
}

TEST(StatePairTest, JointPositionsConcatenatePrevAndCurr) {
  const StatePair state = test::make_state_1d({{0.1, 0.8}, {0.2, 0.9}});
  EXPECT_EQ(state.joint(0), (Point{0.1, 0.8}));
  EXPECT_EQ(state.joint(1), (Point{0.2, 0.9}));
  EXPECT_EQ(state.joint_dim(), 2u);
}

TEST(StatePairTest, JointDistanceIsMaxOverInstants) {
  // Devices close at k-1 (0.02 apart) but far at k (0.5 apart).
  const StatePair state = test::make_state_1d({{0.10, 0.2}, {0.12, 0.7}});
  EXPECT_NEAR(state.joint_distance(0, 1), 0.5, 1e-12);
}

TEST(StatePairTest, AbnormalMembership) {
  const StatePair state =
      test::make_state_1d({{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}}, DeviceSet({0, 2}));
  EXPECT_TRUE(state.is_abnormal(0));
  EXPECT_FALSE(state.is_abnormal(1));
  EXPECT_TRUE(state.is_abnormal(2));
  EXPECT_EQ(state.abnormal(), DeviceSet({0, 2}));
}

TEST(StatePairTest, MultiDimensionalJointDistance) {
  const StatePair state = test::make_state({{0.1, 0.2}, {0.15, 0.6}},
                                           {{0.5, 0.5}, {0.55, 0.52}});
  // prev distance = max(.05, .4) = .4; curr distance = max(.05, .02) = .05.
  EXPECT_NEAR(state.joint_distance(0, 1), 0.4, 1e-12);
}

// --- column layout -------------------------------------------------------

std::vector<Point> points_of(const std::vector<double>& rows, std::size_t d) {
  std::vector<Point> points;
  for (std::size_t i = 0; i < rows.size(); i += d) {
    points.emplace_back(std::span<const double>(rows.data() + i, d));
  }
  return points;
}

/// Every observable of the two pairs is identical, bit for bit.
void expect_same_state(const StatePair& a, const StatePair& b,
                       const std::string& where) {
  ASSERT_EQ(a.n(), b.n()) << where;
  ASSERT_EQ(a.dim(), b.dim()) << where;
  EXPECT_EQ(a.abnormal(), b.abnormal()) << where;
  EXPECT_EQ(std::vector<DeviceId>(a.moved().begin(), a.moved().end()),
            std::vector<DeviceId>(b.moved().begin(), b.moved().end()))
      << where;
  for (DeviceId j = 0; j < a.n(); ++j) {
    for (std::size_t t = 0; t < a.joint_dim(); ++t) {
      const double x = a.joint_col(t)[j];
      const double y = b.joint_col(t)[j];
      ASSERT_TRUE(x == y && std::signbit(x) == std::signbit(y))
          << where << " joint_col " << t << " device " << j;
      ASSERT_EQ(a.qcol(t)[j], b.qcol(t)[j]) << where << " qcol " << t << " device " << j;
    }
    ASSERT_EQ(a.prev_pos(j), b.prev_pos(j)) << where << " device " << j;
    ASSERT_EQ(a.curr_pos(j), b.curr_pos(j)) << where << " device " << j;
  }
}

/// The pair holds exactly (prev_rows, curr_rows): the built Points, the
/// joint columns, their quantized mirror and the moved list all agree with
/// the rows.
void expect_holds(const StatePair& state, const std::vector<double>& prev_rows,
                  const std::vector<double>& curr_rows, const std::string& where) {
  const std::size_t d = state.dim();
  std::vector<DeviceId> moved;
  for (DeviceId j = 0; j < state.n(); ++j) {
    const Point prev(std::span<const double>(prev_rows.data() + j * d, d));
    const Point curr(std::span<const double>(curr_rows.data() + j * d, d));
    ASSERT_EQ(state.prev_pos(j), prev) << where << " device " << j;
    ASSERT_EQ(state.curr_pos(j), curr) << where << " device " << j;
    ASSERT_EQ(state.joint(j), Point::concat(prev, curr)) << where << " device " << j;
    for (std::size_t t = 0; t < state.joint_dim(); ++t) {
      ASSERT_EQ(state.qcol(t)[j], kernels::quantize(state.joint_col(t)[j]))
          << where << " qcol " << t << " device " << j;
    }
    if (!(prev == curr)) moved.push_back(j);
  }
  EXPECT_EQ(std::vector<DeviceId>(state.moved().begin(), state.moved().end()), moved)
      << where;
  EXPECT_EQ(state.prev().positions(), points_of(prev_rows, d)) << where;
  EXPECT_EQ(state.curr().positions(), points_of(curr_rows, d)) << where;
}

DeviceSet random_abnormal(Rng& rng, std::size_t n) {
  std::vector<DeviceId> ids;
  for (DeviceId j = 0; j < n; ++j) {
    if (rng.bernoulli(0.1)) ids.push_back(j);
  }
  return DeviceSet(std::move(ids));
}

TEST(StatePairColumnsTest, ColumnConstructorMatchesSnapshotConstructor) {
  Rng rng(16);
  for (const std::size_t d : {1u, 2u, 3u}) {
    const std::size_t n = 64;
    std::vector<double> prev(n * d);
    std::vector<double> curr(n * d);
    for (std::size_t i = 0; i < prev.size(); ++i) {
      prev[i] = rng.uniform();
      // Half the devices keep their position; the rest move.
      curr[i] = (i / d) % 2 == 0 ? prev[i] : rng.uniform();
    }
    const DeviceSet abnormal = random_abnormal(rng, n);
    const StatePair columns(d, prev, curr, abnormal);
    const StatePair snapshots(Snapshot(points_of(prev, d)), Snapshot(points_of(curr, d)),
                              abnormal);
    const std::string where = "d=" + std::to_string(d);
    expect_same_state(columns, snapshots, where);
    expect_holds(columns, prev, curr, where);
  }
}

TEST(StatePairColumnsTest, ColumnConstructorRejectsMalformedRows) {
  const std::vector<double> rows = {0.1, 0.2, 0.3, 0.4};
  const std::vector<double> outside = {0.1, 0.2, 1.5, 0.4};
  const std::vector<double> ragged = {0.1, 0.2, 0.3};
  EXPECT_THROW(StatePair(2, rows, outside, DeviceSet{}), std::invalid_argument);
  EXPECT_THROW(StatePair(2, ragged, ragged, DeviceSet{}), std::invalid_argument);
  EXPECT_THROW(StatePair(2, rows, std::vector<double>{0.1, 0.2}, DeviceSet{}),
               std::invalid_argument);
  EXPECT_THROW(StatePair(0, rows, rows, DeviceSet{}), std::invalid_argument);
  EXPECT_THROW(StatePair(9, rows, rows, DeviceSet{}), std::invalid_argument);
  EXPECT_THROW(StatePair(2, std::vector<double>{}, std::vector<double>{}, DeviceSet{}),
               std::invalid_argument);
  EXPECT_THROW(StatePair(2, rows, rows, DeviceSet({2})), std::invalid_argument);
  EXPECT_NO_THROW(StatePair(2, rows, rows, DeviceSet({1})));
}

// roll() fed a candidate list (real moves, no-op candidates, -0.0 over 0.0)
// and advance() fed the full next snapshot must stay identical, and both
// must hold exactly the rows the stream went through.
TEST(StatePairColumnsTest, RollMatchesAdvanceOverRandomUpdates) {
  Rng rng(1616);
  for (const std::size_t d : {1u, 2u, 3u}) {
    const std::size_t n = 50;
    std::vector<double> prev(n * d);
    for (double& x : prev) x = rng.uniform();
    // Device 0 sits at the origin so -0.0 candidates have a 0.0 to hit.
    for (std::size_t t = 0; t < d; ++t) prev[t] = 0.0;
    std::vector<double> curr = prev;
    StatePair rolled(d, prev, curr, DeviceSet{});
    StatePair advanced(Snapshot(points_of(prev, d)), Snapshot(points_of(curr, d)),
                       DeviceSet{});
    for (int round = 0; round < 40; ++round) {
      const std::string where = "d=" + std::to_string(d) + " round " + std::to_string(round);
      std::vector<double> next = curr;
      PositionUpdate update;
      for (DeviceId j = 0; j < n; ++j) {
        const double draw = rng.uniform();
        if (j == 0) {
          // Device 0 stays at the origin; every other round it is offered
          // -0.0 over its 0.0 — a candidate, but no move.
          if (round % 2 == 0) continue;
          for (std::size_t t = 0; t < d; ++t) next[t] = -0.0;
        } else if (draw < 0.3) {
          for (std::size_t t = 0; t < d; ++t) next[j * d + t] = rng.uniform();
          if (draw < 0.05) next[j * d] = curr[j * d];  // moves in the other dims only
        } else if (draw < 0.5) {
          // No-op candidate: listed with its current coordinates.
        } else {
          continue;
        }
        update.ids.push_back(j);
        update.coords.insert(update.coords.end(), next.begin() + j * d,
                             next.begin() + (j + 1) * d);
      }
      const DeviceSet abnormal = random_abnormal(rng, n);
      rolled.roll(update, abnormal);
      advanced.advance(Snapshot(points_of(next, d)), abnormal);
      expect_same_state(rolled, advanced, where);
      expect_holds(rolled, curr, next, where);
      for (std::size_t t = 0; t < d; ++t) {
        // -0.0 == 0.0 by value: the stored coordinate stays +0.0.
        EXPECT_FALSE(std::signbit(rolled.joint_col(d + t)[0])) << where;
        next[t] = 0.0;
      }
      curr = next;
    }
  }
}

TEST(StatePairColumnsTest, RejectedRollLeavesStateUnchanged) {
  Rng rng(61);
  const std::size_t d = 2;
  const std::size_t n = 20;
  std::vector<double> prev(n * d);
  std::vector<double> curr(n * d);
  for (double& x : prev) x = rng.uniform();
  for (double& x : curr) x = rng.uniform();
  StatePair state(d, prev, curr, DeviceSet({3, 7}));
  const StatePair before = state;

  PositionUpdate outside;
  outside.ids = {1, 4, 9};
  outside.coords = {0.5, 0.5, 0.25, 1.0000001, 0.75, 0.75};
  EXPECT_THROW(state.roll(outside, DeviceSet({2})), std::invalid_argument);
  expect_same_state(state, before, "outside [0,1]");

  PositionUpdate negative;
  negative.ids = {2};
  negative.coords = {-0.25, 0.5};
  EXPECT_THROW(state.roll(negative, DeviceSet{}), std::invalid_argument);
  expect_same_state(state, before, "negative");

  PositionUpdate unsorted;
  unsorted.ids = {5, 4};
  unsorted.coords = {0.5, 0.5, 0.5, 0.5};
  EXPECT_THROW(state.roll(unsorted, DeviceSet{}), std::invalid_argument);
  expect_same_state(state, before, "unsorted ids");

  std::vector<Point> bad(n, Point{0.5, 0.5});
  bad[3] = Point{0.5};
  bad.pop_back();
  EXPECT_THROW(state.advance(Snapshot(bad), DeviceSet{}), std::invalid_argument);
  expect_same_state(state, before, "short snapshot");
}

// The footprint guard: the state is the joint columns and their quantized
// mirror (2d * 12 bytes per device) plus the moved list and A_k — no
// per-device Point array.
TEST(StatePairColumnsTest, FootprintStaysWithin64BytesPerDevice) {
  Rng rng(64);
  const std::size_t d = 2;
  const std::size_t n = 100000;
  std::vector<double> prev(n * d);
  std::vector<double> curr(n * d);
  for (double& x : prev) x = rng.uniform();
  for (double& x : curr) x = rng.uniform();  // every device moved
  std::vector<DeviceId> abnormal(n / 10);
  for (DeviceId i = 0; i < abnormal.size(); ++i) abnormal[i] = i * 10;
  StatePair state(d, prev, curr, DeviceSet(abnormal));
  ASSERT_EQ(state.moved().size(), n);
  EXPECT_LE(state.bytes(), 64 * n);

  PositionUpdate update;
  for (DeviceId j = 0; j < n; j += 3) {
    update.ids.push_back(j);
    update.coords.push_back(rng.uniform());
    update.coords.push_back(rng.uniform());
  }
  state.roll(update, DeviceSet(abnormal));
  EXPECT_LE(state.bytes(), 64 * n);

  const StatePair primed(d, prev, prev, DeviceSet{});
  EXPECT_LE(primed.bytes(), 48 * n);
}

}  // namespace
}  // namespace acn
