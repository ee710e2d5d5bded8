#include "core/motion.hpp"

#include <gtest/gtest.h>

#include "support/test_util.hpp"

namespace acn {
namespace {

// ---------------------------------------------------------------------------
// Figure 1 of the paper: six devices in a one-dimensional QoS space; the two
// maximal r-consistent sets containing device 1 are B1 = {1,2,3,4} and
// B2 = {1,2,3,5,6}. (Paper ids 1..6 map to indices 0..5 here.)
// ---------------------------------------------------------------------------
class Figure1Test : public ::testing::Test {
 protected:
  // positions at time k; device 4 sits left of the {1,2,3} cluster, devices
  // 5 and 6 right of it, 2r = 0.1.
  Figure1Test()
      : state_(test::make_static_1d({0.45, 0.47, 0.49, 0.40, 0.52, 0.53})),
        r_(0.05) {}

  StatePair state_;
  double r_;
};

TEST_F(Figure1Test, B1IsConsistent) {
  EXPECT_TRUE(is_r_consistent(state_.curr(), DeviceSet({0, 1, 2, 3}), r_));
}

TEST_F(Figure1Test, B2IsConsistent) {
  EXPECT_TRUE(is_r_consistent(state_.curr(), DeviceSet({0, 1, 2, 4, 5}), r_));
}

TEST_F(Figure1Test, B1PlusAnyOfB2TailIsNot) {
  EXPECT_FALSE(is_r_consistent(state_.curr(), DeviceSet({0, 1, 2, 3, 4}), r_));
  EXPECT_FALSE(is_r_consistent(state_.curr(), DeviceSet({0, 1, 2, 3, 5}), r_));
}

TEST_F(Figure1Test, B2Plus4IsNot) {
  EXPECT_FALSE(is_r_consistent(state_.curr(), DeviceSet({0, 1, 2, 3, 4, 5}), r_));
}

TEST_F(Figure1Test, SubsetsOfConsistentSetsAreConsistent) {
  // "Any subset of B1 and any subset of B2 is an r-consistent set."
  EXPECT_TRUE(is_r_consistent(state_.curr(), DeviceSet({0, 3}), r_));
  EXPECT_TRUE(is_r_consistent(state_.curr(), DeviceSet({1, 4, 5}), r_));
  EXPECT_TRUE(is_r_consistent(state_.curr(), DeviceSet({2}), r_));
}

TEST_F(Figure1Test, MaximalityPredicate) {
  const std::vector<DeviceId> universe = {0, 1, 2, 3, 4, 5};
  EXPECT_TRUE(is_maximal_motion_in(state_, DeviceSet({0, 1, 2, 3}), universe, r_));
  EXPECT_TRUE(is_maximal_motion_in(state_, DeviceSet({0, 1, 2, 4, 5}), universe, r_));
  // {1,2,3} extends with 4 (paper ids): not maximal.
  EXPECT_FALSE(is_maximal_motion_in(state_, DeviceSet({0, 1, 2}), universe, r_));
}

// ---------------------------------------------------------------------------
// Motion predicates on trajectories (both instants matter).
// ---------------------------------------------------------------------------

TEST(MotionTest, ConsistentAtBothInstantsIsMotion) {
  const StatePair state = test::make_state_1d({{0.1, 0.5}, {0.12, 0.53}});
  EXPECT_TRUE(has_consistent_motion(state, DeviceSet({0, 1}), 0.02));
}

TEST(MotionTest, ConsistentOnlyAtOneInstantIsNotMotion) {
  // Close at k-1, far at k.
  const StatePair state = test::make_state_1d({{0.1, 0.2}, {0.12, 0.8}});
  EXPECT_TRUE(is_r_consistent(state.prev(), DeviceSet({0, 1}), 0.02));
  EXPECT_FALSE(is_r_consistent(state.curr(), DeviceSet({0, 1}), 0.02));
  EXPECT_FALSE(has_consistent_motion(state, DeviceSet({0, 1}), 0.02));
}

TEST(MotionTest, SingletonAndEmptyAreAlwaysMotions) {
  const StatePair state = test::make_state_1d({{0.1, 0.9}});
  EXPECT_TRUE(has_consistent_motion(state, DeviceSet({0}), 0.0));
  EXPECT_TRUE(has_consistent_motion(state, DeviceSet{}, 0.0));
}

TEST(MotionTest, BoundaryDistanceExactly2rIsConsistent) {
  // Definition 1 uses <= 2r.
  const StatePair state = test::make_state_1d({{0.1, 0.1}, {0.2, 0.2}});
  EXPECT_TRUE(has_consistent_motion(state, DeviceSet({0, 1}), 0.05));
  EXPECT_FALSE(has_consistent_motion(state, DeviceSet({0, 1}), 0.0499));
}

TEST(MotionTest, JointDiameter) {
  const StatePair state = test::make_state_1d({{0.1, 0.5}, {0.3, 0.52}, {0.2, 0.58}});
  EXPECT_NEAR(joint_diameter(state, DeviceSet({0, 1, 2})), 0.2, 1e-12);
  EXPECT_EQ(joint_diameter(state, DeviceSet({0})), 0.0);
}

TEST(MotionTest, MotionWithExtra) {
  const StatePair state =
      test::make_state_1d({{0.1, 0.5}, {0.12, 0.52}, {0.3, 0.54}});
  EXPECT_TRUE(motion_with_extra(state, DeviceSet({0, 1}), 2, 0.12));
  EXPECT_FALSE(motion_with_extra(state, DeviceSet({0, 1}), 2, 0.05));
  // Extra already in the set: no-op.
  EXPECT_TRUE(motion_with_extra(state, DeviceSet({0, 1}), 1, 0.05));
}

TEST(MotionTest, DensityThreshold) {
  EXPECT_TRUE(is_dense(DeviceSet({1, 2, 3, 4}), 3));
  EXPECT_FALSE(is_dense(DeviceSet({1, 2, 3}), 3));
  EXPECT_FALSE(is_dense(DeviceSet{}, 1));
}

TEST(JointBoxTest, TracksExtents) {
  JointBox box(2);
  EXPECT_TRUE(box.empty());
  box.add(Point{0.1, 0.5});
  box.add(Point{0.3, 0.6});
  EXPECT_EQ(box.count(), 2u);
  EXPECT_NEAR(box.side(), 0.2, 1e-12);
  EXPECT_TRUE(box.within(0.2));
  EXPECT_FALSE(box.within(0.19));
}

TEST(JointBoxTest, WouldFit) {
  // Joint positions (prev, curr): (0.1, 0.1), (0.3, 0.1), (0.31, 0.1), (0.9, 0.9).
  const StatePair state =
      test::make_state_1d({{0.1, 0.1}, {0.3, 0.1}, {0.31, 0.1}, {0.9, 0.9}});
  JointBox box(2);
  box.add(state, 0);
  EXPECT_TRUE(box.would_fit(state, 1, 0.2));
  EXPECT_FALSE(box.would_fit(state, 2, 0.2));
  // Empty box fits anything.
  JointBox empty(2);
  EXPECT_TRUE(empty.would_fit(state, 3, 0.0));
}

TEST(JointBoxTest, SinglePointHasZeroSide) {
  JointBox box(2);
  box.add(Point{0.4, 0.7});
  EXPECT_EQ(box.side(), 0.0);
  EXPECT_TRUE(box.within(0.0));
}

}  // namespace
}  // namespace acn
