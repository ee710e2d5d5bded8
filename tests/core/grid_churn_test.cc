// Property test: a FleetGrid carried across intervals through random
// insert / remove / move churn answers every masked neighbourhood query
// bit-identically to a GridIndex rebuilt from scratch over the surviving
// members. This is the invariant the streaming engine's churn path (roster
// mode) rests on.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/grid_index.hpp"
#include "core/state.hpp"

namespace acn {
namespace {

Point random_point(Rng& rng) { return Point{rng.uniform(), rng.uniform()}; }

TEST(GridChurn, IncrementalMatchesScratchUnderChurn) {
  const double cell = std::max(2.0 * 0.05, kMinGridCell);
  for (const std::uint64_t seed : {5ull, 23ull, 71ull}) {
    Rng rng(seed);
    const std::size_t n = 120;
    std::vector<Point> positions;
    positions.reserve(n);
    for (std::size_t j = 0; j < n; ++j) positions.push_back(random_point(rng));

    StatePair state{Snapshot(positions), Snapshot(positions), DeviceSet{}};
    FleetGrid grid(cell);
    grid.rebuild(state);
    std::vector<bool> present(n, true);

    std::vector<DeviceId> out;
    for (int k = 0; k < 12; ++k) {
      // Plan the interval's churn: present devices retire w.p. 0.08, parked
      // ones re-enter w.p. 0.3 (at a fresh position — the slot-splice jump).
      std::vector<DeviceId> retiring;
      std::vector<DeviceId> admitting;
      for (DeviceId j = 0; j < n; ++j) {
        if (present[j] && rng.bernoulli(0.08)) {
          retiring.push_back(j);
        } else if (!present[j] && rng.bernoulli(0.3)) {
          admitting.push_back(j);
        }
      }
      std::vector<bool> retiring_now(n, false);
      for (const DeviceId j : retiring) retiring_now[j] = true;

      std::vector<Point> next = state.curr().positions();
      for (DeviceId j = 0; j < n; ++j) {
        if (present[j] && !retiring_now[j] && rng.bernoulli(0.4)) {
          next[j] = random_point(rng);  // surviving member moves
        }
      }
      for (const DeviceId j : admitting) next[j] = random_point(rng);

      state.advance(Snapshot(std::move(next)), DeviceSet{});

      // Devices absent from the grid must not go through apply() — they are
      // re-inserted explicitly (the documented FleetGrid churn contract).
      std::vector<DeviceId> moved_present;
      for (const DeviceId j : state.moved()) {
        if (present[j]) moved_present.push_back(j);
      }
      grid.apply(state, moved_present);
      for (const DeviceId j : admitting) {
        grid.insert(state, j);
        present[j] = true;
      }
      for (const DeviceId j : retiring) {
        grid.remove(state, j);
        present[j] = false;
      }

      // Full-membership comparison: every device as query centre, two radii.
      std::vector<DeviceId> member_ids;
      std::vector<std::uint8_t> member_flag(n, 0);
      for (DeviceId j = 0; j < n; ++j) {
        if (present[j]) {
          member_ids.push_back(j);
          member_flag[j] = 1;
        }
      }
      ASSERT_EQ(grid.device_count(), member_ids.size()) << "interval " << k;
      const GridIndex scratch(state, DeviceSet(member_ids), cell);
      for (DeviceId j = 0; j < n; ++j) {
        for (const double radius : {cell, 2.0 * cell}) {
          grid.within_into(state, j, radius, member_flag, out);
          EXPECT_EQ(out, scratch.within(j, radius))
              << "seed " << seed << " interval " << k << " query " << j
              << " radius " << radius;
        }
      }

      // Sub-mask comparison (the abnormal-mask path the engine uses).
      std::vector<DeviceId> sub_ids;
      std::vector<std::uint8_t> sub_flag(n, 0);
      for (DeviceId j = 0; j < n; ++j) {
        if (present[j] && rng.bernoulli(0.3)) {
          sub_ids.push_back(j);
          sub_flag[j] = 1;
        }
      }
      const GridIndex scratch_sub(state, DeviceSet(sub_ids), cell);
      for (DeviceId j = 0; j < n; j += 7) {
        grid.within_into(state, j, 2.0 * cell, sub_flag, out);
        EXPECT_EQ(out, scratch_sub.within(j, 2.0 * cell))
            << "seed " << seed << " interval " << k << " query " << j;
      }
    }
  }
}

TEST(GridChurn, RemoveThrowsWhenAbsentAndRoundTrips) {
  const std::vector<Point> positions = {Point{0.1, 0.1}, Point{0.5, 0.5},
                                        Point{0.9, 0.9}};
  const StatePair state{Snapshot(positions), Snapshot(positions), DeviceSet{}};
  FleetGrid grid(0.1);
  grid.rebuild(state);
  ASSERT_EQ(grid.device_count(), 3u);

  grid.remove(state, 1);
  EXPECT_EQ(grid.device_count(), 2u);
  EXPECT_THROW(grid.remove(state, 1), std::logic_error);

  grid.insert(state, 1);
  EXPECT_EQ(grid.device_count(), 3u);
  std::vector<DeviceId> out;
  grid.within_into(state, 1, 0.05, {}, out);
  EXPECT_EQ(out, (std::vector<DeviceId>{1}));
  grid.remove(state, 1);
  EXPECT_EQ(grid.device_count(), 2u);
}

}  // namespace
}  // namespace acn
