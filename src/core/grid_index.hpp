// Uniform-grid spatial index over the abnormal devices, supporting the
// neighbourhood queries of the local algorithms: N(j) = devices within 2r of
// j in the joint space (the paper shows trajectories within 4r of a device
// are all it ever needs — two grid hops) — and the 2r-interaction
// components the motion plane enumerates.
//
// The grid is built on *current* positions (cell side = 2r) and candidate
// hits are filtered by exact joint distance, so correctness never depends on
// the grid geometry — only speed does. Buckets are stored flat: one run of
// member ranks per cell, ascending (ranks index the sorted member list, so
// rank order is id order). A query merges its cells' filtered runs instead
// of sorting, and reuses per-thread scratch, so it allocates nothing once
// warm. components() is a breadth-first search over the same buckets that
// drops each device from its bucket when it joins a component: a massive
// anomaly costs O(|members|) distance tests, not one query per device.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/device_set.hpp"
#include "core/state.hpp"

namespace acn {

/// Floor for grid cell sides so the index degenerates gracefully when the
/// consistency window 2r approaches 0. Shared by every 2r grid build
/// (MotionPlane, PartitionEnumerator) so they agree on the same geometry.
inline constexpr double kMinGridCell = 1e-9;

class GridIndex {
 public:
  /// Connected components of the graph "joint distance <= radius" over the
  /// indexed members.
  struct Components {
    /// Per member rank (position in the ascending member list): the index
    /// of its component.
    std::vector<std::uint32_t> of;
    /// Component c is members[offsets[c], offsets[c + 1]); count() + 1
    /// entries.
    std::vector<std::uint32_t> offsets{0};
    /// Every component ascending by id; components ordered by smallest
    /// member.
    std::vector<DeviceId> members;

    [[nodiscard]] std::size_t count() const noexcept { return offsets.size() - 1; }
    [[nodiscard]] std::span<const DeviceId> component(std::size_t c) const noexcept {
      return {members.data() + offsets[c], offsets[c + 1] - offsets[c]};
    }
  };

  /// Indexes `members` (typically A_k) of `state` with cell side `cell`.
  /// Requires cell > 0.
  GridIndex(const StatePair& state, const DeviceSet& members, double cell);

  /// All indexed devices ell with joint Chebyshev distance(ell, j) <= radius,
  /// including j itself when indexed. Sorted by id. The query device does not
  /// have to be a member. `radius` may exceed the cell size (4r queries).
  [[nodiscard]] std::vector<DeviceId> within(DeviceId j, double radius) const;

  /// Same query into a caller-owned buffer (cleared first).
  void within_into(DeviceId j, double radius, std::vector<DeviceId>& out) const;

  /// Components of "joint distance <= radius" by breadth-first search,
  /// seeded in ascending id order. A device leaves its working bucket once
  /// it joins a component, so later expansions never test it again; the
  /// candidates tested are a subset of those one within() per device would
  /// test, with within()'s exact distance test.
  [[nodiscard]] Components components(double radius) const;

  [[nodiscard]] std::size_t member_count() const noexcept { return ids_.size(); }

 private:
  /// Appends the distinct buckets of every cell within `radius` of device
  /// j's current position to `out`, ascending.
  void buckets_near(DeviceId j, double radius,
                    std::vector<std::uint32_t>& out) const;

  const StatePair& state_;
  double cell_;
  std::vector<DeviceId> ids_;                       ///< members, ascending
  std::unordered_map<std::uint64_t, std::uint32_t> bucket_of_cell_;
  std::vector<std::uint32_t> bucket_offsets_;       ///< bucket count + 1
  std::vector<std::uint32_t> bucket_ranks_;         ///< ascending per bucket
};

}  // namespace acn
