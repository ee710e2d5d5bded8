// r-consistency predicates (Definitions 1-4).
//
// All predicates reduce to bounding-box side checks in the joint space: a
// set B has an r-consistent motion in [k-1, k] iff the bounding box of its
// joint positions has side <= 2r in every one of the 2d dimensions.
#pragma once

#include <span>

#include "common/device_set.hpp"
#include "core/point.hpp"
#include "core/params.hpp"
#include "core/state.hpp"

namespace acn {

/// Mutable bounding box in the joint space; the workhorse of motion checks.
class JointBox {
 public:
  explicit JointBox(std::size_t joint_dim) noexcept;

  /// Adds a point of the box's dimension (is_r_consistent's boxes in E).
  void add(const Point& position) noexcept;
  /// Adds device j's joint position, read from the joint columns.
  void add(const StatePair& state, DeviceId j) noexcept;
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// Largest per-dimension extent (0 when the box holds < 2 points).
  [[nodiscard]] double side() const noexcept;

  /// True if every dimension extent is <= window.
  [[nodiscard]] bool within(double window) const noexcept;

  /// True if the box would still satisfy within(window) after
  /// add(state, j); reads device j's joint columns.
  [[nodiscard]] bool would_fit(const StatePair& state, DeviceId j,
                               double window) const noexcept;

 private:
  std::array<double, kMaxJointDim> lo_{};
  std::array<double, kMaxJointDim> hi_{};
  std::size_t dim_ = 0;
  std::size_t count_ = 0;
};

/// Definition 1: B is r-consistent at one instant (diameter <= 2r there).
[[nodiscard]] bool is_r_consistent(const Snapshot& snapshot, const DeviceSet& set,
                                   double r);

/// Definition 3: B has an r-consistent motion in [k-1, k] (both instants).
[[nodiscard]] bool has_consistent_motion(const StatePair& state, const DeviceSet& set,
                                         double r);

/// Chebyshev diameter of the set in the joint space (max over both instants).
[[nodiscard]] double joint_diameter(const StatePair& state, const DeviceSet& set);

/// True iff set-with-extra still has an r-consistent motion. Cheaper than
/// materializing the union. `extra` may already belong to the set.
[[nodiscard]] bool motion_with_extra(const StatePair& state, const DeviceSet& set,
                                     DeviceId extra, double r);

/// Definition 4 helpers: a motion is tau-dense iff it has more than tau
/// members, tau-sparse otherwise. (Callers must ensure the set is a motion.)
[[nodiscard]] inline bool is_dense(const DeviceSet& set, std::uint32_t tau) noexcept {
  return set.size() > tau;
}

/// Definition 2/3 maximality: no abnormal device outside the set can join it
/// while keeping an r-consistent motion. `universe` is the candidate pool
/// (typically A_k or the not-yet-partitioned remainder of A_k).
[[nodiscard]] bool is_maximal_motion_in(const StatePair& state, const DeviceSet& set,
                                        std::span<const DeviceId> universe, double r);

}  // namespace acn
