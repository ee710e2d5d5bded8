#include "core/motion.hpp"

#include <limits>

#include "core/kernels/kernels.hpp"

namespace acn {

JointBox::JointBox(std::size_t joint_dim) noexcept : dim_(joint_dim) {
  lo_.fill(std::numeric_limits<double>::infinity());
  hi_.fill(-std::numeric_limits<double>::infinity());
}

void JointBox::add(const Point& joint_position) noexcept {
  for (std::size_t i = 0; i < dim_; ++i) {
    const double x = joint_position[i];
    if (x < lo_[i]) lo_[i] = x;
    if (x > hi_[i]) hi_[i] = x;
  }
  ++count_;
}

void JointBox::add(const StatePair& state, DeviceId j) noexcept {
  for (std::size_t i = 0; i < dim_; ++i) {
    const double x = state.joint_col(i)[j];
    if (x < lo_[i]) lo_[i] = x;
    if (x > hi_[i]) hi_[i] = x;
  }
  ++count_;
}

double JointBox::side() const noexcept {
  if (count_ < 2) return 0.0;
  double best = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double extent = hi_[i] - lo_[i];
    if (extent > best) best = extent;
  }
  return best;
}

bool JointBox::within(double window) const noexcept {
  if (count_ < 2) return true;
  for (std::size_t i = 0; i < dim_; ++i) {
    if (hi_[i] - lo_[i] > window) return false;
  }
  return true;
}

bool JointBox::would_fit(const StatePair& state, DeviceId j,
                         double window) const noexcept {
  if (count_ == 0) return true;
  for (std::size_t i = 0; i < dim_; ++i) {
    const double x = state.joint_col(i)[j];
    const double lo = x < lo_[i] ? x : lo_[i];
    const double hi = x > hi_[i] ? x : hi_[i];
    if (hi - lo > window) return false;
  }
  return true;
}

bool is_r_consistent(const Snapshot& snapshot, const DeviceSet& set, double r) {
  JointBox box(snapshot.dim());
  for (const DeviceId j : set) box.add(snapshot[j]);
  return box.within(2.0 * r);
}

bool has_consistent_motion(const StatePair& state, const DeviceSet& set, double r) {
  // Column-wise exact min/max over the SoA joint layout (kernel-dispatched;
  // min/max of doubles is exact, so this matches the JointBox scan byte for
  // byte) with a per-dimension early exit.
  if (set.empty()) return true;  // JointBox::within is vacuously true
  const auto ids = set.ids();
  const kernels::Ops& ops = kernels::dispatch();
  const double window = 2.0 * r;
  for (std::size_t t = 0; t < state.joint_dim(); ++t) {
    double lo;
    double hi;
    ops.minmax_ids(state.joint_col(t), ids.data(), ids.size(), &lo, &hi);
    if (hi - lo > window) return false;
  }
  return true;
}

double joint_diameter(const StatePair& state, const DeviceSet& set) {
  JointBox box(state.joint_dim());
  for (const DeviceId j : set) box.add(state, j);
  return box.side();
}

bool motion_with_extra(const StatePair& state, const DeviceSet& set, DeviceId extra,
                       double r) {
  JointBox box(state.joint_dim());
  for (const DeviceId j : set) box.add(state, j);
  if (!box.within(2.0 * r)) return false;
  return box.would_fit(state, extra, 2.0 * r);
}

bool is_maximal_motion_in(const StatePair& state, const DeviceSet& set,
                          std::span<const DeviceId> universe, double r) {
  if (!has_consistent_motion(state, set, r)) return false;
  JointBox box(state.joint_dim());
  for (const DeviceId j : set) box.add(state, j);
  for (const DeviceId candidate : universe) {
    if (set.contains(candidate)) continue;
    if (box.would_fit(state, candidate, 2.0 * r)) return false;
  }
  return true;
}

}  // namespace acn
