#include "core/state.hpp"

#include <stdexcept>
#include <string>

namespace acn {

Snapshot::Snapshot(std::vector<Point> positions) : positions_(std::move(positions)) {
  if (positions_.empty()) {
    throw std::invalid_argument("Snapshot: at least one device required");
  }
  dim_ = positions_[0].dim();
  for (std::size_t j = 0; j < positions_.size(); ++j) {
    if (positions_[j].dim() != dim_) {
      throw std::invalid_argument("Snapshot: inconsistent dimension at device " +
                                  std::to_string(j));
    }
    if (!positions_[j].in_unit_box()) {
      throw std::invalid_argument("Snapshot: device " + std::to_string(j) +
                                  " outside [0,1]^d: " + positions_[j].to_string());
    }
  }
}

StatePair::StatePair(Snapshot prev, Snapshot curr, DeviceSet abnormal)
    : prev_(std::move(prev)), curr_(std::move(curr)), abnormal_(std::move(abnormal)) {
  if (prev_.size() != curr_.size()) {
    throw std::invalid_argument("StatePair: snapshots must have the same size");
  }
  if (prev_.dim() != curr_.dim()) {
    throw std::invalid_argument("StatePair: snapshots must have the same dimension");
  }
  if (!abnormal_.empty() && abnormal_[abnormal_.size() - 1] >= prev_.size()) {
    throw std::invalid_argument("StatePair: abnormal set references unknown device");
  }
  joint_.reserve(n());
  for (DeviceId j = 0; j < n(); ++j) {
    joint_.push_back(Point::concat(prev_[j], curr_[j]));
    if (!(prev_[j] == curr_[j])) moved_.push_back(j);
  }
  joint_cols_.resize(joint_dim() * n());
  qcols_.resize(joint_dim() * n());
  for (std::size_t t = 0; t < joint_dim(); ++t) {
    double* col = joint_cols_.data() + t * n();
    std::uint32_t* qcol = qcols_.data() + t * n();
    for (DeviceId j = 0; j < n(); ++j) {
      col[j] = joint_[j][t];
      qcol[j] = kernels::quantize(col[j]);
    }
  }
}

void StatePair::roll(const PositionUpdate& update, DeviceSet abnormal) {
  const std::size_t d = dim();
  const std::size_t count = n();
  const std::span<const DeviceId> ids = update.ids;
  if (update.coords.size() != ids.size() * d) {
    throw std::invalid_argument(
        "StatePair::roll: coordinate count does not match the update");
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= count || (i > 0 && ids[i] <= ids[i - 1])) {
      throw std::invalid_argument(
          "StatePair::roll: update ids must be ascending device ids (the "
          "device universe is fixed per engine; route churn through "
          "FleetRoster, which parks vacant slots instead of resizing)");
    }
  }
  for (const double x : update.coords) {
    if (x < 0.0 || x > 1.0) {
      throw std::invalid_argument("StatePair::roll: coordinate outside [0,1]");
    }
  }
  if (!abnormal.empty() && abnormal[abnormal.size() - 1] >= count) {
    throw std::invalid_argument(
        "StatePair::roll: abnormal set references unknown device");
  }
  abnormal_ = std::move(abnormal);

  // joint_[j] = (prev | curr). The new prev half is the old curr half,
  // already stored at offsets [d, 2d); the two differ only for the devices
  // the last roll moved, so only those shift down.
  const auto write = [&](DeviceId j, std::size_t t, double x) {
    joint_[j][t] = x;
    joint_cols_[t * count + j] = x;
    qcols_[t * count + j] = kernels::quantize(x);
  };
  for (const DeviceId j : moved_) {
    for (std::size_t t = 0; t < d; ++t) write(j, t, joint_[j][d + t]);
    prev_.positions_[j] = curr_.positions_[j];
  }
  moved_.clear();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const DeviceId j = ids[i];
    const double* next = update.coords.data() + i * d;
    Point& current = curr_.positions_[j];
    bool changed = false;
    for (std::size_t t = 0; t < d; ++t) {
      if (current[t] != next[t]) {
        current[t] = next[t];
        write(j, d + t, next[t]);
        changed = true;
      }
    }
    if (changed) moved_.push_back(j);
  }
}

void StatePair::advance(const Snapshot& next, DeviceSet abnormal) {
  if (next.size() != n()) {
    throw std::invalid_argument(
        "StatePair::advance: fleet size changed (the device universe is "
        "fixed per engine; route churn through FleetRoster, which parks "
        "vacant slots instead of resizing)");
  }
  if (next.dim() != dim()) {
    throw std::invalid_argument("StatePair::advance: dimension changed");
  }
  PositionUpdate diff;
  for (DeviceId j = 0; j < n(); ++j) {
    if (next[j] == curr_[j]) continue;
    diff.ids.push_back(j);
    const std::span<const double> coords = next[j].coords();
    diff.coords.insert(diff.coords.end(), coords.begin(), coords.end());
  }
  roll(diff, std::move(abnormal));
}

}  // namespace acn
