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

StatePair::StatePair(std::size_t n, std::size_t dim, DeviceSet abnormal)
    : n_(n), dim_(dim), abnormal_(std::move(abnormal)) {
  if (dim_ == 0 || dim_ > Point::kMaxDim / 2) {
    throw std::invalid_argument("StatePair: dimension out of range");
  }
  if (!abnormal_.empty() && abnormal_[abnormal_.size() - 1] >= n_) {
    throw std::invalid_argument("StatePair: abnormal set references unknown device");
  }
  joint_cols_.resize(joint_dim() * n_);
  qcols_.resize(joint_dim() * n_);
}

StatePair::StatePair(const Snapshot& prev, const Snapshot& curr, DeviceSet abnormal)
    : StatePair(prev.size(), prev.dim(), std::move(abnormal)) {
  if (prev.size() != curr.size()) {
    throw std::invalid_argument("StatePair: snapshots must have the same size");
  }
  if (prev.dim() != curr.dim()) {
    throw std::invalid_argument("StatePair: snapshots must have the same dimension");
  }
  for (std::size_t t = 0; t < dim_; ++t) {
    double* prev_col = joint_cols_.data() + t * n_;
    double* curr_col = joint_cols_.data() + (dim_ + t) * n_;
    for (DeviceId j = 0; j < n_; ++j) {
      prev_col[j] = prev[j][t];
      curr_col[j] = curr[j][t];
    }
  }
  finish_build();
}

StatePair::StatePair(std::size_t dim, std::span<const double> prev_rows,
                     std::span<const double> curr_rows, DeviceSet abnormal)
    : StatePair(dim == 0 ? 0 : prev_rows.size() / dim, dim, std::move(abnormal)) {
  if (prev_rows.empty() || prev_rows.size() % dim != 0 ||
      curr_rows.size() != prev_rows.size()) {
    throw std::invalid_argument(
        "StatePair: coordinate rows must be non-empty, whole and of equal length");
  }
  for (const std::span<const double> rows : {prev_rows, curr_rows}) {
    for (const double x : rows) {
      if (x < 0.0 || x > 1.0) {
        throw std::invalid_argument("StatePair: coordinate outside [0,1]");
      }
    }
  }
  for (std::size_t t = 0; t < dim_; ++t) {
    double* prev_col = joint_cols_.data() + t * n_;
    double* curr_col = joint_cols_.data() + (dim_ + t) * n_;
    for (DeviceId j = 0; j < n_; ++j) {
      prev_col[j] = prev_rows[j * dim_ + t];
      curr_col[j] = curr_rows[j * dim_ + t];
    }
  }
  finish_build();
}

void StatePair::finish_build() {
  for (std::size_t i = 0; i < joint_cols_.size(); ++i) {
    qcols_[i] = kernels::quantize(joint_cols_[i]);
  }
  for (DeviceId j = 0; j < n_; ++j) {
    for (std::size_t t = 0; t < dim_; ++t) {
      if (joint_col(t)[j] != joint_col(dim_ + t)[j]) {
        moved_.push_back(j);
        break;
      }
    }
  }
}

Point StatePair::point_at(DeviceId j, std::size_t first, std::size_t count) const {
  Point p = Point::zero(count);
  for (std::size_t t = 0; t < count; ++t) p[t] = joint_col(first + t)[j];
  return p;
}

Snapshot StatePair::snapshot_at(std::size_t first) const {
  // The columns hold validated coordinates; skip Snapshot's re-check.
  std::vector<Point> positions;
  positions.reserve(n_);
  for (DeviceId j = 0; j < n_; ++j) positions.push_back(point_at(j, first, dim_));
  return Snapshot(std::move(positions), dim_);
}

std::size_t StatePair::bytes() const noexcept {
  return joint_cols_.capacity() * sizeof(double) +
         qcols_.capacity() * sizeof(std::uint32_t) +
         moved_.capacity() * sizeof(DeviceId) + abnormal_.size() * sizeof(DeviceId);
}

void StatePair::roll(const PositionUpdate& update, DeviceSet abnormal) {
  const std::size_t d = dim_;
  const std::size_t count = n_;
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

  // The new prev half is the old curr half, stored at joint dimensions
  // [d, 2d); the two differ only for the devices the last roll moved, so
  // only those shift down (the quantized mirror is copied, not recomputed).
  for (const DeviceId j : moved_) {
    for (std::size_t t = 0; t < d; ++t) {
      joint_cols_[t * count + j] = joint_cols_[(d + t) * count + j];
      qcols_[t * count + j] = qcols_[(d + t) * count + j];
    }
  }
  moved_.clear();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const DeviceId j = ids[i];
    const double* next = update.coords.data() + i * d;
    bool changed = false;
    for (std::size_t t = 0; t < d; ++t) {
      double& current = joint_cols_[(d + t) * count + j];
      if (current != next[t]) {
        current = next[t];
        qcols_[(d + t) * count + j] = kernels::quantize(next[t]);
        changed = true;
      }
    }
    if (changed) moved_.push_back(j);
  }
}

void StatePair::advance(const Snapshot& next, DeviceSet abnormal) {
  if (next.size() != n_) {
    throw std::invalid_argument(
        "StatePair::advance: fleet size changed (the device universe is "
        "fixed per engine; route churn through FleetRoster, which parks "
        "vacant slots instead of resizing)");
  }
  if (next.dim() != dim_) {
    throw std::invalid_argument("StatePair::advance: dimension changed");
  }
  PositionUpdate diff;
  for (DeviceId j = 0; j < n_; ++j) {
    const std::span<const double> coords = next[j].coords();
    bool differs = false;
    for (std::size_t t = 0; t < dim_; ++t) {
      differs |= coords[t] != joint_col(dim_ + t)[j];
    }
    if (!differs) continue;
    diff.ids.push_back(j);
    diff.coords.insert(diff.coords.end(), coords.begin(), coords.end());
  }
  roll(diff, std::move(abnormal));
}

}  // namespace acn
