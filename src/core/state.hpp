// System states (§III-A): S_k is the vector of device positions in the QoS
// space at discrete time k. StatePair bundles two successive states S_{k-1},
// S_k together with the abnormal set A_k (devices whose error-detection
// function fired in [k-1, k], Definition 5) — exactly the input of every
// algorithm in the paper.
//
// StatePair stores each coordinate once, column by column: joint dimension
// t < d is device j's coordinate t at k-1, t >= d its coordinate t - d at k
// (one contiguous double row per joint dimension), beside a quantized
// uint32 mirror for the SIMD kernels. That is 2d * 12 bytes per device —
// 48 B at d = 2 — plus the moved list and A_k. Every per-interval path
// (roll, A_k index, plane, characterization, telemetry tally) reads the
// columns directly; the Point and Snapshot accessors build values from
// them and exist for the API edges only (protocol, adversary, baselines,
// tests, the scenario generator's consumers).
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "common/device_set.hpp"
#include "core/kernels/quantize.hpp"
#include "core/point.hpp"

namespace acn {

/// Positions of all devices at one discrete time. Immutable once built.
class Snapshot {
 public:
  /// Builds from per-device positions; all points must share the same
  /// dimension and lie in [0,1]^d. Throws std::invalid_argument otherwise.
  explicit Snapshot(std::vector<Point> positions);

  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] const Point& operator[](DeviceId j) const noexcept {
    return positions_[j];
  }
  [[nodiscard]] const std::vector<Point>& positions() const noexcept {
    return positions_;
  }

 private:
  friend class StatePair;  // builds already-validated snapshots from columns
  Snapshot(std::vector<Point> positions, std::size_t dim) noexcept
      : positions_(std::move(positions)), dim_(dim) {}

  std::vector<Point> positions_;
  std::size_t dim_ = 0;
};

/// Candidate position updates for one StatePair::roll: devices in strictly
/// ascending order, each with dim() new coordinates packed row by row in
/// `coords` (row i belongs to ids[i]). A candidate whose coordinates equal
/// its current position is allowed and costs one comparison, so producers
/// (FleetRoster's change set, StatePair::advance's diff) may over-report.
struct PositionUpdate {
  std::vector<DeviceId> ids;
  std::vector<double> coords;
};

/// Two successive system states plus the abnormal set A_k.
class StatePair {
 public:
  /// Throws std::invalid_argument if the snapshots disagree in size or
  /// dimension, or if abnormal contains an out-of-range device id.
  StatePair(const Snapshot& prev, const Snapshot& curr, DeviceSet abnormal);

  /// Column constructor: S_{k-1} and S_k given row-major, dim coordinates
  /// per device (row j belongs to device j) — the layout FleetRoster keeps.
  /// Pass the same span twice to prime (S_0, S_0). Throws
  /// std::invalid_argument if dim is not in [1, Point::kMaxDim], the
  /// spans are empty, differ in length or are not a whole number of rows,
  /// a coordinate lies outside [0, 1], or abnormal is out of range.
  StatePair(std::size_t dim, std::span<const double> prev_rows,
            std::span<const double> curr_rows, DeviceSet abnormal);

  /// In-place interval roll, the one routine every feed goes through:
  /// S_{k-1} takes the old S_k, S_k takes the updated positions, A_k
  /// becomes `abnormal`. Costs O(|moved()| + |update.ids|), never O(n):
  ///   1. the prev half of the joint columns takes the curr half for the
  ///      devices the last roll moved — the only ones whose two halves
  ///      differ;
  ///   2. every candidate whose coordinates differ from curr (by value, so
  ///      -0.0 over 0.0 is no move) gets the curr half of its joint and
  ///      quantized columns rewritten, and is appended to moved().
  /// moved() therefore lists, ascending, exactly the devices whose CURRENT
  /// position changed — the devices whose grid cell may change. Throws
  /// std::invalid_argument (state unchanged) if the ids are not strictly
  /// ascending in [0, n), `coords` is not ids.size() * dim() long, a
  /// coordinate lies outside [0, 1], or `abnormal` is out of range.
  ///
  /// PRECONDITION (stable device universe): device j of the update is
  /// device j of the current state. The roll has no notion of devices
  /// joining or leaving — churn is handled one layer up by FleetRoster
  /// (src/online/roster), which keeps a fixed-capacity dense id space,
  /// parks vacant slots at their last position, and never flags a device
  /// abnormal in the interval its slot was (re)assigned, so a slot swap can
  /// never fabricate a characterizable trajectory.
  void roll(const PositionUpdate& update, DeviceSet abnormal);

  /// Full-snapshot roll: diffs `next` against curr (O(n)) into a
  /// PositionUpdate, then roll(). Throws std::invalid_argument (state
  /// unchanged) if `next` disagrees in size or dimension or `abnormal` is
  /// out of range.
  void advance(const Snapshot& next, DeviceSet abnormal);

  /// Devices whose prev and curr positions differ, ascending: the moved
  /// list of the latest roll (for a freshly built pair, its initial diff).
  [[nodiscard]] std::span<const DeviceId> moved() const noexcept { return moved_; }

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  /// Dimension of the joint space E x E.
  [[nodiscard]] std::size_t joint_dim() const noexcept { return 2 * dim_; }

  /// S_{k-1} and S_k, and single positions, built from the columns. O(n)
  /// and O(d) values respectively: for API edges, not per-interval paths.
  [[nodiscard]] Snapshot prev() const { return snapshot_at(0); }
  [[nodiscard]] Snapshot curr() const { return snapshot_at(dim_); }
  [[nodiscard]] Point prev_pos(DeviceId j) const { return point_at(j, 0); }
  [[nodiscard]] Point curr_pos(DeviceId j) const { return point_at(j, dim_); }

  /// Structure-of-arrays view of one joint dimension, one contiguous
  /// double row per dimension: device j's joint position is prev_pos(j)
  /// then curr_pos(j), so joint_col(t)[j] == prev_pos(j)[t] for t < dim()
  /// and curr_pos(j)[t - dim()] above. The canonical window slides scan
  /// one dimension across many devices; the columnar layout turns those
  /// inner loops into flat-array scans.
  [[nodiscard]] const double* joint_col(std::size_t dim) const noexcept {
    return joint_cols_.data() + dim * n_;
  }

  /// Fixed-point mirror of joint_col: qcol(t)[j] == kernels::quantize of
  /// joint_col(t)[j], maintained incrementally by roll() (only entries
  /// whose double changed are requantized). The SIMD window kernel compares
  /// these 8 lanes at a time and falls back to the doubles only on
  /// quantization-boundary ties (see core/kernels/quantize.hpp for the
  /// byte-identity argument).
  [[nodiscard]] const std::uint32_t* qcol(std::size_t dim) const noexcept {
    return qcols_.data() + dim * n_;
  }

  /// A_k: devices with an abnormal trajectory in [k-1, k].
  [[nodiscard]] const DeviceSet& abnormal() const noexcept { return abnormal_; }
  [[nodiscard]] bool is_abnormal(DeviceId j) const noexcept {
    return abnormal_.contains(j);
  }

  /// Joint Chebyshev distance between devices a and b: the max of their
  /// distances at k-1 and at k (chebyshev() of their prev_pos and of their
  /// curr_pos). The pair {a, b} can share an r-consistent motion iff this
  /// is <= 2r.
  [[nodiscard]] double joint_distance(DeviceId a, DeviceId b) const noexcept {
    double best = 0.0;
    for (std::size_t t = 0; t < joint_dim(); ++t) {
      const double* col = joint_col(t);
      const double delta = std::fabs(col[a] - col[b]);
      if (delta > best) best = delta;
    }
    return best;
  }

  /// Heap bytes held: capacity times element size of every buffer.
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  /// Sizes the columns for n devices of dimension dim and validates
  /// `abnormal_` against n; the public constructors then fill the columns.
  StatePair(std::size_t n, std::size_t dim, DeviceSet abnormal);
  /// Quantizes every column entry and lists the devices whose halves differ.
  void finish_build();

  /// Device j's position in the half starting at joint column `first`.
  [[nodiscard]] Point point_at(DeviceId j, std::size_t first) const;
  [[nodiscard]] Snapshot snapshot_at(std::size_t first) const;

  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  DeviceSet abnormal_;
  std::vector<double> joint_cols_;       ///< [joint dim][device]
  std::vector<std::uint32_t> qcols_;     ///< quantized mirror of joint_cols_
  std::vector<DeviceId> moved_;          ///< devices with prev != curr
};

}  // namespace acn
