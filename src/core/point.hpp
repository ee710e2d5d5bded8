// Points of the QoS space E = [0,1]^d under the uniform (Chebyshev) norm.
//
// The paper works in E with d = number of services per device (§III-A) and
// in the *joint space* E x E: a set of devices has an r-consistent motion in
// [k-1, k] iff its Chebyshev diameter is <= 2r at both instants, i.e. iff
// its 2d-dimensional joint bounding box has side <= 2r. A Point is a point
// of E only, for d <= 8 services; joint positions live in StatePair's
// columns (core/state.hpp), never in a Point.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>

namespace acn {

class Point {
 public:
  /// Largest QoS dimension d: every roster, state and scenario enforces it.
  static constexpr std::size_t kMaxDim = 8;

  Point() = default;
  /// Throws std::invalid_argument if coords.size() is 0 or > kMaxDim.
  explicit Point(std::span<const double> coords);
  Point(std::initializer_list<double> coords);

  /// Origin of the given dimension.
  [[nodiscard]] static Point zero(std::size_t dim);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] double operator[](std::size_t i) const noexcept { return coords_[i]; }
  [[nodiscard]] double& operator[](std::size_t i) noexcept { return coords_[i]; }

  /// The meaningful coordinates, [0, dim()).
  [[nodiscard]] std::span<const double> coords() const noexcept {
    return {coords_.data(), dim_};
  }

  /// True if no coordinate lies below 0 or above 1 (the QoS space
  /// proper). Branch-free over the coordinates: it runs once per report.
  [[nodiscard]] bool in_unit_box() const noexcept {
    bool outside = false;
    for (std::size_t i = 0; i < dim_; ++i) outside |= (coords_[i] < 0.0) | (coords_[i] > 1.0);
    return !outside;
  }

  /// Chebyshev (L-infinity) distance; requires equal dimensions.
  friend double chebyshev(const Point& a, const Point& b) noexcept;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Point& a, const Point& b) noexcept;

 private:
  std::array<double, kMaxDim> coords_{};
  std::size_t dim_ = 0;
};

/// Largest joint dimension 2d of E x E: the size of fixed arrays that hold
/// one value per joint column (bounding boxes, anchors, dimension orders).
inline constexpr std::size_t kMaxJointDim = 2 * Point::kMaxDim;

}  // namespace acn
