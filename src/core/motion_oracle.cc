#include "core/motion_oracle.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <stdexcept>

#include "core/kernels/kernels.hpp"

namespace acn {

MotionOracle::MotionOracle(const StatePair& state, Params params)
    : state_(state), params_(params), plane_(nullptr) {
  params_.validate();
}

MotionOracle::MotionOracle(const MotionPlane& plane)
    : state_(plane.state()),
      params_(plane.params()),
      plane_(&plane),
      counters_(plane.counters()) {}

const MotionPlane& MotionOracle::ensure_plane() const {
  if (plane_ == nullptr) {
    owned_plane_.emplace(state_, params_);
    plane_ = &*owned_plane_;
    const OracleCounters& built = plane_->counters();
    counters_.neighbourhood_queries += built.neighbourhood_queries;
    counters_.windows_explored += built.windows_explored;
    counters_.covers_generated += built.covers_generated;
    counters_.enumeration_calls += built.enumeration_calls;
    counters_.motions_stored += built.motions_stored;
    counters_.motions_shared += built.motions_shared;
  }
  return *plane_;
}

std::span<const DeviceId> MotionOracle::neighbourhood(DeviceId j) {
  if (const auto it = neighbourhood_memo_.find(j); it != neighbourhood_memo_.end()) {
    return it->second;
  }
  const MotionPlane& plane = ensure_plane();
  ++counters_.neighbourhood_queries;
  auto neighbours = plane.within(j, params_.window());
  return neighbourhood_memo_.emplace(j, std::move(neighbours)).first->second;
}

const std::vector<DeviceSet>& MotionOracle::maximal_motions(DeviceId j) {
  if (const auto it = motions_memo_.find(j); it != motions_memo_.end()) {
    return it->second;
  }
  const MotionPlane& plane = ensure_plane();
  if (!plane.covers(j)) {
    throw std::invalid_argument("maximal_motions: device " + std::to_string(j) +
                                " is not in A_k");
  }
  std::vector<DeviceSet> motions;
  const auto family = plane.maximal(j);
  motions.reserve(family.size());
  for (const MotionPlane::MotionId mid : family) {
    motions.push_back(DeviceSet(plane.members(mid)));
  }
  return motions_memo_.emplace(j, std::move(motions)).first->second;
}

const std::vector<DeviceSet>& MotionOracle::dense_motions(DeviceId j) {
  if (const auto it = dense_memo_.find(j); it != dense_memo_.end()) {
    return it->second;
  }
  const MotionPlane& plane = ensure_plane();
  if (!plane.covers(j)) {
    throw std::invalid_argument("dense_motions: device " + std::to_string(j) +
                                " is not in A_k");
  }
  std::vector<DeviceSet> dense;
  const auto family = plane.dense(j);
  dense.reserve(family.size());
  for (const MotionPlane::MotionId mid : family) {
    dense.push_back(DeviceSet(plane.members(mid)));
  }
  return dense_memo_.emplace(j, std::move(dense)).first->second;
}

std::vector<DeviceSet> MotionOracle::maximal_motions_excluding(
    DeviceId j, const DeviceSet& removed) {
  std::vector<DeviceId> pool;
  for (const DeviceId candidate : neighbourhood(j)) {
    if (!removed.contains(candidate)) pool.push_back(candidate);
  }
  ++counters_.enumeration_calls;
  return enumerate_maximal_windows(state_, params_, std::move(pool), j, &counters_);
}

bool MotionOracle::has_dense_motion_avoiding(DeviceId j, const DeviceSet& removed) {
  if (removed.contains(j)) return false;  // no motion containing j survives
  const AvoidKey key{j, removed.hash()};
  if (const auto it = avoid_memo_.find(key); it != avoid_memo_.end()) {
    return it->second;
  }
  // Counting identity over the precomputed family: a dense motion containing
  // j within A_k \ removed exists iff some maximal dense motion M of j keeps
  // more than tau members outside `removed` (that remainder contains j and
  // is a motion as a subset of M; conversely any surviving dense motion
  // extends to a maximal motion of the full pool, whose remainder is at
  // least as large). Replaces the anchored window slide the seed ran per
  // query — the innermost operation of the Theorem-7 search.
  bool found = false;
  const MotionPlane& plane = ensure_plane();
  if (plane.covers(j)) {
    for (const MotionPlane::MotionId mid : plane.dense(j)) {
      std::size_t survivors = 0;
      for (const DeviceId member : plane.members(mid)) {
        if (!removed.contains(member)) ++survivors;
      }
      if (survivors > params_.tau) {
        found = true;
        break;
      }
    }
  } else {
    // Non-abnormal query device: no precomputed family; slide on demand.
    std::vector<DeviceId> pool;
    for (const DeviceId candidate : neighbourhood(j)) {
      if (!removed.contains(candidate)) pool.push_back(candidate);
    }
    found = exists_dense_cover(pool, j);
  }
  avoid_memo_.emplace(key, found);
  return found;
}

bool MotionOracle::exists_dense_cover(std::span<const DeviceId> pool, DeviceId anchor) {
  return exists_dense_window_cover(state_, params_, pool, anchor,
                                   &counters_.windows_explored);
}

bool exists_dense_window_cover(const StatePair& state, const Params& params,
                               std::span<const DeviceId> pool,
                               std::optional<DeviceId> anchor,
                               std::uint64_t* windows_explored) {
  if (pool.size() <= params.tau) return false;
  const double window = params.window();

  // This slide visits dimensions in natural order; the shared tight-cluster
  // cut takes the remaining suffix of this identity order.
  static constexpr auto kIdentityDims = [] {
    std::array<std::size_t, 2 * Point::kMaxDim> dims{};
    for (std::size_t i = 0; i < dims.size(); ++i) dims[i] = i;
    return dims;
  }();

  // Same canonical-window slide as `enumerate_maximal_windows`, but returns
  // at the first window whose cover is dense — no maximal-family
  // materialization. Inner loops scan the columnar joint layout.
  const std::function<bool(std::span<const DeviceId>, std::size_t)> slide_any =
      [&](std::span<const DeviceId> active, std::size_t dim_index) -> bool {
    if (active.size() <= params.tau) return false;  // can only shrink further
    if (dim_index == state.joint_dim()) return true;

    // Tight-cluster cut (spans_fit_window, shared with the motion-plane
    // slide): if the active set spans at most 2r in every remaining
    // dimension, one window covers it whole — and it is already dense.
    if (spans_fit_window(state, window, active,
                         std::span<const std::size_t>{
                             kIdentityDims.data() + dim_index,
                             state.joint_dim() - dim_index})) {
      if (windows_explored != nullptr) ++*windows_explored;
      return true;
    }

    const double* col = state.joint_col(dim_index);
    std::vector<double> edges;
    edges.reserve(active.size());
    if (anchor.has_value()) {
      const double ax = col[*anchor];
      const double lo = ax - window;
      for (const DeviceId id : active) {
        const double x = col[id];
        if (x >= lo && x <= ax) edges.push_back(x);
      }
    } else {
      for (const DeviceId id : active) edges.push_back(col[id]);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    // Same kernel-dispatched filter as the plane's slide (byte-identical to
    // the plain double compare loop; see core/kernels/quantize.hpp).
    const kernels::Ops& ops = kernels::dispatch();
    const std::uint32_t* qcol = state.qcol(dim_index);
    std::vector<DeviceId> next;
    next.reserve(active.size());
    for (const double lower : edges) {
      if (windows_explored != nullptr) ++*windows_explored;
      const kernels::WindowBoundsQ bounds =
          kernels::window_bounds(lower, lower + window);
      next.resize(active.size());
      next.resize(ops.filter_in_window(qcol, col, active.data(), active.size(),
                                       bounds, next.data()));
      if (slide_any(next, dim_index + 1)) return true;
    }
    return false;
  };
  return slide_any(pool, 0);
}

std::vector<DeviceSet> MotionOracle::maximal_motions_of_pool(
    std::vector<DeviceId> pool) const {
  return enumerate_maximal_windows(state_, params_, std::move(pool), std::nullopt,
                                   &counters_);
}

std::vector<DeviceSet> MotionOracle::maximal_motions_in_pool(
    DeviceId j, std::vector<DeviceId> pool) const {
  const auto it = std::find(pool.begin(), pool.end(), j);
  if (it == pool.end()) {
    throw std::invalid_argument("maximal_motions_in_pool: anchor not in pool");
  }
  return enumerate_maximal_windows(state_, params_, std::move(pool), j, &counters_);
}

}  // namespace acn
