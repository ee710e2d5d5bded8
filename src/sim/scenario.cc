#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace acn {
namespace {

/// Row-major coordinates of `points`, the layout of StatePair's column
/// constructor.
std::vector<double> rows_of(const std::vector<Point>& points, std::size_t d) {
  std::vector<double> rows;
  rows.reserve(points.size() * d);
  for (const Point& p : points) rows.insert(rows.end(), p.coords().begin(), p.coords().end());
  return rows;
}

}  // namespace

void ScenarioParams::validate() const {
  model.validate();
  if (n < 2) throw std::invalid_argument("ScenarioParams: n must be >= 2");
  if (d == 0 || d > Point::kMaxDim) {
    throw std::invalid_argument("ScenarioParams: d out of range");
  }
  if (errors_per_step == 0) {
    throw std::invalid_argument("ScenarioParams: errors_per_step must be >= 1");
  }
  if (isolated_probability < 0.0 || isolated_probability > 1.0) {
    throw std::invalid_argument("ScenarioParams: G must be in [0, 1]");
  }
  if (r3_retry_limit < 1) {
    throw std::invalid_argument("ScenarioParams: r3_retry_limit must be >= 1");
  }
  if (concomitance < 0.0 || concomitance > 1.0) {
    throw std::invalid_argument("ScenarioParams: concomitance must be in [0, 1]");
  }
  if (concomitance_origin_factor <= 0.0 || concomitance_target_factor <= 0.0) {
    throw std::invalid_argument("ScenarioParams: concomitance factors must be > 0");
  }
  if (ball_radius_factor <= 0.0) {
    throw std::invalid_argument("ScenarioParams: ball_radius_factor must be > 0");
  }
}

ScenarioGenerator::ScenarioGenerator(ScenarioParams params)
    : params_(params), rng_(params.seed) {
  params_.validate();
  positions_.reserve(params_.n);
  std::vector<double> coords(params_.d);
  for (std::size_t j = 0; j < params_.n; ++j) {
    for (auto& x : coords) x = rng_.uniform();
    positions_.emplace_back(std::span<const double>(coords));
  }
}

void ScenarioGenerator::set_active(std::vector<bool> active) {
  if (!active.empty() && active.size() != params_.n) {
    throw std::invalid_argument(
        "ScenarioGenerator::set_active: mask size must be n (or 0 to reset)");
  }
  active_ = std::move(active);
  active_ids_.clear();
  for (DeviceId j = 0; j < active_.size(); ++j) {
    if (active_[j]) active_ids_.push_back(j);
  }
}

void ScenarioGenerator::displace(DeviceId j, const Point& position) {
  if (j >= params_.n) {
    throw std::invalid_argument("ScenarioGenerator::displace: unknown device");
  }
  if (position.dim() != params_.d) {
    throw std::invalid_argument("ScenarioGenerator::displace: dimension mismatch");
  }
  if (!position.in_unit_box()) {
    throw std::invalid_argument(
        "ScenarioGenerator::displace: position outside [0,1]^d");
  }
  positions_[j] = position;
}

std::vector<DeviceId> ScenarioGenerator::ball_members(
    DeviceId centre, double radius, const std::vector<bool>& used) const {
  std::vector<DeviceId> members;
  const Point& c = positions_[centre];
  for (DeviceId j = 0; j < params_.n; ++j) {
    if (j == centre || used[j] || !is_active(j)) continue;
    if (chebyshev(positions_[j], c) <= radius) members.push_back(j);
  }
  return members;
}

std::vector<double> ScenarioGenerator::draw_feasible_displacement(
    const std::vector<DeviceId>& group, const Point* attractor, double reach) {
  // Per dimension, delta must keep [min, max] of the group inside [0, 1].
  std::vector<double> delta(params_.d);
  for (std::size_t i = 0; i < params_.d; ++i) {
    double lo = 1.0;
    double hi = 0.0;
    for (const DeviceId j : group) {
      lo = std::min(lo, positions_[j][i]);
      hi = std::max(hi, positions_[j][i]);
    }
    if (attractor == nullptr) {
      delta[i] = rng_.uniform(-lo, 1.0 - hi);
    } else {
      // Pull the anchor's target near the attractor, staying feasible.
      const double wanted =
          (*attractor)[i] + rng_.uniform(-reach, reach) - positions_[group[0]][i];
      delta[i] = std::clamp(wanted, -lo, 1.0 - hi);
    }
  }
  return delta;
}

bool ScenarioGenerator::separated_from_all(
    const std::vector<DeviceId>& group,
    const std::vector<std::vector<double>>& tentative_curr,
    const std::vector<PlacedGroup>& placed, const std::vector<Point>& prev,
    const std::vector<Point>& curr) const {
  const double window = params_.model.window();
  for (const PlacedGroup& other : placed) {
    for (std::size_t gi = 0; gi < group.size(); ++gi) {
      for (const DeviceId b : other.members) {
        // Joint distance = max of the distances at k-1 and k.
        double prev_dist = chebyshev(prev[group[gi]], prev[b]);
        double curr_dist = 0.0;
        for (std::size_t i = 0; i < params_.d; ++i) {
          curr_dist = std::max(curr_dist,
                               std::fabs(tentative_curr[gi][i] - curr[b][i]));
        }
        if (std::max(prev_dist, curr_dist) <= window) return false;
      }
    }
  }
  return true;
}

ScenarioStep ScenarioGenerator::advance() {
  return advance(params_.errors_per_step);
}

ScenarioStep ScenarioGenerator::advance(std::uint32_t errors) {
  const std::vector<Point>& prev = positions_;  // S_{k-1}; replaced at the end
  std::vector<Point> curr = positions_;
  std::vector<bool> used(params_.n, false);

  StepTruth truth;
  std::vector<PlacedGroup> placed;

  // The interval's concomitance regime: one underlying network condition
  // with an origin region (where the concomitant errors strike) and a
  // target operating point (towards which they degrade the QoS).
  std::vector<double> regime_coords(params_.d);
  for (auto& x : regime_coords) x = rng_.uniform();
  const Point regime_origin{std::span<const double>(regime_coords)};
  for (auto& x : regime_coords) x = rng_.uniform();
  const Point regime_target{std::span<const double>(regime_coords)};
  const double origin_reach = params_.concomitance_origin_factor * params_.model.window();
  const double target_reach = params_.concomitance_target_factor * params_.model.window();

  // Any-active-device fallback draw (uniform over the whole fleet while no
  // churn mask is installed, keeping the clean stream bit-identical).
  const auto draw_any_anchor = [&]() -> DeviceId {
    if (active_.empty()) return static_cast<DeviceId>(rng_.uniform_int(params_.n));
    return active_ids_[rng_.uniform_int(active_ids_.size())];
  };

  // Picks an unused active device near the regime origin (fallback: any).
  const auto draw_regime_anchor = [&]() -> DeviceId {
    std::vector<DeviceId> region;
    for (DeviceId j = 0; j < params_.n; ++j) {
      if (!used[j] && is_active(j) &&
          chebyshev(positions_[j], regime_origin) <= origin_reach) {
        region.push_back(j);
      }
    }
    if (region.empty()) return draw_any_anchor();
    return region[rng_.uniform_int(region.size())];
  };

  // Anchors are drawn over the whole fleet while no mask is installed (the
  // historical stream) and over the active ids under churn.
  const auto eligible =
      active_.empty() ? params_.n : active_ids_.size();
  const auto anchor_count =
      static_cast<std::uint32_t>(std::min<std::size_t>(errors, eligible));
  auto anchors = rng_.sample_without_replacement(
      static_cast<std::uint32_t>(eligible), anchor_count);
  if (!active_.empty()) {
    for (auto& anchor : anchors) anchor = active_ids_[anchor];
  }

  // Massive errors are placed first so isolated groups (placed second) can be
  // separation-tested against every other group — that is what R3 demands.
  std::vector<DeviceId> isolated_anchors;
  std::vector<DeviceId> massive_anchors;
  for (const DeviceId anchor : anchors) {
    if (rng_.bernoulli(params_.isolated_probability)) {
      isolated_anchors.push_back(anchor);
    } else {
      massive_anchors.push_back(anchor);
    }
  }

  const auto build_group = [&](DeviceId anchor, bool isolated) {
    std::vector<DeviceId> group = {anchor};
    std::vector<DeviceId> ball = ball_members(
        anchor, params_.ball_radius_factor * params_.model.r, used);
    rng_.shuffle(ball);
    std::size_t extra = 0;
    if (isolated) {
      // Group size <= tau: anchor plus up to tau-1 ball members.
      const std::size_t cap = std::min<std::size_t>(params_.model.tau - 1, ball.size());
      extra = cap == 0 ? 0 : static_cast<std::size_t>(rng_.uniform_int(cap + 1));
    } else if (!ball.empty()) {
      // Group size > tau where the ball allows it: t in [tau, hi].
      const std::size_t lo = std::min<std::size_t>(params_.model.tau, ball.size());
      const std::size_t hi = std::min<std::size_t>(
          ball.size(), static_cast<std::size_t>(params_.model.tau) +
                           static_cast<std::size_t>(params_.max_massive_extra));
      extra = lo + static_cast<std::size_t>(rng_.uniform_int(hi - lo + 1));
    }
    group.insert(group.end(), ball.begin(), ball.begin() + extra);
    return group;
  };

  const auto place_group = [&](DeviceId anchor, bool isolated, bool concomitant) {
    if (used[anchor]) return;  // R1: one error per device per interval
    std::vector<DeviceId> group = build_group(anchor, isolated);

    const Point* attractor = concomitant ? &regime_target : nullptr;

    const int attempts = params_.enforce_r3 && isolated ? params_.r3_retry_limit : 1;
    std::vector<std::vector<double>> tentative(group.size(),
                                               std::vector<double>(params_.d));
    bool ok = false;
    for (int attempt = 0; attempt < attempts && !ok; ++attempt) {
      // An isolated group that must honour R3 abandons the regime once
      // re-draws are needed (separation beats concomitance).
      const std::vector<double> delta = draw_feasible_displacement(
          group, attempt == 0 ? attractor : nullptr, target_reach);
      for (std::size_t gi = 0; gi < group.size(); ++gi) {
        for (std::size_t i = 0; i < params_.d; ++i) {
          tentative[gi][i] = positions_[group[gi]][i] + delta[i];
        }
      }
      ok = !params_.enforce_r3 || !isolated ||
           separated_from_all(group, tentative, placed, prev, curr);
    }
    if (!ok) {
      ++truth.dropped_errors;
      return;
    }

    for (std::size_t gi = 0; gi < group.size(); ++gi) {
      curr[group[gi]] = Point(std::span<const double>(tentative[gi]));
      used[group[gi]] = true;
    }
    ErrorEvent event;
    event.devices = DeviceSet(group);
    event.massive = event.devices.size() > params_.model.tau;
    truth.abnormal = truth.abnormal.set_union(event.devices);
    if (event.massive) {
      truth.truly_massive = truth.truly_massive.set_union(event.devices);
    } else {
      truth.truly_isolated = truth.truly_isolated.set_union(event.devices);
    }
    placed.push_back(PlacedGroup{std::move(group), isolated});
    truth.events.push_back(std::move(event));
  };

  for (DeviceId anchor : massive_anchors) {
    const bool concomitant = rng_.bernoulli(params_.concomitance);
    if (concomitant) anchor = draw_regime_anchor();
    // A massive error needs at least tau co-located victims; optionally
    // re-draw the anchor until its ball is populated enough.
    for (std::uint32_t retry = 0; retry < params_.massive_anchor_retries; ++retry) {
      if (used[anchor]) break;
      const auto ball = ball_members(
          anchor, params_.ball_radius_factor * params_.model.r, used);
      if (ball.size() >= params_.model.tau) break;
      anchor = concomitant ? draw_regime_anchor() : draw_any_anchor();
    }
    place_group(anchor, false, concomitant);
  }
  for (const DeviceId anchor : isolated_anchors) {
    place_group(anchor, true, rng_.bernoulli(params_.concomitance));
  }

  StatePair state(params_.d, rows_of(prev, params_.d), rows_of(curr, params_.d),
                  truth.abnormal);
  positions_ = std::move(curr);
  ++steps_;
  return ScenarioStep{std::move(state), std::move(truth)};
}

}  // namespace acn
