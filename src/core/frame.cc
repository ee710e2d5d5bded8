#include "core/frame.hpp"

#include <chrono>
#include <stdexcept>

namespace acn {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

FrameEngine::FrameEngine(Config config)
    : config_(config), pool_(config.threads) {
  config_.model.validate();
}

std::optional<FrameEngine::Result> FrameEngine::observe(
    Snapshot positions, DeviceSet abnormal) {
  stats_ = {};
  const kernels::Counters kernel_before = kernels::counters_snapshot();
  const auto t0 = Clock::now();
  if (!state_.has_value()) {
    // Priming snapshot: no previous state, nothing to characterize (any
    // abnormal ids are moot — there is no interval they fired in).
    Snapshot prev = positions;  // the one unavoidable copy: both halves of S_0
    state_.emplace(std::move(prev), std::move(positions), DeviceSet{});
    stats_.state_ms = ms_since(t0);
    ++intervals_;
    return std::nullopt;
  }
  state_->advance(positions, std::move(abnormal));
  return characterize_interval(t0, kernel_before);
}

FrameEngine::Result FrameEngine::observe(const PositionUpdate& update,
                                         DeviceSet abnormal) {
  if (!state_.has_value()) {
    throw std::logic_error(
        "FrameEngine::observe: prime with a snapshot before feeding changes");
  }
  stats_ = {};
  const kernels::Counters kernel_before = kernels::counters_snapshot();
  const auto t0 = Clock::now();
  state_->roll(update, std::move(abnormal));
  return characterize_interval(t0, kernel_before);
}

FrameEngine::Result FrameEngine::characterize_interval(
    Clock::time_point t0, const kernels::Counters& kernel_before) {
  // The roll validated its input (strong guarantee) and now stands, so it
  // counts even if the plane build below throws.
  ++intervals_;
  const StatePair& state = *state_;
  stats_.state_ms = ms_since(t0);
  stats_.moved = state.moved().size();
  stats_.abnormal = state.abnormal().size();

  t0 = Clock::now();
  GridIndex index = MotionPlane::index_abnormal(state, config_.model);
  stats_.grid_ms = ms_since(t0);

  // Plane over A_k; the component enumeration fans out over the pool.
  t0 = Clock::now();
  std::vector<double> enumerate_lane_ms;
  std::vector<std::uint32_t> rank_table;
  if (plane_.has_value()) rank_table = plane_->release_rank_table();
  plane_.reset();
  plane_.emplace(state, config_.model, std::move(index), &pool_,
                 config_.component_fanout, &enumerate_lane_ms,
                 config_.plane_arena_budget, std::move(rank_table));
  stats_.plane_ms = ms_since(t0);
  stats_.plane_enum_lanes = LaneBreakdown::of(enumerate_lane_ms);
  stats_.components = plane_->counters().enumeration_calls;
  stats_.motions = plane_->motion_count();

  t0 = Clock::now();
  Result result;
  std::vector<double> lane_scratch;
  Characterizer characterizer(*plane_, config_.characterize);
  result.decisions = characterizer.decide_all_on(
      pool_, config_.characterize.parallel_grain, 0, &lane_scratch);
  stats_.characterize_lanes = LaneBreakdown::of(lane_scratch);
  std::vector<DeviceId> isolated;
  std::vector<DeviceId> massive;
  std::vector<DeviceId> unresolved;
  for (std::size_t i = 0; i < result.decisions.size(); ++i) {
    const DeviceId j = state.abnormal()[i];
    switch (result.decisions[i].cls) {
      case AnomalyClass::kIsolated: isolated.push_back(j); break;
      case AnomalyClass::kMassive: massive.push_back(j); break;
      case AnomalyClass::kUnresolved: unresolved.push_back(j); break;
    }
  }
  result.sets.isolated = DeviceSet::from_sorted(std::move(isolated));
  result.sets.massive = DeviceSet::from_sorted(std::move(massive));
  result.sets.unresolved = DeviceSet::from_sorted(std::move(unresolved));
  stats_.characterize_ms = ms_since(t0);
  stats_.kernel = kernels::counters_snapshot() - kernel_before;
  return result;
}

}  // namespace acn
