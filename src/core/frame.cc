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
    : config_(config),
      pool_(config.threads),
      grid_(std::max(config.model.window(), kMinGridCell),
            config.shards != 0 ? config.shards : pool_.parallelism()),
      source_(*this) {
  config_.model.validate();
}

std::optional<FrameEngine::Result> FrameEngine::observe(
    Snapshot positions, DeviceSet abnormal) {
  stats_ = {};
  stats_.shards = grid_.shards();
  const kernels::Counters kernel_before = kernels::counters_snapshot();
  auto t0 = Clock::now();
  if (!state_.has_value()) {
    // Priming snapshot: no previous state, nothing to characterize (any
    // abnormal ids are moot — there is no interval they fired in).
    Snapshot prev = positions;  // the one unavoidable copy: both halves of S_0
    state_.emplace(std::move(prev), std::move(positions), DeviceSet{});
    abnormal_flag_.assign(state_->n(), 0);
    stats_.state_ms = ms_since(t0);
    t0 = Clock::now();
    std::vector<double> lane_ms;
    grid_.rebuild(*state_, &pool_, &lane_ms);
    stats_.grid_ms = ms_since(t0);
    stats_.grid_lanes = LaneBreakdown::of(lane_ms);
    ++intervals_;
    return std::nullopt;
  }
  const DeviceSet previous_abnormal = state_->abnormal();
  state_->advance(positions, std::move(abnormal));
  return characterize_interval(t0, previous_abnormal, kernel_before);
}

FrameEngine::Result FrameEngine::observe(const PositionUpdate& update,
                                         DeviceSet abnormal) {
  if (!state_.has_value()) {
    throw std::logic_error(
        "FrameEngine::observe: prime with a snapshot before feeding changes");
  }
  stats_ = {};
  stats_.shards = grid_.shards();
  const kernels::Counters kernel_before = kernels::counters_snapshot();
  const auto t0 = Clock::now();
  const DeviceSet previous_abnormal = state_->abnormal();
  state_->roll(update, std::move(abnormal));
  return characterize_interval(t0, previous_abnormal, kernel_before);
}

FrameEngine::Result FrameEngine::characterize_interval(
    Clock::time_point t0, const DeviceSet& previous_abnormal,
    const kernels::Counters& kernel_before) {
  // The roll validated its input (strong guarantee) and now stands, so it
  // counts even if the plane build below throws. Swap the A_k mask from
  // the previous interval's ids to the new ones — O(|A_{k-1}| + |A_k|).
  ++intervals_;
  const StatePair& state = *state_;
  const std::span<const DeviceId> moved = state.moved();
  for (const DeviceId j : previous_abnormal) abnormal_flag_[j] = 0;
  for (const DeviceId j : state.abnormal()) abnormal_flag_[j] = 1;
  stats_.state_ms = ms_since(t0);
  stats_.moved = moved.size();
  stats_.abnormal = state.abnormal().size();
  std::vector<double> lane_scratch;

  // Grid re-bucket in two steps: the serial halo exchange routes each
  // move's bucket edits to the owner shards, then every shard drains its
  // queue concurrently (disjoint maps — no locks).
  t0 = Clock::now();
  grid_.stage(state, moved);
  stats_.halo_ms = ms_since(t0);
  const auto t_apply = Clock::now();
  grid_.apply_staged(state, &pool_, &lane_scratch);
  stats_.grid_ms = stats_.halo_ms + ms_since(t_apply);
  stats_.grid_lanes = LaneBreakdown::of(lane_scratch);

  // Plane over the 4r-closure of A_k: neighbourhoods come from the sharded
  // fleet grid masked to A_k (cross-shard halo reads are plain lookups into
  // immutable neighbour maps), both build passes fan out over the pool.
  t0 = Clock::now();
  PlaneBuildLanes plane_lanes;
  plane_.reset();
  plane_.emplace(state, config_.model, source_, &pool_, config_.component_fanout,
                 &plane_lanes, config_.plane_arena_budget);
  stats_.plane_ms = ms_since(t0);
  stats_.plane_query_lanes = LaneBreakdown::of(plane_lanes.query_lane_ms);
  stats_.plane_enum_lanes = LaneBreakdown::of(plane_lanes.enumerate_lane_ms);
  stats_.components = plane_->counters().enumeration_calls;
  stats_.motions = plane_->motion_count();

  t0 = Clock::now();
  Result result;
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
