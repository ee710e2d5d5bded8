#include "obs/telemetry.hpp"

#include <algorithm>

namespace acn::obs {

std::vector<TraceSpan> spans_of(const FrameStats& stats) {
  const auto span = [](const char* name, double ms,
                       const LaneBreakdown& lanes) {
    return TraceSpan{name, ms, lanes.max_ms, lanes.mean_ms, lanes.lanes};
  };
  return {
      span("advance", stats.state_ms, LaneBreakdown{}),
      span("grid", stats.grid_ms, LaneBreakdown{}),
      span("plane", stats.plane_ms, stats.plane_enum_lanes),
      span("characterize", stats.characterize_ms, stats.characterize_lanes),
  };
}

IntervalTelemetry frame_record(std::uint64_t interval, double total_ms,
                               const FrameStats& stats) {
  IntervalTelemetry record;
  record.interval = interval;
  record.total_ms = total_ms;
  record.spans = spans_of(stats);
  record.kernel = stats.kernel;
  record.moved = stats.moved;
  record.components = stats.components;
  record.motions = stats.motions;
  return record;
}

TelemetryHub::TelemetryHub(TelemetryConfig config)
    : config_([&] {
        if (config.regions == 0) config.regions = 1;
        return config;
      }()),
      registry_(config_.lanes),
      store_(config_.history),
      ids_{} {
  ids_.intervals_total =
      registry_.counter("acn_intervals_total", "Intervals observed");
  ids_.degraded_total = registry_.counter(
      "acn_degraded_intervals_total",
      "Intervals sealed degraded (shed, deferred, or forced close)");
  ids_.abnormal_total = registry_.counter("acn_abnormal_devices_total",
                                          "Abnormal device-intervals (|A_k|)");
  ids_.isolated_total =
      registry_.counter("acn_verdict_isolated_total", "Isolated verdicts");
  ids_.massive_total =
      registry_.counter("acn_verdict_massive_total", "Massive verdicts");
  ids_.unresolved_total =
      registry_.counter("acn_verdict_unresolved_total", "Unresolved verdicts");
  ids_.budget_exhausted_total = registry_.counter(
      "acn_budget_exhausted_total",
      "Decisions that exhausted the Theorem-7 search budget (safe-side)");
  ids_.episodes_opened_total =
      registry_.counter("acn_episodes_opened_total", "Episodes opened");
  ids_.episodes_closed_total =
      registry_.counter("acn_episodes_closed_total", "Episodes closed");
  ids_.step_ms = registry_.histogram(
      "acn_step_ms", "Wall-clock milliseconds per observed interval",
      {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  ids_.fleet_devices =
      registry_.gauge("acn_fleet_devices", "Devices in the observed fleet");
  ids_.open_episodes =
      registry_.gauge("acn_open_episodes", "Episodes currently open");
  ids_.last_abnormal = registry_.gauge("acn_last_abnormal",
                                       "|A_k| of the latest interval");
  ids_.ingest_late_total = registry_.counter(
      "acn_ingest_late_sealed_total",
      "Reports for already-sealed intervals (claim replayed)");
  ids_.ingest_duplicates_total = registry_.counter(
      "acn_ingest_duplicates_total", "Duplicate report deliveries absorbed");
  ids_.ingest_shed_total = registry_.counter(
      "acn_ingest_shed_claims_total", "Claim updates shed under overload");
  ids_.ingest_replayed_total = registry_.counter(
      "acn_ingest_replayed_claims_total",
      "Active devices sealed without a report (last claim replayed)");
  ids_.ingest_forced_total = registry_.counter(
      "acn_ingest_forced_closes_total", "Timeout/flood forced seals");
  ids_.ingest_open_intervals = registry_.gauge(
      "acn_ingest_open_intervals", "Staging frames currently open");
}

std::uint32_t TelemetryHub::region_of(const Point& p) const noexcept {
  return region_of(p[0]);
}

std::uint32_t TelemetryHub::region_of(double x0) const noexcept {
  const double scaled = x0 * static_cast<double>(config_.regions);
  const auto region = static_cast<std::uint32_t>(scaled < 0.0 ? 0.0 : scaled);
  return std::min(region, config_.regions - 1);
}

std::vector<RegionStats> TelemetryHub::tally_regions(
    const Snapshot& positions, const DeviceSet& abnormal,
    const DeviceSet& isolated, const DeviceSet& massive,
    const DeviceSet& unresolved) const {
  std::vector<RegionStats> regions(config_.regions);
  std::vector<double> x0(positions.size());
  for (DeviceId j = 0; j < positions.size(); ++j) {
    x0[j] = positions[j][0];
    ++regions[region_of(x0[j])].devices;
  }
  tally_sets(regions, x0.data(), abnormal, isolated, massive, unresolved);
  return regions;
}

std::vector<RegionStats> TelemetryHub::tally_regions(
    std::uint64_t roll, const StatePair& state, const DeviceSet& abnormal,
    const DeviceSet& isolated, const DeviceSet& massive,
    const DeviceSet& unresolved) {
  // Dimension 0 at k-1 and at k: joint columns 0 and dim().
  const double* prev_x0 = state.joint_col(0);
  const double* curr_x0 = state.joint_col(state.dim());
  if (!region_devices_.empty() && roll == counted_roll_ + 1) {
    for (const DeviceId j : state.moved()) {
      --region_devices_[region_of(prev_x0[j])];
      ++region_devices_[region_of(curr_x0[j])];
    }
  } else {
    region_devices_.assign(config_.regions, 0);
    for (DeviceId j = 0; j < state.n(); ++j) {
      ++region_devices_[region_of(curr_x0[j])];
    }
  }
  counted_roll_ = roll;
  std::vector<RegionStats> regions(config_.regions);
  for (std::uint32_t r = 0; r < config_.regions; ++r) {
    regions[r].devices = region_devices_[r];
  }
  tally_sets(regions, curr_x0, abnormal, isolated, massive, unresolved);
  return regions;
}

void TelemetryHub::tally_sets(std::vector<RegionStats>& regions,
                              const double* x0,
                              const DeviceSet& abnormal,
                              const DeviceSet& isolated,
                              const DeviceSet& massive,
                              const DeviceSet& unresolved) const {
  const auto tally = [&](const DeviceSet& set, std::uint32_t RegionStats::*member) {
    for (const DeviceId j : set.ids()) {
      regions[region_of(x0[j])].*member += 1;
    }
  };
  tally(abnormal, &RegionStats::abnormal);
  tally(isolated, &RegionStats::isolated);
  tally(massive, &RegionStats::massive);
  tally(unresolved, &RegionStats::unresolved);
}

void TelemetryHub::record(IntervalTelemetry record) {
  registry_.add(ids_.intervals_total);
  if (record.degraded) registry_.add(ids_.degraded_total);
  registry_.add(ids_.abnormal_total, record.abnormal);
  registry_.add(ids_.isolated_total, record.isolated);
  registry_.add(ids_.massive_total, record.massive);
  registry_.add(ids_.unresolved_total, record.unresolved);
  registry_.add(ids_.budget_exhausted_total, record.budget_exhausted);
  registry_.add(ids_.episodes_opened_total, record.episodes_opened);
  registry_.add(ids_.episodes_closed_total, record.episodes_closed);
  registry_.observe(ids_.step_ms, record.total_ms);
  registry_.set(ids_.fleet_devices, static_cast<double>(record.devices));
  registry_.set(ids_.open_episodes,
                static_cast<double>(record.episodes_open));
  registry_.set(ids_.last_abnormal, static_cast<double>(record.abnormal));
  store_.push(std::move(record));
}

void TelemetryHub::annotate_ingest(std::uint64_t interval,
                                   const IngestSample& sample) {
  registry_.add(ids_.ingest_late_total, sample.late_sealed);
  registry_.add(ids_.ingest_duplicates_total, sample.duplicates);
  registry_.add(ids_.ingest_shed_total, sample.shed_claims);
  registry_.add(ids_.ingest_replayed_total, sample.replayed);
  if (sample.forced) registry_.add(ids_.ingest_forced_total);
  registry_.set(ids_.ingest_open_intervals,
                static_cast<double>(sample.open_intervals));
  if (IntervalTelemetry* record = store_.find(interval)) {
    record->ingest = sample;
  }
}

}  // namespace acn::obs
