#include "online/monitor.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace acn {

OnlineMonitor::OnlineMonitor(Config config)
    : config_(config),
      engine_(FrameEngine::Config{.model = config.model,
                                  .characterize = config.characterize,
                                  .threads = config.characterize_threads}),
      episodes_(config.episode_quiet_intervals) {
  if (config_.adaptive.has_value()) sampler_.emplace(*config_.adaptive);
  if (config_.roster_capacity > 0) {
    roster_.emplace(config_.roster_capacity, config_.roster_dim);
  }
  if (config_.telemetry.has_value()) {
    hub_ = std::make_unique<obs::TelemetryHub>(*config_.telemetry);
  }
}

void OnlineMonitor::roster_mode_off(const char* method) {
  throw std::logic_error(std::string("OnlineMonitor::") + method +
                         ": roster mode is off");
}

DeviceId OnlineMonitor::admit(GatewayKey key, const Point& position) {
  if (!roster_.has_value()) roster_mode_off("admit");
  return roster_->admit(key, position);
}

void OnlineMonitor::retire(GatewayKey key) {
  if (!roster_.has_value()) roster_mode_off("retire");
  // A late force-close can race an explicit retirement (operator removal
  // vs. the ingestion layer's liveness expiry): the second retire of the
  // same gateway is a no-op, never a throw and never a second episode.
  const std::optional<DeviceId> slot = roster_->slot_of(key);
  if (!slot.has_value()) return;
  // Close the slot's episode before the slot can be recycled: a new
  // occupant must never extend the departed gateway's incident.
  episodes_.close(*slot);
  roster_->retire(key);
}

void OnlineMonitor::report(GatewayKey key, const Point& position) {
  if (!roster_.has_value()) roster_mode_off("report");
  roster_->report(key, position);
}

IntervalReport OnlineMonitor::close_interval(
    std::span<const GatewayKey> abnormal_keys, bool degraded) {
  if (!roster_.has_value()) roster_mode_off("close_interval");
  const DeviceSet abnormal = roster_->abnormal_slots(abnormal_keys);
  roster_->end_interval();
  const auto start = std::chrono::steady_clock::now();
  std::optional<FrameEngine::Result> result;
  if (engine_.primed()) {
    roster_->changes(changes_);
    result = engine_.observe(changes_, abnormal);
  } else {
    result = engine_.observe(roster_->snapshot(), abnormal);
  }
  // Only now, with the roll in: an observe() that threw keeps the set, and
  // the next interval re-offers it (the roll drops what already landed).
  roster_->clear_changes();
  return finish_interval(result, abnormal, degraded, start);
}

const FleetRoster& OnlineMonitor::roster() const {
  if (!roster_.has_value()) roster_mode_off("roster");
  return *roster_;
}

IntervalReport OnlineMonitor::observe(Snapshot positions,
                                      const DeviceSet& abnormal,
                                      bool degraded) {
  if (roster_.has_value()) {
    throw std::logic_error(
        "OnlineMonitor::observe: roster mode feeds the engine through "
        "close_interval()");
  }
  const auto start = std::chrono::steady_clock::now();
  const std::optional<FrameEngine::Result> result =
      engine_.observe(std::move(positions), abnormal);
  return finish_interval(result, abnormal, degraded, start);
}

IntervalReport OnlineMonitor::finish_interval(
    const std::optional<FrameEngine::Result>& result,
    const DeviceSet& abnormal, bool degraded,
    std::chrono::steady_clock::time_point start) {
  // Episode-transition baselines: open + closed only ever grows by one per
  // episode opened, closed only by one per episode closed.
  const std::size_t episodes_started_before =
      hub_ ? episodes_.closed().size() + episodes_.open_count() : 0;
  const std::size_t episodes_closed_before = hub_ ? episodes_.closed().size() : 0;

  IntervalReport report;
  report.interval = interval_;
  report.abnormal = abnormal;
  report.degraded = degraded;
  if (result.has_value() && !abnormal.empty()) {
    const DeviceSet& ordered = engine_.state().abnormal();
    for (std::size_t i = 0; i < result->decisions.size(); ++i) {
      report.decisions.emplace(ordered[i], result->decisions[i]);
    }
    report.isolated = result->sets.isolated;
    report.massive = result->sets.massive;
    report.unresolved = result->sets.unresolved;
  }

  // Episode bookkeeping and the adaptive controller run on every interval,
  // including quiet ones.
  std::map<DeviceId, AnomalyClass> verdict_of;
  for (const auto& [device, decision] : report.decisions) {
    verdict_of.emplace(device, decision.cls);
  }
  episodes_.observe(interval_, verdict_of);
  if (sampler_.has_value()) {
    (void)sampler_->next_interval(!report.abnormal.empty());
  }

  // Telemetry reads only the interval's OUTPUTS (report sets, engine stats,
  // episode tallies), after every decision has been made — it cannot change
  // a verdict byte (tests/obs/telemetry_conformance_test.cc pins this).
  if (hub_) {
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    obs::IntervalTelemetry record =
        obs::frame_record(interval_, ms, engine_.last_stats());
    const StatePair& state = engine_.state();
    record.devices = static_cast<std::uint32_t>(state.n());
    record.abnormal = static_cast<std::uint32_t>(report.abnormal.size());
    record.isolated = static_cast<std::uint32_t>(report.isolated.size());
    record.massive = static_cast<std::uint32_t>(report.massive.size());
    record.unresolved = static_cast<std::uint32_t>(report.unresolved.size());
    for (const auto& [device, decision] : report.decisions) {
      if (decision.rule == DecisionRule::kBudgetExhausted) {
        ++record.budget_exhausted;
      }
    }
    record.degraded = degraded;
    record.episodes_closed = static_cast<std::uint32_t>(
        episodes_.closed().size() - episodes_closed_before);
    record.episodes_opened = static_cast<std::uint32_t>(
        episodes_.closed().size() + episodes_.open_count() -
        episodes_started_before);
    record.episodes_open = episodes_.open_count();
    record.regions = hub_->tally_regions(engine_.intervals(), state,
                                         report.abnormal, report.isolated,
                                         report.massive, report.unresolved);
    hub_->record(std::move(record));
  }

  ++interval_;
  return report;
}

}  // namespace acn
