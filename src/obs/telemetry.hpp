// TelemetryHub: the one object a deployment wires in to observe the whole
// pipeline.
//
// The hub owns the two halves of the telemetry layer — the lock-cheap
// MetricsRegistry (cumulative counters/gauges/histograms, scrape-shaped)
// and the rolling TelemetryStore (per-interval records, query-shaped) —
// plus the region partition every per-region query is asked against
// (uniform dim-0 stripes of the QoS space [0,1]^d). Producers build one
// IntervalTelemetry per interval and call record(); the ingestion layer
// annotates the already recorded interval with its IngestSample after the
// seal. Everything here reads pipeline OUTPUTS (FrameStats, verdict sets,
// episode tallies) — by construction telemetry cannot change a Decision
// byte, and tests/obs/telemetry_conformance_test.cc pins that end to end.
#pragma once

#include <cstdint>
#include <vector>

#include "common/device_set.hpp"
#include "core/frame.hpp"
#include "core/point.hpp"
#include "core/state.hpp"
#include "obs/metrics.hpp"
#include "obs/store.hpp"

namespace acn::obs {

struct TelemetryConfig {
  /// Intervals the rolling store retains.
  std::size_t history = 512;
  /// Region partition granularity: dim-0 of [0,1]^d split into this many
  /// equal stripes (>= 1 enforced).
  std::uint32_t regions = 16;
  /// Lane shards of the metrics registry (see MetricsRegistry).
  unsigned lanes = 1;
};

/// The four engine phases of one observe() call as trace spans:
/// advance (state roll), grid (A_k indexing), plane (4r-closure build),
/// characterize (Theorems 5-7 fan-out) — ms and lane skew lifted from
/// FrameStats.
[[nodiscard]] std::vector<TraceSpan> spans_of(const FrameStats& stats);

/// The engine-side half of a record: spans, kernel counters, and the
/// interval shape from one observe() call. The caller fills the verdict
/// mix, episodes, and regions before handing it to TelemetryHub::record().
[[nodiscard]] IntervalTelemetry frame_record(std::uint64_t interval,
                                             double total_ms,
                                             const FrameStats& stats);

class TelemetryHub {
 public:
  explicit TelemetryHub(TelemetryConfig config);

  [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] TelemetryStore& store() noexcept { return store_; }
  [[nodiscard]] const TelemetryStore& store() const noexcept { return store_; }

  [[nodiscard]] std::uint32_t regions() const noexcept {
    return config_.regions;
  }
  /// Region of a QoS position: its dim-0 stripe.
  [[nodiscard]] std::uint32_t region_of(const Point& p) const noexcept;

  /// Tallies one interval's fleet and verdict sets into per-region stats
  /// (sized to regions()), scanning every device's position.
  [[nodiscard]] std::vector<RegionStats> tally_regions(
      const Snapshot& positions, const DeviceSet& abnormal,
      const DeviceSet& isolated, const DeviceSet& massive,
      const DeviceSet& unresolved) const;

  /// The same tally over the engine's rolling state, with the per-region
  /// device counts kept up to date from the roll's moved list (each moved
  /// device leaves its prev region for its curr region) instead of a scan
  /// of the fleet. `roll` is the engine's FrameEngine::intervals(); the
  /// full scan is the resync, run on the first call and whenever `roll` is
  /// not the one right after the previous call's — an interval the hub
  /// did not see.
  [[nodiscard]] std::vector<RegionStats> tally_regions(
      std::uint64_t roll, const StatePair& state, const DeviceSet& abnormal,
      const DeviceSet& isolated, const DeviceSet& massive,
      const DeviceSet& unresolved);

  /// Stores the record and folds it into the registry's standard metric
  /// set (intervals/decisions/degraded counters, the step-latency
  /// histogram, level gauges).
  void record(IntervalTelemetry record);

  /// Attaches the ingestion layer's per-seal sample to the already
  /// recorded interval (no-op when the interval has been evicted) and
  /// bumps the ingest counters of the registry.
  void annotate_ingest(std::uint64_t interval, const IngestSample& sample);

 private:
  /// Region of a dim-0 coordinate.
  [[nodiscard]] std::uint32_t region_of(double x0) const noexcept;
  /// Adds the verdict sets to `regions`, device j located by its dim-0
  /// coordinate x0[j].
  void tally_sets(std::vector<RegionStats>& regions, const double* x0,
                  const DeviceSet& abnormal, const DeviceSet& isolated,
                  const DeviceSet& massive, const DeviceSet& unresolved) const;

  TelemetryConfig config_;
  MetricsRegistry registry_;
  TelemetryStore store_;
  std::vector<std::uint32_t> region_devices_;  ///< per region, at counted_roll_
  std::uint64_t counted_roll_ = 0;

  struct StandardIds {
    MetricId intervals_total;
    MetricId degraded_total;
    MetricId abnormal_total;
    MetricId isolated_total;
    MetricId massive_total;
    MetricId unresolved_total;
    MetricId budget_exhausted_total;
    MetricId episodes_opened_total;
    MetricId episodes_closed_total;
    MetricId step_ms;
    MetricId fleet_devices;
    MetricId open_episodes;
    MetricId last_abnormal;
    MetricId ingest_late_total;
    MetricId ingest_duplicates_total;
    MetricId ingest_shed_total;
    MetricId ingest_replayed_total;
    MetricId ingest_forced_total;
    MetricId ingest_open_intervals;
  } ids_;
};

}  // namespace acn::obs
