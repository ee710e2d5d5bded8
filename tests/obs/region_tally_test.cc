// Incremental per-region device counts: the telemetry hub keeps each
// region's device count up to date from the roll's moved list instead of
// scanning the fleet every interval. Over churned hostile streams — fed
// straight to the fixed-fleet monitor and through the IngestPipeline's
// roster — every interval's recorded RegionStats must equal the full
// tally_regions() scan of that interval's fleet. After an interval the hub
// did not see (its observe() threw after the roll), the full scan must
// resync the counts.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/frame.hpp"
#include "core/motion_plane.hpp"
#include "ingest/pipeline.hpp"
#include "obs/telemetry.hpp"
#include "online/monitor.hpp"
#include "sim/hostile.hpp"
#include "sim/report_source.hpp"

namespace acn {
namespace {

constexpr std::size_t kFleet = 300;
constexpr std::uint64_t kSuiteSeed = 4242;
constexpr int kIntervals = 16;
constexpr std::uint32_t kRegions = 8;

struct Stream {
  Snapshot initial;
  std::vector<ObservedInterval> intervals;
};

Stream materialize(const HostileSpec& spec) {
  HostileScenario scenario(spec.params);
  Stream stream{scenario.initial(), {}};
  for (int k = 0; k < kIntervals; ++k) {
    HostileStep step = scenario.advance();
    stream.intervals.push_back(
        ObservedInterval{std::move(step.observed), std::move(step.abnormal)});
  }
  return stream;
}

std::vector<HostileSpec> churned_families() {
  std::vector<HostileSpec> out;
  for (HostileSpec& spec : standard_hostile_suite(kFleet, kSuiteSeed)) {
    if (spec.name == "churn" || spec.name == "combined-stress" ||
        spec.name == "regional-outage") {
      out.push_back(std::move(spec));
    }
  }
  return out;
}

void expect_same_regions(const std::vector<obs::RegionStats>& got,
                         const std::vector<obs::RegionStats>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r].devices, want[r].devices) << where << " region " << r;
    EXPECT_EQ(got[r].abnormal, want[r].abnormal) << where << " region " << r;
    EXPECT_EQ(got[r].isolated, want[r].isolated) << where << " region " << r;
    EXPECT_EQ(got[r].massive, want[r].massive) << where << " region " << r;
    EXPECT_EQ(got[r].unresolved, want[r].unresolved) << where << " region " << r;
  }
}

/// Devices whose region changed between two snapshots — the moves an
/// incremental count has to follow (guards against a vacuous pass).
std::size_t region_crossings(const obs::TelemetryHub& hub, const Snapshot& a,
                             const Snapshot& b) {
  std::size_t crossings = 0;
  for (DeviceId j = 0; j < a.size(); ++j) {
    if (hub.region_of(a[j]) != hub.region_of(b[j])) ++crossings;
  }
  return crossings;
}

TEST(RegionTally, MonitorCountsMatchFullScanEveryInterval) {
  std::size_t crossings = 0;
  for (const HostileSpec& spec : churned_families()) {
    const Stream stream = materialize(spec);
    OnlineMonitor::Config config;
    config.model = spec.params.base.model;
    config.telemetry = obs::TelemetryConfig{.history = 64, .regions = kRegions};
    OnlineMonitor monitor(config);
    obs::TelemetryHub& hub = *monitor.telemetry();
    (void)monitor.observe(stream.initial, DeviceSet{});
    const Snapshot* previous = &stream.initial;
    for (std::size_t k = 0; k < stream.intervals.size(); ++k) {
      const ObservedInterval& step = stream.intervals[k];
      const IntervalReport report = monitor.observe(step.positions, step.abnormal);
      expect_same_regions(
          hub.store().latest().regions,
          hub.tally_regions(step.positions, report.abnormal, report.isolated,
                            report.massive, report.unresolved),
          spec.name + " interval " + std::to_string(k + 1));
      crossings += region_crossings(hub, *previous, step.positions);
      previous = &step.positions;
    }
  }
  EXPECT_GT(crossings, 100u);
}

TEST(RegionTally, PipelineCountsMatchFullScanEverySeal) {
  for (const HostileSpec& spec : churned_families()) {
    const Stream stream = materialize(spec);
    IngestPipeline::Config config;
    config.monitor.model = spec.params.base.model;
    config.monitor.telemetry =
        obs::TelemetryConfig{.history = 64, .regions = kRegions};
    config.capacity = stream.initial.size();
    config.dim = stream.initial[0].dim();
    config.watermark.allowed_lag = 2;
    IngestPipeline pipeline(config);
    pipeline.prime(stream.initial);
    obs::TelemetryHub& hub = *pipeline.monitor().telemetry();
    DeliveryFaults faults;
    faults.reorder_window = kFleet / 2;
    faults.duplicate_rate = 0.1;
    std::size_t seals = 0;
    for (const QosReport& report : delivery_schedule(stream.intervals, faults)) {
      pipeline.push(report);
      for (const ClosedInterval& closed : pipeline.drain_ready()) {
        const IntervalReport& r = closed.report;
        expect_same_regions(
            hub.store().latest().regions,
            hub.tally_regions(pipeline.monitor().roster().snapshot(), r.abnormal,
                              r.isolated, r.massive, r.unresolved),
            spec.name + " interval " + std::to_string(closed.interval));
        ++seals;
      }
    }
    EXPECT_GE(seals, static_cast<std::size_t>(kIntervals - 2)) << spec.name;
  }
}

TEST(RegionTally, FullScanResyncsAfterAnIntervalTheHubMissed) {
  // A four-byte plane arena (an empty A_k's component table fits, any
  // abnormal device does not) makes observe() throw after its roll whenever
  // A_k is non-empty; like the monitor, the hub only tallies intervals that
  // returned, so it misses those rolls and must resync from the full scan.
  std::size_t resyncs = 0;
  for (const HostileSpec& spec : churned_families()) {
    const Stream stream = materialize(spec);
    FrameEngine engine(FrameEngine::Config{.model = spec.params.base.model,
                                           .plane_arena_budget = 4});
    obs::TelemetryHub hub(obs::TelemetryConfig{.history = 4, .regions = kRegions});
    (void)engine.observe(stream.initial, DeviceSet{});
    bool missed = false;
    for (std::size_t k = 0; k < stream.intervals.size(); ++k) {
      const ObservedInterval& step = stream.intervals[k];
      // Alternate which intervals are allowed to characterize anything.
      const DeviceSet abnormal = k % 3 == 1 ? step.abnormal : DeviceSet{};
      try {
        (void)engine.observe(step.positions, abnormal);
      } catch (const ArenaBudgetExceeded&) {
        missed = true;
        continue;
      }
      const std::string where = spec.name + " interval " + std::to_string(k + 1);
      expect_same_regions(
          hub.tally_regions(engine.intervals(), engine.state(), abnormal, {}, {}, {}),
          hub.tally_regions(step.positions, abnormal, {}, {}, {}), where);
      if (missed) ++resyncs;
      missed = false;
    }
  }
  EXPECT_GT(resyncs, 6u);
}

}  // namespace
}  // namespace acn
