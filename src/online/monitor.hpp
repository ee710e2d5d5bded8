// OnlineMonitor: the streaming front door of the library.
//
// Feed one system snapshot per interval (positions of all devices in the
// QoS space plus the abnormal set A_k); the monitor characterizes every
// abnormal device against the previous snapshot, maintains episodes across
// intervals, and drives the adaptive snapshot scheduler. This is the object
// a deployment embeds; everything below it (the FrameEngine's rolling
// state, A_k index, motion plane, characterizer) is mechanism.
//
// The monitor retains no per-interval copy of the fleet positions of its
// own. In roster mode it does not even build one: after the priming
// snapshot, each closed interval reaches the engine as the roster's change
// set — the slots whose coordinates changed — so a quiet interval costs
// O(changed), not O(fleet).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/characterizer.hpp"
#include "core/frame.hpp"
#include "obs/telemetry.hpp"
#include "online/adaptive.hpp"
#include "online/episode.hpp"
#include "online/roster.hpp"

namespace acn {

/// Verdicts of one interval.
struct IntervalReport {
  std::uint64_t interval = 0;
  DeviceSet abnormal;
  DeviceSet isolated;
  DeviceSet massive;
  DeviceSet unresolved;
  std::map<DeviceId, Decision> decisions;
  /// Set when the ingestion layer sealed this interval degraded (shed
  /// claims, deferred characterizations, or a forced early close): the
  /// verdicts are sound for the inputs that survived, but the inputs were
  /// clipped — weigh them accordingly.
  bool degraded = false;

  [[nodiscard]] double unresolved_ratio() const noexcept {
    return abnormal.empty() ? 0.0
                            : static_cast<double>(unresolved.size()) /
                                  static_cast<double>(abnormal.size());
  }
};

class OnlineMonitor {
 public:
  struct Config {
    Params model;
    CharacterizeOptions characterize;
    /// Worker lanes for the per-interval plane build and characterization
    /// fan-outs (FrameEngine::Config::threads): 1 = serial (default), 0 =
    /// hardware concurrency. Verdicts are identical either way.
    unsigned characterize_threads = 1;
    std::uint64_t episode_quiet_intervals = 1;
    std::optional<AdaptiveSampler::Config> adaptive;  ///< nullopt = fixed rate
    /// Churned-fleet mode: a fixed slot capacity > 0 embeds a FleetRoster
    /// and enables admit/retire/report/close_interval — gateways may join
    /// and leave mid-stream while the engine below keeps its fixed device
    /// universe (vacant slots are parked, never abnormal). 0 = fixed-fleet
    /// mode: drive observe() with dense snapshots directly.
    std::size_t roster_capacity = 0;
    /// Services per device in roster mode (ignored otherwise).
    std::size_t roster_dim = 2;
    /// Engage the telemetry layer: every observe() emits one
    /// IntervalTelemetry into an embedded TelemetryHub (see telemetry()).
    /// Telemetry reads only the interval's outputs — verdicts are
    /// byte-identical with it on or off (pinned by the conformance test).
    /// nullopt (default) compiles the hot path down to a null check.
    std::optional<obs::TelemetryConfig> telemetry;
  };

  explicit OnlineMonitor(Config config);

  /// Feeds the snapshot of interval k (diffed into the engine); returns
  /// verdicts (empty report for the very first snapshot — no motion to
  /// characterize yet). `degraded` marks an interval the ingestion layer
  /// sealed under shed/defer/forced-close policy; it is carried through to
  /// the report, never interpreted. Throws std::invalid_argument if the
  /// fleet size or dimension changes, std::logic_error in roster mode
  /// (there close_interval() feeds the engine, and a snapshot fed past the
  /// roster would desynchronize its change set from the engine's state).
  IntervalReport observe(const Snapshot& positions, const DeviceSet& abnormal,
                         bool degraded = false);

  // --- churned-fleet front door (roster mode; throws std::logic_error
  //     when roster_capacity == 0) ---

  /// Admits a gateway mid-stream; it becomes eligible as abnormal from the
  /// NEXT interval (no trajectory exists in its join interval).
  DeviceId admit(GatewayKey key, const Point& position);
  /// Retires a gateway mid-stream; its slot is parked and its open episode
  /// (if any) force-closed so a recycled slot cannot inherit it. Idempotent:
  /// retiring an already-retired (or never-admitted) key is a no-op, so an
  /// explicit retirement racing a late liveness force-close is harmless.
  void retire(GatewayKey key);
  /// Updates an active gateway's reported QoS position for this interval.
  void report(GatewayKey key, const Point& position);
  /// report() that returns false instead of throwing when the key is not
  /// active, taking dim raw coordinates — the ingestion layer's per-device
  /// hot path (one roster lookup for the check and the update together).
  bool try_report(GatewayKey key, std::span<const double> position) {
    if (!roster_.has_value()) roster_mode_off("try_report");
    return roster_->try_report(key, position);
  }
  /// Closes the interval: maps the abnormal gateway keys to slots
  /// (dropping retired and just-admitted gateways) and feeds the engine —
  /// the churn-tolerant observe(). The first close primes the engine
  /// straight from the roster's coordinate rows; every later one hands it
  /// only the roster's
  /// change set, which is cleared once the engine has rolled it in.
  /// `degraded` is the ingestion layer's quality marker (see observe()).
  IntervalReport close_interval(std::span<const GatewayKey> abnormal_keys,
                                bool degraded = false);

  /// The embedded roster (requires roster mode).
  [[nodiscard]] const FleetRoster& roster() const;

  /// Next sampling interval suggested by the §VII-C controller (the
  /// configured fixed interval when adaptivity is off).
  [[nodiscard]] std::uint64_t next_sampling_interval() const noexcept {
    return sampler_.has_value() ? sampler_->current() : 1;
  }

  [[nodiscard]] const EpisodeTracker& episodes() const noexcept { return episodes_; }
  /// Closes all open episodes (end of stream).
  void finish() { episodes_.flush(); }

  [[nodiscard]] std::uint64_t intervals_seen() const noexcept { return interval_; }

  /// The engine below the monitor (its rolling state, plane, stats).
  [[nodiscard]] const FrameEngine& engine() const noexcept { return engine_; }

  /// Phase timings of the last interval (the engine's breakdown).
  [[nodiscard]] const FrameStats& last_stats() const noexcept {
    return engine_.last_stats();
  }

  /// The embedded telemetry hub, or nullptr when Config::telemetry was
  /// nullopt. The ingestion layer uses this to annotate sealed intervals;
  /// exporters and the CLI query it.
  [[nodiscard]] obs::TelemetryHub* telemetry() noexcept { return hub_.get(); }
  [[nodiscard]] const obs::TelemetryHub* telemetry() const noexcept {
    return hub_.get();
  }

 private:
  [[noreturn]] static void roster_mode_off(const char* method);

  /// Turns the engine's output for the interval into the report, and runs
  /// the episode, adaptive and telemetry bookkeeping; `start` is when the
  /// interval reached the engine.
  IntervalReport finish_interval(
      const std::optional<FrameEngine::Result>& result,
      const DeviceSet& abnormal, bool degraded,
      std::chrono::steady_clock::time_point start);

  Config config_;
  FrameEngine engine_;
  std::optional<AdaptiveSampler> sampler_;
  EpisodeTracker episodes_;
  std::optional<FleetRoster> roster_;  ///< engaged iff roster_capacity > 0
  PositionUpdate changes_;             ///< roster change set, reused buffer
  std::unique_ptr<obs::TelemetryHub> hub_;  ///< engaged iff Config::telemetry
  std::uint64_t interval_ = 0;
};

}  // namespace acn
