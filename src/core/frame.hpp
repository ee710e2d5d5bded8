// The locality-bounded incremental snapshot pipeline (the streaming engine).
//
// The seed pipeline paid O(n) work per interval before a single theorem
// ran: OnlineMonitor copied the incoming snapshot for its retained state,
// and StatePair recomputed every joint coordinate and SoA column from
// scratch — every step, for every device. The paper's locality result (§V,
// Corollary 8: a verdict depends only on A_k and the trajectories within 4r
// of the deciding device) licenses the opposite architecture, which this
// engine implements in four steps per interval — roll the state, index A_k,
// build the plane, characterize:
//
//   * the rolling StatePair takes the interval as a change set — the
//     devices whose position may have changed, with their new coordinates
//     (FleetRoster hands its own over; a full snapshot is diffed into one)
//     — and rewrites prev/curr, joint and SoA columns in place for the
//     devices the last roll moved and the ones this change set moves: the
//     roll's cost tracks |moved|, i.e. the devices errors displaced, not n;
//   * A_k is indexed afresh every interval (a GridIndex over the abnormal
//     devices only, cell side 2r): motions are sets of abnormal devices, so
//     normal devices never need indexing, and the index costs O(|A_k|);
//   * the MotionPlane is built over exactly the 4r-closure of A_k — the
//     plane covers A_k, finds its 2r-interaction components by a
//     breadth-first search over the A_k index, and every Theorem 5/6/7
//     decision reads only those components' motion families (the 4r
//     shell); nothing beyond the closure is ever touched. The plane's id -> rank table is
//     handed from one interval's plane to the next with only the old A_k's
//     entries reset, so it too costs O(|A_k|). The per-component family
//     enumeration and the per-device characterization both fan out over the
//     engine's persistent WorkerPool;
//   * verdicts are byte-identical to a from-scratch rebuild
//     (tests/core/frame_equivalence_test.cc sweeps this, teleports and
//     all-abnormal edge cases included).
//
// OnlineMonitor, the MonitoringSwarm, and the simulation harness all sit on
// top of this engine; per-phase timings are exposed through FrameStats and
// reported by bench_characterize_all.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/device_set.hpp"
#include "common/worker_pool.hpp"
#include "core/characterizer.hpp"
#include "core/kernels/kernels.hpp"
#include "core/motion_plane.hpp"
#include "core/params.hpp"
#include "core/state.hpp"

namespace acn {

/// Busy-time aggregate over the worker lanes of one parallel phase. The
/// max/mean gap is the phase's skew: max is the wall-clock the phase paid,
/// mean is what perfect balance would have paid — bench_characterize_all
/// prints both per phase so load imbalance shows up as a number, not a
/// hunch. lanes == 0 means the phase ran without a fan-out this interval.
struct LaneBreakdown {
  double max_ms = 0.0;
  double mean_ms = 0.0;
  unsigned lanes = 0;

  [[nodiscard]] static LaneBreakdown of(std::span<const double> lane_ms) noexcept {
    LaneBreakdown out;
    out.lanes = static_cast<unsigned>(lane_ms.size());
    if (lane_ms.empty()) return out;
    double total = 0.0;
    for (const double ms : lane_ms) {
      total += ms;
      if (ms > out.max_ms) out.max_ms = ms;
    }
    out.mean_ms = total / static_cast<double>(lane_ms.size());
    return out;
  }
};

/// Wall-clock phase breakdown of one engine interval, in milliseconds —
/// what bench_characterize_all reports per phase.
struct FrameStats {
  double state_ms = 0.0;         ///< state roll (joint/SoA in-place update)
  double grid_ms = 0.0;          ///< A_k indexing (the per-interval GridIndex)
  double plane_ms = 0.0;         ///< motion-plane build over the 4r-closure
  double characterize_ms = 0.0;  ///< Theorems 5-7 over A_k
  std::size_t moved = 0;         ///< devices whose position changed
  std::size_t abnormal = 0;      ///< |A_k|
  std::size_t components = 0;    ///< 2r-interaction components enumerated
  std::size_t motions = 0;       ///< distinct maximal motions interned

  // Per-lane skew of each fan-out phase (see LaneBreakdown).
  LaneBreakdown plane_enum_lanes;   ///< plane component enumeration
  LaneBreakdown characterize_lanes; ///< per-device decision fan-out

  /// SIMD-kernel invocation/volume deltas of this interval (all lanes
  /// summed; see kernels::Counters — cycles stays 0 unless
  /// ACN_KERNEL_CYCLES=1 was set at startup).
  kernels::Counters kernel;

  /// Sum of the phase timers: the engine-side wall clock of one interval.
  [[nodiscard]] double total_ms() const noexcept {
    return state_ms + grid_ms + plane_ms + characterize_ms;
  }
};

/// The streaming engine: feed one snapshot per interval, read verdicts.
class FrameEngine {
 public:
  struct Config {
    Params model;
    /// Options for every per-device decision; characterize.parallel_grain
    /// is the |A_k| below which the characterization fan-out runs inline
    /// (the one threshold, shared with the standalone batch APIs).
    CharacterizeOptions characterize;
    /// Lanes for every per-interval fan-out (plane build, per-device
    /// characterization): 1 = inline serial
    /// (default), 0 = hardware concurrency. Verdicts are identical for
    /// every value.
    unsigned threads = 1;
    /// Component count below which the plane build runs inline.
    std::size_t component_fanout = 2;
    /// Byte cap on the per-interval motion-plane arenas (component tables,
    /// window covers, interned motions, membership bitsets). An adversarial
    /// placement can make the motion-family arenas combinatorially large;
    /// the cap turns that from an OOM kill into an ArenaBudgetExceeded
    /// thrown out of observe() with the engine state untouched — the next
    /// interval proceeds normally. 0 disables the cap.
    std::uint64_t plane_arena_budget = 8ULL << 30;
  };

  /// Per-interval verdicts (absent for the priming snapshot).
  struct Result {
    std::vector<Decision> decisions;  ///< one per device of A_k, ascending
    CharacterizationSets sets;
  };

  explicit FrameEngine(Config config);

  /// Feeds the snapshot of the next interval and characterizes every
  /// device of `abnormal` against the previous one. The first (priming)
  /// snapshot is moved in as (S_0, S_0, {}) and returns std::nullopt;
  /// every later one is diffed against the current state (O(n)) and rolled
  /// like a change set. Throws std::invalid_argument if the fleet size or
  /// dimension changes — the engine's device universe is fixed
  /// (StatePair::roll precondition); deployments with churn feed it
  /// through FleetRoster, which recycles slots inside a fixed capacity
  /// instead of resizing the snapshot.
  std::optional<Result> observe(Snapshot positions, DeviceSet abnormal);

  /// Feeds the next interval as a change set: the devices whose position
  /// may have changed since the previous interval, with their new
  /// coordinates (see PositionUpdate). The roll costs O(|moved|), not
  /// O(n) — the path FleetRoster feeds after priming. Requires primed()
  /// (std::logic_error otherwise); throws like StatePair::roll.
  Result observe(const PositionUpdate& update, DeviceSet abnormal);

  /// The rolling state (requires at least one observe()).
  [[nodiscard]] const StatePair& state() const { return *state_; }
  [[nodiscard]] bool primed() const noexcept { return state_.has_value(); }

  /// The last interval's motion plane (null before the second observe()).
  [[nodiscard]] const MotionPlane* plane() const noexcept {
    return plane_.has_value() ? &*plane_ : nullptr;
  }

  /// Phase breakdown of the latest observe().
  [[nodiscard]] const FrameStats& last_stats() const noexcept { return stats_; }
  /// Snapshots rolled into the state, the priming one included. An
  /// observe() that throws after its roll (ArenaBudgetExceeded from the
  /// plane build) still counts: the state did move on.
  [[nodiscard]] std::uint64_t intervals() const noexcept { return intervals_; }

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] WorkerPool& pool() noexcept { return pool_; }

 private:
  /// Everything after the roll: A_k index, plane, characterization.
  /// `t0` is the roll's start.
  Result characterize_interval(std::chrono::steady_clock::time_point t0,
                               const kernels::Counters& kernel_before);

  Config config_;
  std::optional<StatePair> state_;  ///< engaged by the priming snapshot
  WorkerPool pool_;
  std::optional<MotionPlane> plane_;  ///< rebuilt per interval
  FrameStats stats_;
  std::uint64_t intervals_ = 0;
};

}  // namespace acn
