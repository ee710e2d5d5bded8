// FleetRoster: the explicit device add/remove path for churned fleets.
//
// The whole pipeline below the monitor — StatePair::advance, the A_k
// index, MotionPlane arenas — is built on a FIXED dense id universe: slot j of
// snapshot k must describe the same device as slot j of snapshot k-1
// (StatePair::advance precondition). A production fleet is not like that:
// gateways join and leave mid-stream (size-varying fleets, La Fond et al.,
// arXiv:1411.3749). The roster reconciles the two worlds:
//
//   * sparse, stable GatewayKeys (whatever the deployment uses to name a
//     gateway) map to dense DeviceId slots within a fixed capacity;
//   * a retired gateway's slot is parked — frozen at its last reported
//     position, never abnormal — and recycled FIFO (least-recently-retired
//     first), so the snapshot never changes size;
//   * a slot (re)assigned during the current interval is ineligible as
//     abnormal for that interval: the slot's apparent trajectory (old
//     occupant's position -> new occupant's position) is a splice of two
//     devices, not a motion, and must never reach the characterizer. This
//     is what makes slot recycling *safe*, not merely convenient.
//
//   * positions are kept as dim() doubles per slot, and every write that
//     changes a slot's coordinates records the slot in a change set; the
//     monitor hands that set (not a copy of the fleet) to the engine once
//     per interval and clears it once the engine has taken it.
//
//   * a revision counter advances on every admit, every retire and every
//     write that changes a slot, and holds() answers "would reporting this
//     claim change anything?" — together they let the ingestion layer diff
//     claims against the roster while it stages them, so its seal visits
//     only the keys whose claim, flag or activity differs instead of all n.
//
// Verdict soundness under this parking scheme: motion families are computed
// over A_k only (only A_k is indexed), so a parked slot — present
// in the snapshot but never abnormal — cannot join any motion and cannot
// influence any verdict. The conformance harness exercises exactly this.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/device_set.hpp"
#include "core/point.hpp"
#include "core/state.hpp"

namespace acn {

/// Deployment-level stable gateway identifier (opaque to the roster).
using GatewayKey = std::uint64_t;

class FleetRoster {
 public:
  /// Fixed slot capacity and QoS-space dimension. Vacant never-occupied
  /// slots are parked at the origin of [0,1]^d. Throws on capacity == 0 or
  /// d out of Point range.
  FleetRoster(std::size_t capacity, std::size_t dim);

  /// Admits a gateway, assigning it the least-recently-retired free slot at
  /// `position`. The slot is flagged just-assigned until end_interval(), so
  /// abnormal_slots() drops it this interval. Throws std::invalid_argument
  /// if the key is already active, the position is out of range, or no slot
  /// is free.
  DeviceId admit(GatewayKey key, const Point& position);

  /// Retires an active gateway; its slot is parked at the last reported
  /// position and queued for reuse. Throws if the key is not active.
  void retire(GatewayKey key);

  /// Updates an active gateway's reported position. Throws if the key is
  /// not active or the position is out of range.
  void report(GatewayKey key, const Point& position);

  /// report() for the ingestion hot path: updates the position from dim()
  /// raw coordinates and returns true iff the key is active — one lookup
  /// instead of an active() check followed by report(). Still throws on a
  /// malformed position (a bad claim is a caller bug, not churn).
  bool try_report(GatewayKey key, std::span<const double> position) {
    const DeviceId slot = slot_lookup(key);
    if (slot == kNoSlot) return false;
    write(slot, position, "FleetRoster::report: bad position");
    return true;
  }

  [[nodiscard]] bool active(GatewayKey key) const noexcept {
    return slot_lookup(key) != kNoSlot;
  }
  /// True iff `key` is active and its slot already holds exactly
  /// `position` (dim() coordinates) — i.e. try_report(key, position) would
  /// change nothing. False for inactive keys and for any other dimension.
  [[nodiscard]] bool holds(GatewayKey key,
                           std::span<const double> position) const noexcept {
    const DeviceId slot = slot_lookup(key);
    if (slot == kNoSlot || position.size() != dim_) return false;
    const double* cell = coords_.data() + slot * dim_;
    for (std::size_t i = 0; i < dim_; ++i) {
      if (cell[i] != position[i]) return false;
    }
    return true;
  }
  /// Advances on every admit(), every retire() and every report that
  /// changes a slot's coordinates (a report equal to the stored position
  /// does not count). Two equal readings bracket a span in which the
  /// roster did not change.
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }
  [[nodiscard]] std::optional<DeviceId> slot_of(GatewayKey key) const noexcept;
  [[nodiscard]] std::size_t active_count() const noexcept { return active_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return occupied_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Every slot's coordinates, row-major (dim() per slot): active slots at
  /// their reported position, parked slots frozen at their last one. The
  /// engine is primed straight from these rows (FrameEngine::prime); later
  /// intervals reach it as changes().
  [[nodiscard]] std::span<const double> coords() const noexcept { return coords_; }
  /// The same positions as a Snapshot — O(capacity) Points, for callers
  /// that want one (tests, reference feeds); the engine never needs it.
  [[nodiscard]] Snapshot snapshot() const;

  /// The change set: slots whose coordinates changed since the last
  /// clear_changes(), ascending, each with its current coordinates —
  /// written into `out` (previous contents replaced). A slot moved and
  /// moved back within the interval is still listed; the engine's roll
  /// drops it by comparison. Leaves the set in place.
  void changes(PositionUpdate& out) const;
  /// Empties the change set — once the engine has rolled it in, so an
  /// interval whose observe() throws first loses no change.
  void clear_changes();

  /// Maps abnormal gateway keys to slots, dropping keys that are not active
  /// and slots (re)assigned since the last end_interval() — a device with
  /// no previous-interval trajectory cannot be characterized. Unknown keys
  /// are dropped silently: a report from a just-retired gateway racing its
  /// retirement is normal in a churning fleet, not an error.
  [[nodiscard]] DeviceSet abnormal_slots(std::span<const GatewayKey> keys) const;

  /// Closes the interval: just-assigned slots become eligible as abnormal
  /// from the next interval on. Call once per snapshot fed to the engine,
  /// after abnormal_slots().
  void end_interval();

 private:
  static constexpr DeviceId kNoSlot = ~DeviceId{0};

  // Key -> slot resolution sits on the ingestion layer's per-report hot
  // path, so it is split like the staging lane: keys below capacity (the
  // usual deployment numbering, and everything a dense prime() admits)
  // index a flat vector; larger keys spill to the hash map.
  [[nodiscard]] DeviceId slot_lookup(GatewayKey key) const noexcept {
    if (key < slot_lane_.size()) return slot_lane_[key];
    const auto it = slot_spill_.find(key);
    return it == slot_spill_.end() ? kNoSlot : it->second;
  }
  void slot_insert(GatewayKey key, DeviceId slot);
  void slot_erase(GatewayKey key);
  /// Writes a slot's coordinates and records the slot in the change set,
  /// iff any coordinate differs from the stored one. Coordinates equal to
  /// the stored ones were range-checked when they were written, so only a
  /// change is validated (before anything is written).
  void write(DeviceId slot, std::span<const double> position, const char* what) {
    if (position.size() != dim_) bad_position(what);
    double* cell = coords_.data() + slot * dim_;
    bool changed = false;
    for (std::size_t i = 0; i < dim_; ++i) changed |= cell[i] != position[i];
    if (!changed) return;
    for (const double x : position) {
      if (x < 0.0 || x > 1.0) bad_position(what);
    }
    std::copy(position.begin(), position.end(), cell);
    ++revision_;
    if (in_changed_[slot] == 0) {
      in_changed_[slot] = 1;
      changed_.push_back(slot);
    }
  }
  [[noreturn]] static void bad_position(const char* what);

  std::size_t dim_;
  std::vector<double> coords_;              ///< dim_ per slot, active or parked
  std::vector<DeviceId> changed_;           ///< change set, first-write order
  std::vector<std::uint8_t> in_changed_;    ///< per slot: listed in changed_
  std::vector<DeviceId> assigned_;          ///< slots (re)assigned this interval
  std::vector<std::uint8_t> just_assigned_; ///< per slot, reset by end_interval
  std::vector<DeviceId> slot_lane_;         ///< key < capacity; kNoSlot = absent
  std::unordered_map<GatewayKey, DeviceId> slot_spill_;  ///< key >= capacity
  std::size_t active_ = 0;
  std::uint64_t revision_ = 0;              ///< see revision()
  std::vector<GatewayKey> key_of_;          ///< per slot; meaningful iff occupied
  std::vector<std::uint8_t> occupied_;      ///< per slot
  std::deque<DeviceId> free_;               ///< FIFO recycle queue
};

}  // namespace acn
