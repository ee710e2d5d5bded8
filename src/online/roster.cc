#include "online/roster.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace acn {

FleetRoster::FleetRoster(std::size_t capacity, std::size_t dim) : dim_(dim) {
  if (capacity == 0) {
    throw std::invalid_argument("FleetRoster: capacity must be >= 1");
  }
  if (dim == 0 || dim > Point::kMaxDim) {
    throw std::invalid_argument("FleetRoster: dimension out of range");
  }
  coords_.assign(capacity * dim, 0.0);
  in_changed_.assign(capacity, 0);
  just_assigned_.assign(capacity, 0);
  slot_lane_.assign(capacity, kNoSlot);
  key_of_.assign(capacity, 0);
  occupied_.assign(capacity, 0);
  for (DeviceId slot = 0; slot < capacity; ++slot) free_.push_back(slot);
}

void FleetRoster::slot_insert(GatewayKey key, DeviceId slot) {
  if (key < slot_lane_.size()) {
    slot_lane_[key] = slot;
  } else {
    slot_spill_.emplace(key, slot);
  }
  ++active_;
}

void FleetRoster::slot_erase(GatewayKey key) {
  if (key < slot_lane_.size()) {
    slot_lane_[key] = kNoSlot;
  } else {
    slot_spill_.erase(key);
  }
  --active_;
}

DeviceId FleetRoster::admit(GatewayKey key, const Point& position) {
  if (slot_lookup(key) != kNoSlot) {
    throw std::invalid_argument("FleetRoster::admit: key already active");
  }
  if (position.dim() != dim_ || !position.in_unit_box()) {
    throw std::invalid_argument("FleetRoster::admit: bad position");
  }
  if (free_.empty()) {
    throw std::invalid_argument("FleetRoster::admit: no free slot (capacity " +
                                std::to_string(capacity()) + ")");
  }
  const DeviceId slot = free_.front();
  free_.pop_front();
  write(slot, position.coords(), "FleetRoster::admit: bad position");
  just_assigned_[slot] = 1;
  assigned_.push_back(slot);
  key_of_[slot] = key;
  occupied_[slot] = 1;
  slot_insert(key, slot);
  ++revision_;
  return slot;
}

void FleetRoster::retire(GatewayKey key) {
  const DeviceId slot = slot_lookup(key);
  if (slot == kNoSlot) {
    throw std::invalid_argument("FleetRoster::retire: key not active");
  }
  slot_erase(key);
  occupied_[slot] = 0;
  free_.push_back(slot);  // position stays parked where it last reported
  ++revision_;
}

void FleetRoster::report(GatewayKey key, const Point& position) {
  if (!try_report(key, position.coords())) {
    throw std::invalid_argument("FleetRoster::report: key not active");
  }
}

void FleetRoster::bad_position(const char* what) {
  throw std::invalid_argument(what);
}

Snapshot FleetRoster::snapshot() const {
  std::vector<Point> positions;
  positions.reserve(capacity());
  for (std::size_t slot = 0; slot < capacity(); ++slot) {
    positions.emplace_back(
        std::span<const double>(coords_.data() + slot * dim_, dim_));
  }
  return Snapshot(std::move(positions));
}

void FleetRoster::changes(PositionUpdate& out) const {
  out.ids.assign(changed_.begin(), changed_.end());
  std::sort(out.ids.begin(), out.ids.end());
  out.coords.clear();
  out.coords.reserve(out.ids.size() * dim_);
  for (const DeviceId slot : out.ids) {
    const double* cell = coords_.data() + slot * dim_;
    out.coords.insert(out.coords.end(), cell, cell + dim_);
  }
}

void FleetRoster::clear_changes() {
  for (const DeviceId slot : changed_) in_changed_[slot] = 0;
  changed_.clear();
}

std::optional<DeviceId> FleetRoster::slot_of(GatewayKey key) const noexcept {
  const DeviceId slot = slot_lookup(key);
  if (slot == kNoSlot) return std::nullopt;
  return slot;
}

DeviceSet FleetRoster::abnormal_slots(std::span<const GatewayKey> keys) const {
  std::vector<DeviceId> slots;
  slots.reserve(keys.size());
  for (const GatewayKey key : keys) {
    const DeviceId slot = slot_lookup(key);
    if (slot == kNoSlot) continue;        // retired or unknown
    if (just_assigned_[slot] != 0) continue;  // no trajectory yet
    slots.push_back(slot);
  }
  return DeviceSet(std::move(slots));
}

void FleetRoster::end_interval() {
  for (const DeviceId slot : assigned_) just_assigned_[slot] = 0;
  assigned_.clear();
}

}  // namespace acn
