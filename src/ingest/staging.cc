#include "ingest/staging.hpp"

namespace acn {

void StagingFrame::configure(std::size_t dense_limit, std::size_t dim) {
  // A dimension the lane cannot represent degrades to spill-everything,
  // which is semantically identical (just slower).
  dim_ = (dim == 0 || dim > Point::kMaxDim) ? 0 : dim;
  if (dim_ == 0) dense_limit = 0;
  present_.assign(dense_limit, 0);
  touched_blocks_.assign((dense_limit + 4095) / 4096, 0);
  seq_.assign(dense_limit, 0);
  flag_.assign(dense_limit, 0);
  coords_.assign(dense_limit * dim_, 0.0);
}

namespace {

StagingFrame::Staged materialize(const StagingFrame::Cell& cell) {
  StagingFrame::Staged staged{cell.seq, Point{}, cell.flagged};
  if (!cell.claim.empty()) staged.claim = Point(cell.claim);  // dim 0 stays
  return staged;
}

}  // namespace

std::optional<StagingFrame::Staged> StagingFrame::find(GatewayKey key) const {
  if (key < present_.size()) {
    if (present_[key] == 0) return std::nullopt;
    return materialize(cell(key));
  }
  const auto it = spill_.find(key);
  if (it == spill_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<GatewayKey, StagingFrame::Staged>> StagingFrame::sorted()
    const {
  std::vector<std::pair<GatewayKey, Staged>> entries;
  entries.reserve(device_count());
  for_each_sorted([&entries](GatewayKey key, const Cell& cell) {
    entries.emplace_back(key, materialize(cell));
  });
  return entries;
}

void StagingFrame::reset() {
  std::fill(present_.begin(), present_.end(), 0);
  std::fill(touched_blocks_.begin(), touched_blocks_.end(), 0);
  dense_count_ = 0;
  spill_.clear();
  volume_ = 0;
  first_seen_tick = 0;
  shed_engaged = false;
}

}  // namespace acn
