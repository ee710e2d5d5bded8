#include "baseline/tessellation.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace acn {

TessellationBaseline::TessellationBaseline(double bucket, std::uint32_t tau)
    : bucket_(bucket), tau_(tau) {
  if (bucket <= 0.0) {
    throw std::invalid_argument("TessellationBaseline: bucket must be > 0");
  }
  if (tau < 1) throw std::invalid_argument("TessellationBaseline: tau must be >= 1");
}

CharacterizationSets TessellationBaseline::classify(const StatePair& state) const {
  // Joint-space signature: bucket indices of all 2d coordinates, hashed.
  const auto signature = [&](DeviceId j) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < state.joint_dim(); ++i) {
      const auto cell =
          static_cast<std::int64_t>(std::floor(state.joint_col(i)[j] / bucket_));
      h ^= static_cast<std::uint64_t>(cell) + 0x9E3779B97F4A7C15ULL;
      h *= 1099511628211ULL;
    }
    return h;
  };

  std::unordered_map<std::uint64_t, std::uint32_t> occupancy;
  for (const DeviceId j : state.abnormal()) ++occupancy[signature(j)];

  CharacterizationSets sets;
  for (const DeviceId j : state.abnormal()) {
    if (occupancy[signature(j)] > tau_) {
      sets.massive = sets.massive.with(j);
    } else {
      sets.isolated = sets.isolated.with(j);
    }
  }
  return sets;
}

}  // namespace acn
