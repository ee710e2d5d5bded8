#include "baseline/central_kmeans.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace acn {

CentralKmeansBaseline::CentralKmeansBaseline(Config config) : config_(config) {
  if (config.tau < 1 || config.cluster_divisor < 1 || config.max_iterations < 1) {
    throw std::invalid_argument("CentralKmeansBaseline: bad configuration");
  }
}

CharacterizationSets CentralKmeansBaseline::classify(const StatePair& state) const {
  CharacterizationSets sets;
  const DeviceSet& abnormal = state.abnormal();
  if (abnormal.empty()) return sets;

  const std::vector<DeviceId> members(abnormal.begin(), abnormal.end());
  const std::size_t jd = state.joint_dim();
  const std::size_t k = std::max<std::size_t>(
      1, members.size() / config_.cluster_divisor);

  // k-means++ style seeding (first centre random, then farthest-point).
  Rng rng(config_.seed);
  std::vector<std::vector<double>> centres;
  centres.reserve(k);
  const auto coords_of = [&](DeviceId j) {
    std::vector<double> c(jd);
    for (std::size_t i = 0; i < jd; ++i) c[i] = state.joint_col(i)[j];
    return c;
  };
  centres.push_back(coords_of(members[rng.uniform_int(members.size())]));
  const auto sq_dist = [&](const std::vector<double>& a, DeviceId j) {
    double s = 0.0;
    for (std::size_t i = 0; i < jd; ++i) {
      const double delta = a[i] - state.joint_col(i)[j];
      s += delta * delta;
    }
    return s;
  };
  while (centres.size() < k) {
    double best = -1.0;
    DeviceId pick = members[0];
    for (const DeviceId j : members) {
      double nearest = std::numeric_limits<double>::infinity();
      for (const auto& c : centres) nearest = std::min(nearest, sq_dist(c, j));
      if (nearest > best) {
        best = nearest;
        pick = j;
      }
    }
    centres.push_back(coords_of(pick));
  }

  // Lloyd iterations.
  std::vector<std::size_t> assignment(members.size(), 0);
  for (int iteration = 0; iteration < config_.max_iterations; ++iteration) {
    bool changed = false;
    for (std::size_t m = 0; m < members.size(); ++m) {
      double nearest = std::numeric_limits<double>::infinity();
      std::size_t best = 0;
      for (std::size_t c = 0; c < centres.size(); ++c) {
        const double dist = sq_dist(centres[c], members[m]);
        if (dist < nearest) {
          nearest = dist;
          best = c;
        }
      }
      if (assignment[m] != best) {
        assignment[m] = best;
        changed = true;
      }
    }
    if (!changed) break;
    // Recompute centres.
    std::vector<std::vector<double>> sums(centres.size(), std::vector<double>(jd, 0.0));
    std::vector<std::size_t> counts(centres.size(), 0);
    for (std::size_t m = 0; m < members.size(); ++m) {
      ++counts[assignment[m]];
      for (std::size_t i = 0; i < jd; ++i) {
        sums[assignment[m]][i] += state.joint_col(i)[members[m]];
      }
    }
    for (std::size_t c = 0; c < centres.size(); ++c) {
      if (counts[c] == 0) continue;  // keep stale centre (standard fallback)
      for (std::size_t i = 0; i < jd; ++i) {
        centres[c][i] = sums[c][i] / static_cast<double>(counts[c]);
      }
    }
  }

  // Classify by cluster cardinality.
  std::vector<std::size_t> cluster_size(centres.size(), 0);
  for (const std::size_t a : assignment) ++cluster_size[a];
  for (std::size_t m = 0; m < members.size(); ++m) {
    if (cluster_size[assignment[m]] > config_.tau) {
      sets.massive = sets.massive.with(members[m]);
    } else {
      sets.isolated = sets.isolated.with(members[m]);
    }
  }
  return sets;
}

}  // namespace acn
