#include "core/grid_index.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace acn {
namespace {

// Incremental FNV-style mix of one per-dimension cell index into the packed
// key. With cell sides >= 1e-9 and coordinates in [0,1] the indices are
// small; the mix keeps distinct cells in distinct buckets with negligible
// collision probability (and collisions only cost speed, never correctness:
// hits are filtered by exact joint distance and a collided bucket is listed
// once per query — see buckets_near).
constexpr std::uint64_t kKeyBasis = 1469598103934665603ULL;

std::uint64_t mix(std::uint64_t key, std::int64_t cell_coord) noexcept {
  key ^= static_cast<std::uint64_t>(cell_coord) + 0x9E3779B97F4A7C15ULL;
  key *= 1099511628211ULL;
  return key;
}

using CellBase = std::array<std::int64_t, Point::kMaxDim>;

CellBase cell_base(const Point& position, double cell) noexcept {
  CellBase base{};
  for (std::size_t i = 0; i < position.dim(); ++i) {
    base[i] = static_cast<std::int64_t>(std::floor(position[i] / cell));
  }
  return base;
}

std::uint64_t key_of(const CellBase& base, std::size_t d) noexcept {
  std::uint64_t key = kKeyBasis;
  for (std::size_t i = 0; i < d; ++i) key = mix(key, base[i]);
  return key;
}

/// Merges the ascending runs of `out` (run r ends at ends[r]) in place,
/// pairwise, through `tmp`.
void merge_runs(std::vector<DeviceId>& out, std::vector<std::uint32_t>& ends,
                std::vector<DeviceId>& tmp) {
  if (ends.size() < 2) return;
  tmp.resize(out.size());
  std::vector<DeviceId>* src = &out;
  std::vector<DeviceId>* dst = &tmp;
  while (ends.size() > 1) {
    std::size_t kept = 0;
    std::uint32_t begin = 0;
    for (std::size_t r = 0; r < ends.size(); r += 2) {
      const std::uint32_t mid = ends[r];
      const std::uint32_t end = r + 1 < ends.size() ? ends[r + 1] : mid;
      std::merge(src->begin() + begin, src->begin() + mid, src->begin() + mid,
                 src->begin() + end, dst->begin() + begin);
      ends[kept++] = end;
      begin = end;
    }
    ends.resize(kept);
    std::swap(src, dst);
  }
  if (src != &out) std::copy(tmp.begin(), tmp.end(), out.begin());
}

}  // namespace

GridIndex::GridIndex(const StatePair& state, const DeviceSet& members, double cell)
    : state_(state), cell_(cell) {
  if (cell <= 0.0) throw std::invalid_argument("GridIndex: cell must be > 0");
  ids_.assign(members.begin(), members.end());
  const std::size_t m = ids_.size();
  const std::size_t d = state_.dim();
  // Counting sort of the ranks by cell: count per bucket, prefix sums, then
  // fill in rank order so every bucket's run is ascending.
  std::vector<std::uint32_t> rank_bucket(m);
  bucket_of_cell_.reserve(m);
  bucket_offsets_.reserve(m + 1);
  for (std::size_t rank = 0; rank < m; ++rank) {
    const std::uint64_t key = key_of(cell_base(state_.curr_pos(ids_[rank]), cell_), d);
    const auto [it, fresh] = bucket_of_cell_.try_emplace(
        key, static_cast<std::uint32_t>(bucket_offsets_.size()));
    if (fresh) bucket_offsets_.push_back(0);
    rank_bucket[rank] = it->second;
    ++bucket_offsets_[it->second];
  }
  std::uint32_t sum = 0;
  for (std::uint32_t& entry : bucket_offsets_) {
    const std::uint32_t count = entry;
    entry = sum;
    sum += count;
  }
  bucket_offsets_.push_back(sum);
  bucket_ranks_.resize(m);
  std::vector<std::uint32_t> cursor(bucket_offsets_.begin(), bucket_offsets_.end() - 1);
  for (std::size_t rank = 0; rank < m; ++rank) {
    bucket_ranks_[cursor[rank_bucket[rank]]++] = static_cast<std::uint32_t>(rank);
  }
}

void GridIndex::buckets_near(const Point& centre, double radius,
                             std::vector<std::uint32_t>& out) const {
  const std::size_t d = centre.dim();
  const auto reach = static_cast<std::int64_t>(std::ceil(radius / cell_));
  const CellBase base = cell_base(centre, cell_);
  const std::size_t first = out.size();
  // Odometer over every cell offset in [-reach, reach]^d.
  CellBase offset{};
  for (std::size_t i = 0; i < d; ++i) offset[i] = -reach;
  for (;;) {
    std::uint64_t key = kKeyBasis;
    for (std::size_t i = 0; i < d; ++i) key = mix(key, base[i] + offset[i]);
    if (const auto it = bucket_of_cell_.find(key); it != bucket_of_cell_.end()) {
      out.push_back(it->second);
    }
    std::size_t i = 0;
    while (i < d && ++offset[i] > reach) {
      offset[i] = -reach;
      ++i;
    }
    if (i == d) break;
  }
  // Two colliding cells share a bucket: list it once.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(first), out.end()),
            out.end());
}

std::vector<DeviceId> GridIndex::within(DeviceId j, double radius) const {
  std::vector<DeviceId> out;
  within_into(j, radius, out);
  return out;
}

void GridIndex::within_into(DeviceId j, double radius,
                            std::vector<DeviceId>& out) const {
  thread_local std::vector<std::uint32_t> buckets;
  thread_local std::vector<std::uint32_t> run_ends;
  thread_local std::vector<DeviceId> merge_scratch;
  out.clear();
  buckets.clear();
  run_ends.clear();
  buckets_near(state_.curr_pos(j), radius, buckets);
  // Each bucket's hits form an ascending run (buckets hold ascending
  // ranks); the runs are disjoint, so merging them yields the sorted set.
  for (const std::uint32_t b : buckets) {
    for (std::uint32_t i = bucket_offsets_[b]; i < bucket_offsets_[b + 1]; ++i) {
      const DeviceId candidate = ids_[bucket_ranks_[i]];
      if (state_.joint_distance(j, candidate) <= radius) out.push_back(candidate);
    }
    if (out.size() > (run_ends.empty() ? 0 : run_ends.back())) {
      run_ends.push_back(static_cast<std::uint32_t>(out.size()));
    }
  }
  merge_runs(out, run_ends, merge_scratch);
}

GridIndex::Components GridIndex::components(double radius) const {
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  const std::size_t m = ids_.size();
  Components result;
  result.of.assign(m, kNone);

  // Working copy of the buckets: bucket b's unclaimed ranks are
  // live[bucket_offsets_[b], live_end[b]); a claimed rank is swapped past
  // the end, so later expansions never test it again.
  std::vector<std::uint32_t> live(bucket_ranks_);
  std::vector<std::uint32_t> live_end(bucket_offsets_.begin() + 1, bucket_offsets_.end());

  std::vector<std::uint32_t> near;
  std::vector<std::uint32_t> queue;
  queue.reserve(m);
  std::uint32_t count = 0;
  for (std::uint32_t seed = 0; seed < m; ++seed) {
    if (result.of[seed] != kNone) continue;
    result.of[seed] = count;
    queue.clear();
    queue.push_back(seed);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t u = queue[head];
      const DeviceId uid = ids_[u];
      near.clear();
      buckets_near(state_.curr_pos(uid), radius, near);
      for (const std::uint32_t b : near) {
        std::uint32_t i = bucket_offsets_[b];
        std::uint32_t& end = live_end[b];
        while (i < end) {
          const std::uint32_t v = live[i];
          if (result.of[v] == kNone) {
            if (state_.joint_distance(uid, ids_[v]) > radius) {
              ++i;
              continue;
            }
            result.of[v] = count;
            queue.push_back(v);
          }
          live[i] = live[--end];  // claimed: leaves the bucket
        }
      }
    }
    ++count;
  }

  // Group by component in rank order: members come out ascending, and
  // components (numbered in seed order) by smallest member.
  result.offsets.assign(count + 1, 0);
  for (const std::uint32_t c : result.of) ++result.offsets[c + 1];
  for (std::uint32_t c = 0; c < count; ++c) result.offsets[c + 1] += result.offsets[c];
  result.members.resize(m);
  std::vector<std::uint32_t> cursor(result.offsets.begin(), result.offsets.end() - 1);
  for (std::size_t rank = 0; rank < m; ++rank) {
    result.members[cursor[result.of[rank]]++] = ids_[rank];
  }
  return result;
}

}  // namespace acn
