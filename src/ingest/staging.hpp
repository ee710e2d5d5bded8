// StagingFrame: the open-interval buffer behind the watermark.
//
// One frame holds everything reported so far for one event-time interval k
// that has not been sealed yet. The frame's job is to make delivery order
// irrelevant within the lateness budget: however reports for k are
// permuted, duplicated, or interleaved with other intervals, the staged
// state at seal time is a pure function of the report *set* — each
// (device, interval) cell resolves to the report with the highest
// arrival_seq (last-write-wins by emission order, which is commutative),
// and exact redeliveries are counted, not re-applied.
//
// Layout: a frame sits on the per-report hot path (every report of every
// interval passes through apply()), so staging has one dense lane — keys
// below a configured limit index flat structure-of-arrays storage
// directly: seq, flag, and exactly dim() claim coordinates per cell, no
// hashing and no per-seal sort — plus a spill map for out-of-range keys.
// A lane claim must have the configured dimension (the pipeline rejects
// any other claim before staging it). The pipeline sets the lane to the
// roster capacity and pools sealed frames, so in the steady state a report
// costs one bounds check and a few indexed stores.
//
// Touched keys: most staged cells of a quiet fleet repeat the claim the
// roster already holds, and sealing such a cell changes nothing. The
// pipeline therefore touch()es a key while staging it whenever sealing it
// could matter (flagged, not active, or a claim that differs from the
// roster's), and again whenever an earlier seal changes the key's roster
// entry; for_each_touched() then visits only those keys (plus the spill,
// which is always visited) in the same ascending order for_each_sorted()
// walks all of them. The touch mark is a spare bit of the lane's presence
// byte; one more bit per 64-key block records which blocks hold a mark, so
// the touched walk reads those blocks only, in key order with no sort: a
// seal costs O(lane limit / 4096 + 64 x touched blocks), and never more
// than the full walk when every key is touched.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ingest/report.hpp"

namespace acn {

class StagingFrame {
 public:
  /// Winning report of one (device, interval) cell, materialized out of
  /// the lane storage on demand (find(), sorted()).
  struct Staged {
    std::uint64_t seq = 0;
    Point claim;
    bool flagged = false;
  };

  /// One staged cell as the lane visitor hands it out: `claim` points into
  /// the frame's own storage and is valid only during the visit.
  struct Cell {
    std::uint64_t seq = 0;
    std::span<const double> claim;
    bool flagged = false;
  };

  enum class Apply : std::uint8_t {
    kAccepted,    ///< first report of this cell
    kSuperseded,  ///< replaced an older-seq claim
    kDuplicate,   ///< same seq already staged; dropped
    kStale,       ///< older seq than the staged one; dropped
  };

  /// Sizes the dense lane: keys < dense_limit with dim-`dim` claims stage
  /// into flat storage. Call before the first apply(); an unconfigured
  /// frame (dense_limit 0) spills everything to the hash map, which is
  /// semantically identical.
  void configure(std::size_t dense_limit, std::size_t dim);

  /// Stages `report` under the last-write-wins-by-seq rule. Inline: this
  /// is the per-report hot path, called once per delivered report.
  /// PRECONDITION: a claim for a key below the lane limit has the
  /// configured dimension (IngestPipeline::push rejects any other claim
  /// before staging it); spill keys take a claim of any dimension.
  Apply apply(const QosReport& report) {
    ++volume_;
    if (report.device >= present_.size()) {
      const auto [it, inserted] = spill_.try_emplace(report.device);
      if (inserted) {
        stage_fat(it->second, report);
        return Apply::kAccepted;
      }
      return resolve_fat(it->second, report);
    }
    const std::size_t key = report.device;
    if (present_[key] == 0) {
      ++dense_count_;
      present_[key] = kStaged;
      store_lane(key, report);
      return Apply::kAccepted;
    }
    if (report.arrival_seq == seq_[key]) return Apply::kDuplicate;
    if (report.arrival_seq < seq_[key]) return Apply::kStale;
    store_lane(key, report);
    return Apply::kSuperseded;
  }

  /// Marks a staged key for the next for_each_touched(). Idempotent; a
  /// no-op for a key with nothing staged (so a seal may touch a key in
  /// every open frame without asking which frames stage it) and for a
  /// spill key (the spill is always visited).
  void touch(GatewayKey key) {
    if (key >= present_.size() || present_[key] == 0) return;
    present_[key] |= kTouched;
    touched_blocks_[key >> 12] |= std::uint64_t{1} << ((key >> 6) & 63);
  }

  /// The staged cell for `key`, or nullopt if nothing staged.
  [[nodiscard]] std::optional<Staged> find(GatewayKey key) const;

  /// Devices with a staged report.
  [[nodiscard]] std::size_t device_count() const noexcept {
    return dense_count_ + spill_.size();
  }
  /// Total apply() attempts, duplicates and stale deliveries included —
  /// the overload controller's per-interval volume signal.
  [[nodiscard]] std::size_t volume() const noexcept { return volume_; }

  /// Visits every staged entry in ascending key order — the deterministic
  /// seal order — as fn(key, const Cell&). The dense lane is ordered by
  /// construction and every spill key is >= the lane limit, so the
  /// traversal is lane-then-sorted-spill. Lane cells are handed out
  /// straight from the coordinate storage; nothing is materialized.
  template <typename Fn>
  void for_each_sorted(Fn&& fn) const {
    for (std::size_t key = 0; key < present_.size(); ++key) {
      if (present_[key] == 0) continue;
      fn(static_cast<GatewayKey>(key), cell(key));
    }
    for_each_spill(fn);
  }

  /// for_each_sorted() restricted to the touched lane keys and the spill:
  /// the same visits in the same order, minus the untouched lane cells.
  template <typename Fn>
  void for_each_touched(Fn&& fn) const {
    for (std::size_t word = 0; word < touched_blocks_.size(); ++word) {
      for (std::uint64_t bits = touched_blocks_[word]; bits != 0; bits &= bits - 1) {
        const std::size_t begin = (word * 64 + std::countr_zero(bits)) * 64;
        const std::size_t end = std::min(begin + 64, present_.size());
        for (std::size_t key = begin; key < end; ++key) {
          if ((present_[key] & kTouched) != 0) {
            fn(static_cast<GatewayKey>(key), cell(key));
          }
        }
      }
    }
    for_each_spill(fn);
  }

  /// Staged entries sorted by key, copied out (test convenience; the
  /// pipeline seals through for_each_touched() or for_each_sorted()).
  [[nodiscard]] std::vector<std::pair<GatewayKey, Staged>> sorted() const;

  /// Returns the frame to its post-configure() state (no cell staged or
  /// touched), keeping the dense lane's storage — the pipeline pools
  /// sealed frames to keep frame creation off the per-interval path.
  void reset();

  /// Set once by the pipeline when the frame is created (its age drives
  /// the stall-timeout close) and when shedding engages on it.
  std::uint64_t first_seen_tick = 0;
  bool shed_engaged = false;

 private:
  void store_lane(std::size_t key, const QosReport& report) noexcept {
    seq_[key] = report.arrival_seq;
    flag_[key] = report.abnormal ? 1 : 0;
    double* cell = coords_.data() + key * dim_;
    for (std::size_t i = 0; i < dim_; ++i) cell[i] = report.claim[i];
  }

  static void stage_fat(Staged& cell, const QosReport& report) {
    cell.seq = report.arrival_seq;
    cell.claim = report.claim;
    cell.flagged = report.abnormal;
  }

  static Apply resolve_fat(Staged& cell, const QosReport& report) {
    if (report.arrival_seq == cell.seq) return Apply::kDuplicate;
    if (report.arrival_seq < cell.seq) return Apply::kStale;
    stage_fat(cell, report);
    return Apply::kSuperseded;
  }

  static Cell view(const Staged& staged) noexcept {
    return Cell{staged.seq, staged.claim.coords(), staged.flagged};
  }

  /// The spill's entries in ascending key order.
  template <typename Fn>
  void for_each_spill(Fn& fn) const {
    if (spill_.empty()) return;
    std::vector<GatewayKey> keys;
    keys.reserve(spill_.size());
    for (const auto& [key, staged] : spill_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const GatewayKey key : keys) fn(key, view(spill_.at(key)));
  }

  /// The dense-lane cell of a staged key (present_[key] != 0).
  [[nodiscard]] Cell cell(std::size_t key) const {
    return Cell{seq_[key],
                std::span<const double>(coords_.data() + key * dim_, dim_),
                flag_[key] != 0};
  }

  // Dense lane, structure-of-arrays. present_[key]: 0 = empty, else
  // kStaged, plus kTouched once touch()ed.
  static constexpr std::uint8_t kStaged = 1;
  static constexpr std::uint8_t kTouched = 2;
  std::vector<std::uint8_t> present_;
  /// Bit b of word w: block w * 64 + b (keys [64 x block, 64 x block + 64))
  /// holds a touched key.
  std::vector<std::uint64_t> touched_blocks_;
  std::vector<std::uint64_t> seq_;
  std::vector<std::uint8_t> flag_;
  std::vector<double> coords_;  ///< dim_ doubles per dense cell
  std::size_t dim_ = 0;
  std::size_t dense_count_ = 0;
  std::unordered_map<GatewayKey, Staged> spill_;  ///< keys >= lane limit
  std::size_t volume_ = 0;
};

}  // namespace acn
