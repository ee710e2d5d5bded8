// The seal visits only the staged cells whose sealing can change anything
// (see IngestPipeline::seal). These tests pin that this is an optimization,
// not a semantic change: after every seal, the pipeline must agree with a
// plain fold of the delivered reports — per interval, the highest-seq
// report of each key wins, and the winners are applied to a direct-feed
// OnlineMonitor in key order, first-seen keys admitted while a slot is
// free. Compared after every seal: the roster snapshot and key activity,
// the engine's moved set (what the change set rolled in), `reported`,
// `replayed`, `retired`, the degraded mark, the abnormal slots (the flagged
// keys the seal kept) and every decision.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ingest/pipeline.hpp"

namespace acn {
namespace {

constexpr std::size_t kDim = 2;

/// Coordinates on a 1/64 lattice, so "the same position" is exact.
Point at(int x, int y) { return Point{x / 64.0, y / 64.0}; }

QosReport report(GatewayKey key, std::uint64_t interval, const Point& claim,
                 std::uint64_t seq, bool flagged = false) {
  QosReport r;
  r.device = key;
  r.interval = interval;
  r.claim = claim;
  r.abnormal = flagged;
  r.arrival_seq = seq;
  return r;
}

bool same_decision(const Decision& a, const Decision& b) {
  return a.cls == b.cls && a.rule == b.rule && a.exact == b.exact &&
         a.maximal_motion_count == b.maximal_motion_count &&
         a.dense_motion_count == b.dense_motion_count &&
         a.collections_tested == b.collections_tested;
}

/// A pipeline and its reference, fed the same deliveries and the same
/// roster writes through monitor().
class Harness {
 public:
  Harness(std::size_t capacity, LivenessConfig liveness = {})
      : pipeline_(config(capacity, liveness)),
        direct_(direct_config(capacity)),
        liveness_(liveness) {}

  void prime(const std::vector<std::pair<GatewayKey, Point>>& fleet) {
    pipeline_.prime(fleet);
    for (const auto& [key, position] : fleet) {
      direct_.admit(key, position);
      liveness_.admitted(key, 0);
    }
    (void)direct_.close_interval({});
  }

  void deliver(const QosReport& r) {
    if (r.interval >= next_) {
      auto [it, inserted] = open_[r.interval].try_emplace(r.device, r);
      if (!inserted && r.arrival_seq > it->second.arrival_seq) it->second = r;
    }
    pipeline_.push(r);
    check_sealed();
  }

  void finish() {
    pipeline_.finish();
    check_sealed();
  }

  // Roster writes through monitor(), applied to both sides at once.
  void external_report(GatewayKey key, const Point& position) {
    pipeline_.monitor().report(key, position);
    direct_.report(key, position);
  }
  void external_retire(GatewayKey key) {
    pipeline_.monitor().retire(key);
    direct_.retire(key);
  }
  void external_admit(GatewayKey key, const Point& position) {
    (void)pipeline_.monitor().admit(key, position);
    (void)direct_.admit(key, position);
  }

  [[nodiscard]] const FleetRoster& roster() const { return direct_.roster(); }
  [[nodiscard]] std::uint64_t sealed() const { return next_ - 1; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] std::uint64_t retired() const { return retired_; }
  [[nodiscard]] const IngestPipeline& pipeline() const { return pipeline_; }

 private:
  static IngestPipeline::Config config(std::size_t capacity,
                                       LivenessConfig liveness) {
    IngestPipeline::Config c;
    c.capacity = capacity;
    c.dim = kDim;
    c.monitor.model = Params{.r = 0.03, .tau = 1};
    c.watermark.allowed_lag = 2;
    c.liveness = liveness;
    return c;
  }
  static OnlineMonitor::Config direct_config(std::size_t capacity) {
    OnlineMonitor::Config c;
    c.model = Params{.r = 0.03, .tau = 1};
    c.roster_capacity = capacity;
    c.roster_dim = kDim;
    return c;
  }

  void check_sealed() {
    const std::vector<ClosedInterval> ready = pipeline_.drain_ready();
    for (std::size_t i = 0; i < ready.size(); ++i) {
      ASSERT_EQ(ready[i].interval, next_);
      seal_reference(ready[i], i + 1 == ready.size());
      ++next_;
    }
  }

  /// Seals the reference's next interval and compares it with `closed`.
  /// When one call sealed several intervals, the pipeline's roster, engine
  /// and counters are only comparable after the `last` of them.
  void seal_reference(const ClosedInterval& closed, bool last) {
    const std::uint64_t k = closed.interval;
    SCOPED_TRACE("interval " + std::to_string(k));
    std::map<GatewayKey, QosReport> winners;
    if (const auto it = open_.find(k); it != open_.end()) {
      winners = std::move(it->second);
      open_.erase(it);
    }
    std::size_t reported = 0;
    bool degraded = false;
    std::vector<GatewayKey> flagged;
    for (const auto& [key, r] : winners) {
      if (direct_.roster().active(key)) {
        direct_.report(key, r.claim);
        if (liveness_.reported(key, k)) ++revived_;
      } else if (direct_.roster().active_count() >= direct_.roster().capacity()) {
        ++rejected_;
        degraded = true;
        continue;
      } else {
        (void)direct_.admit(key, r.claim);
        liveness_.admitted(key, k);
      }
      ++reported;
      if (r.abnormal) flagged.push_back(key);
    }
    const std::size_t replayed = direct_.roster().active_count() - reported;
    std::vector<GatewayKey> retired;
    for (const GatewayKey key : liveness_.sealed(k)) {
      liveness_.forget(key);
      if (!direct_.roster().active(key)) continue;
      direct_.retire(key);
      retired.push_back(key);
    }
    retired_ += retired.size();
    const IntervalReport expected = direct_.close_interval(flagged, degraded);

    EXPECT_EQ(closed.reported, reported);
    EXPECT_EQ(closed.replayed, replayed);
    EXPECT_EQ(closed.retired, retired);
    EXPECT_EQ(closed.degraded, degraded);
    if (last) compare_state(winners);

    const IntervalReport& report = closed.report;
    EXPECT_EQ(report.abnormal, expected.abnormal);
    EXPECT_EQ(report.isolated, expected.isolated);
    EXPECT_EQ(report.massive, expected.massive);
    EXPECT_EQ(report.unresolved, expected.unresolved);
    ASSERT_EQ(report.decisions.size(), expected.decisions.size());
    for (const auto& [slot, decision] : expected.decisions) {
      const auto it = report.decisions.find(slot);
      ASSERT_NE(it, report.decisions.end()) << "slot " << slot;
      EXPECT_TRUE(same_decision(it->second, decision)) << "slot " << slot;
    }
  }

  void compare_state(const std::map<GatewayKey, QosReport>& winners) {
    EXPECT_EQ(pipeline_.counters().admit_rejected, rejected_);
    EXPECT_EQ(pipeline_.counters().retired_devices, retired_);
    EXPECT_EQ(pipeline_.counters().revived_devices, revived_);
    const FleetRoster& got = pipeline_.monitor().roster();
    const FleetRoster& want = direct_.roster();
    ASSERT_EQ(got.active_count(), want.active_count());
    const Snapshot got_snapshot = got.snapshot();
    const Snapshot want_snapshot = want.snapshot();
    for (DeviceId slot = 0; slot < want_snapshot.size(); ++slot) {
      EXPECT_TRUE(got_snapshot[slot] == want_snapshot[slot]) << "slot " << slot;
    }
    for (const auto& [key, r] : winners) {
      EXPECT_EQ(got.slot_of(key), want.slot_of(key)) << "key " << key;
    }
    const auto got_moved = pipeline_.monitor().engine().state().moved();
    const auto want_moved = direct_.engine().state().moved();
    EXPECT_TRUE(std::equal(got_moved.begin(), got_moved.end(),
                           want_moved.begin(), want_moved.end()));
  }

  IngestPipeline pipeline_;
  OnlineMonitor direct_;
  LivenessTracker liveness_;
  std::map<std::uint64_t, std::map<GatewayKey, QosReport>> open_;
  std::uint64_t next_ = 1;
  std::uint64_t rejected_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t revived_ = 0;
};

/// Eight devices on a loose lattice, keys 0..7.
std::vector<std::pair<GatewayKey, Point>> lattice_fleet() {
  std::vector<std::pair<GatewayKey, Point>> fleet;
  for (GatewayKey key = 0; key < 8; ++key) {
    fleet.emplace_back(key, at(8 + 12 * static_cast<int>(key % 4),
                               8 + 24 * static_cast<int>(key / 4)));
  }
  return fleet;
}

/// In-order delivery of interval k's reports: every key at its lattice
/// position except `moves`.
void deliver_interval(Harness& h, std::uint64_t k,
                      const std::map<GatewayKey, Point>& moves = {},
                      const std::vector<GatewayKey>& flagged = {}) {
  for (const auto& [key, home] : lattice_fleet()) {
    const auto moved = moves.find(key);
    const bool flag =
        std::find(flagged.begin(), flagged.end(), key) != flagged.end();
    h.deliver(report(key, k, moved == moves.end() ? home : moved->second,
                     /*seq=*/k, flag));
  }
}

TEST(SealRecheck, OscillatingDeviceKeepsEveryPosition) {
  // Device 3 alternates between two positions, unflagged. Interval k+1's
  // report (back at the roster's value) is staged before k seals and moves
  // the device; only the seal of k re-touching it in k+1's frame moves it
  // back.
  Harness h(8);
  h.prime(lattice_fleet());
  const Point home = lattice_fleet()[3].second;
  const Point away = at(60, 60);
  for (std::uint64_t k = 1; k <= 12; ++k) {
    deliver_interval(h, k, {{3, k % 2 == 1 ? away : home}}, {0});
  }
  h.finish();
  EXPECT_EQ(h.sealed(), 12u);
  const FleetRoster& roster = h.pipeline().monitor().roster();
  EXPECT_TRUE(roster.snapshot()[*roster.slot_of(3)] == home);
}

TEST(SealRecheck, SupersessionBackToRosterValueAndFlagFlips) {
  Harness h(8);
  h.prime(lattice_fleet());
  const Point home4 = lattice_fleet()[4].second;
  for (std::uint64_t k = 1; k <= 8; ++k) {
    const std::uint64_t seq = 10 * k;
    // Device 4: a moved claim, then a correction back to the roster value.
    h.deliver(report(4, k, at(40, 40), seq));
    h.deliver(report(4, k, home4, seq + 1));
    // Device 5: flagged, then unflagged at the same position (and the
    // reverse on odd intervals) — the winner's flag decides.
    const Point p5 = lattice_fleet()[5].second;
    h.deliver(report(5, k, p5, seq, k % 2 == 0));
    h.deliver(report(5, k, p5, seq + 1, k % 2 == 1));
    // Device 6: an unchanged claim superseded by a move, then a stale
    // straggler and a duplicate of the winner.
    h.deliver(report(6, k, lattice_fleet()[6].second, seq));
    h.deliver(report(6, k, at(8 + 24, 56), seq + 2, true));
    h.deliver(report(6, k, lattice_fleet()[6].second, seq + 1));
    h.deliver(report(6, k, at(8 + 24, 56), seq + 2, true));
    for (GatewayKey key : {0, 1, 2, 3, 7}) {
      h.deliver(report(key, k, lattice_fleet()[key].second, seq));
    }
  }
  h.finish();
  EXPECT_EQ(h.sealed(), 8u);
}

TEST(SealRecheck, ReorderAcrossBothOpenFrames) {
  // Interval k's reports split across two deliveries that interleave with
  // k+1's: both open frames take reports between any two seals.
  Harness h(8);
  h.prime(lattice_fleet());
  Rng rng(7);
  std::vector<QosReport> carry;
  for (std::uint64_t k = 1; k <= 16; ++k) {
    std::vector<QosReport> now;
    for (const auto& [key, home] : lattice_fleet()) {
      const bool move = rng.bernoulli(0.4);
      const Point claim =
          move ? at(static_cast<int>(rng.uniform_int(64)), static_cast<int>(key * 8))
               : home;
      now.push_back(report(key, k, claim, k, move && rng.bernoulli(0.5)));
    }
    rng.shuffle(now);
    const std::size_t half = now.size() / 2;
    std::vector<QosReport> batch(carry);
    batch.insert(batch.end(), now.begin(),
                 now.begin() + static_cast<std::ptrdiff_t>(half));
    rng.shuffle(batch);
    for (const QosReport& r : batch) h.deliver(r);
    carry.assign(now.begin() + static_cast<std::ptrdiff_t>(half), now.end());
  }
  for (const QosReport& r : carry) h.deliver(r);
  h.finish();
  EXPECT_EQ(h.sealed(), 16u);
}

TEST(SealRecheck, MonitorWritesBetweenDeliveriesForceFullWalks) {
  Harness h(10);
  h.prime(lattice_fleet());
  // Interval 1 and 2 open; device 2 is silent in 1 and its interval-2
  // report repeats its roster value, then an external write moves it: the
  // seal of 2 must put the claim back although 1's seal never wrote
  // device 2.
  for (const auto& [key, home] : lattice_fleet()) {
    if (key != 2) h.deliver(report(key, 1, home, 1));
  }
  deliver_interval(h, 2);
  h.external_report(2, at(50, 50));
  // External retirement of a staged, untouched key: its claim re-admits it.
  h.external_retire(5);
  // External admission of a key that later reports its admitted position.
  h.external_admit(9, at(2, 2));
  h.deliver(report(9, 2, at(2, 2), 2));
  deliver_interval(h, 3);  // seals 1
  deliver_interval(h, 4);  // seals 2
  h.external_report(1, at(30, 60));
  h.external_retire(9);
  deliver_interval(h, 5);
  deliver_interval(h, 6);
  h.finish();
  EXPECT_EQ(h.sealed(), 6u);
}

TEST(SealRecheck, AdmissionAtFullRosterAndKeysAboveCapacity) {
  // Capacity 10, 8 primed: keys 8, 9 (lane) and 100, 101 (spill, >=
  // capacity) compete for two free slots in key order; the losers are
  // refused and retried every interval.
  Harness h(10);
  h.prime(lattice_fleet());
  for (std::uint64_t k = 1; k <= 8; ++k) {
    deliver_interval(h, k);
    for (const GatewayKey key : {101ULL, 9ULL, 100ULL}) {
      if (key == 9 && k < 3) continue;  // 9 joins late
      h.deliver(report(key, k, at(static_cast<int>(key % 64), 40 + static_cast<int>(k)),
                       k, k % 3 == 0));
    }
    if (k == 5) h.external_retire(0);  // frees a slot for a refused key
  }
  h.finish();
  EXPECT_GT(h.rejected(), 0u);
  EXPECT_TRUE(h.roster().active(100) || h.roster().active(101));
}

TEST(SealRecheck, LivenessOnWalksEveryCell) {
  Harness h(10, LivenessConfig{.silent_intervals = 2, .retry_backoff = 1,
                               .max_retries = 3});
  h.prime(lattice_fleet());
  for (std::uint64_t k = 1; k <= 14; ++k) {
    for (const auto& [key, home] : lattice_fleet()) {
      if (key == 6 && k >= 3) continue;           // goes silent, retired
      if (key == 7 && k >= 4 && k <= 6) continue;  // silent, then revived
      h.deliver(report(key, k, key == 1 && k % 2 == 0 ? at(33, 33) : home, k,
                       key == 1));
    }
  }
  h.finish();
  EXPECT_EQ(h.sealed(), 14u);
  EXPECT_GT(h.retired(), 0u);
  EXPECT_GT(h.pipeline().counters().revived_devices, 0u);
}

/// Random streams mixing everything above: moves, returns to the roster
/// value, flag flips, corrections, duplicates, stale stragglers, late
/// reports for sealed intervals, reorder across both open frames, keys
/// above capacity, a full roster, and roster writes through monitor().
void random_stream(std::uint64_t seed, bool liveness) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  LivenessConfig live;
  if (liveness) live = {.silent_intervals = 2, .retry_backoff = 1, .max_retries = 2};
  Harness h(11, live);
  h.prime(lattice_fleet());
  Rng rng(seed);
  std::vector<GatewayKey> universe = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 500, 501};
  std::map<GatewayKey, Point> truth;
  for (const auto& [key, home] : lattice_fleet()) truth[key] = home;
  std::map<GatewayKey, Point> last;  ///< position before the latest move
  std::map<GatewayKey, std::uint64_t> seq;
  const auto random_point = [&] {
    return at(static_cast<int>(rng.uniform_int(65)),
              static_cast<int>(rng.uniform_int(65)));
  };
  std::vector<QosReport> carry;
  std::vector<QosReport> delivered;
  for (std::uint64_t k = 1; k <= 30; ++k) {
    std::vector<QosReport> now;
    // A cluster move: a few devices shift together, flagged.
    const bool blob = rng.bernoulli(0.3);
    const int dx = static_cast<int>(rng.uniform_int(5)) - 2;
    for (const GatewayKey key : universe) {
      if (!rng.bernoulli(key < 8 ? 0.9 : 0.5)) continue;  // silent this time
      Point& position = truth.try_emplace(key, random_point()).first->second;
      const Point before = position;
      bool flag = false;
      if (blob && key < 4) {
        position = at(static_cast<int>(position[0] * 64) + dx,
                      static_cast<int>(position[1] * 64));
        if (position[0] < 0 || position[0] > 1) position = before;
        flag = true;
      } else if (rng.bernoulli(0.15)) {
        position = random_point();
        flag = rng.bernoulli(0.5);
      } else if (rng.bernoulli(0.2) && last.contains(key)) {
        position = last[key];  // oscillate back, unflagged
      }
      if (!(position == before)) last[key] = before;
      now.push_back(report(key, k, position, ++seq[key], flag));
      if (rng.bernoulli(0.15)) {  // correction: back to where it was
        now.push_back(report(key, k, before, ++seq[key], !flag));
        position = before;
      }
      if (rng.bernoulli(0.1)) now.push_back(now.back());  // duplicate
    }
    rng.shuffle(now);  // corrections may now precede what they correct
    const std::size_t half = now.size() / 2;
    std::vector<QosReport> batch(carry);
    batch.insert(batch.end(), now.begin(),
                 now.begin() + static_cast<std::ptrdiff_t>(half));
    rng.shuffle(batch);
    for (const QosReport& r : batch) {
      h.deliver(r);
      delivered.push_back(r);
      if (rng.bernoulli(0.02) && !delivered.empty()) {  // late or stale
        h.deliver(delivered[rng.uniform_int(delivered.size())]);
      }
      if (rng.bernoulli(0.03)) {
        const GatewayKey key = universe[rng.uniform_int(universe.size())];
        if (h.roster().active(key)) {
          if (rng.bernoulli(0.5)) {
            h.external_report(key, random_point());
          } else {
            h.external_retire(key);
          }
        } else if (h.roster().active_count() < h.roster().capacity()) {
          h.external_admit(key, random_point());
        }
      }
    }
    carry.assign(now.begin() + static_cast<std::ptrdiff_t>(half), now.end());
  }
  for (const QosReport& r : carry) h.deliver(r);
  h.finish();
  EXPECT_EQ(h.sealed(), 30u);
}

TEST(SealRecheck, RandomStreams) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) random_stream(seed, false);
}

TEST(SealRecheck, RandomStreamsWithLiveness) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) random_stream(seed, true);
}

}  // namespace
}  // namespace acn
