// Change-set roll equivalence: after priming, every seal reaches the engine
// as the roster's change set (the slots whose coordinates changed), not as
// a copy of the fleet. This pins that handoff against the from-scratch
// state it replaces. Randomized roster streams — admit, liveness and
// explicit retirement, FIFO slot recycling, spill keys >= capacity,
// reordered / duplicated / stalled / corrected delivery, and -0.0 claims
// over 0.0 — go through IngestPipeline, and after every seal:
//
//   * the engine's prev/curr positions, every joint_col/qcol entry and the
//     moved list equal a StatePair built from scratch out of the two
//     consecutive roster.snapshot()s;
//   * the Decisions equal a fixed-fleet OnlineMonitor fed those snapshots
//     directly through observe(Snapshot) (diff + the same roll).
//
// A second test makes observe() throw after its roll (a four-byte plane
// arena budget) and checks the roster's change set survives the throw and
// the following intervals still match the scratch state.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/frame.hpp"
#include "core/motion_plane.hpp"
#include "ingest/pipeline.hpp"

namespace acn {
namespace {

constexpr std::size_t kCapacity = 48;
constexpr std::size_t kDim = 2;
constexpr GatewayKey kSpillBase = 1000;  // keys >= capacity spill
constexpr GatewayKey kZeroKey = 3;       // reports x = 0.0, then -0.0

Params model() {
  Params p;
  p.r = 0.05;
  p.tau = 2;
  return p;
}

void expect_same_state(const StatePair& got, const StatePair& want,
                       const std::string& where) {
  ASSERT_EQ(got.n(), want.n()) << where;
  ASSERT_EQ(got.dim(), want.dim()) << where;
  EXPECT_EQ(got.abnormal(), want.abnormal()) << where;
  for (DeviceId j = 0; j < got.n(); ++j) {
    ASSERT_TRUE(got.prev_pos(j) == want.prev_pos(j))
        << where << " prev of slot " << j << ": " << got.prev_pos(j).to_string()
        << " vs " << want.prev_pos(j).to_string();
    ASSERT_TRUE(got.curr_pos(j) == want.curr_pos(j))
        << where << " curr of slot " << j << ": " << got.curr_pos(j).to_string()
        << " vs " << want.curr_pos(j).to_string();
    for (std::size_t t = 0; t < got.joint_dim(); ++t) {
      ASSERT_EQ(got.joint_col(t)[j], want.joint_col(t)[j])
          << where << " joint_col " << t << " slot " << j;
      ASSERT_EQ(got.qcol(t)[j], want.qcol(t)[j])
          << where << " qcol " << t << " slot " << j;
    }
  }
  const std::vector<DeviceId> got_moved(got.moved().begin(), got.moved().end());
  const std::vector<DeviceId> want_moved(want.moved().begin(), want.moved().end());
  EXPECT_EQ(got_moved, want_moved) << where;
}

void expect_same_decisions(const std::map<DeviceId, Decision>& got,
                           const std::map<DeviceId, Decision>& want,
                           const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  auto it = want.begin();
  for (const auto& [device, a] : got) {
    ASSERT_EQ(device, it->first) << where;
    const Decision& b = it->second;
    EXPECT_TRUE(a.cls == b.cls && a.rule == b.rule && a.exact == b.exact &&
                a.maximal_motion_count == b.maximal_motion_count &&
                a.dense_motion_count == b.dense_motion_count &&
                a.collections_tested == b.collections_tested)
        << where << " device " << device;
    ++it;
  }
}

/// Per-key source state of the generated stream.
struct Source {
  Point claim;
  std::uint64_t seq = 0;
};

/// A randomized churned roster stream: per interval, the reports in
/// delivery order (within the lateness budget of allowed_lag = 2).
class StreamGen {
 public:
  explicit StreamGen(std::uint64_t seed) : rng_(seed) {
    // Dense keys (some recycled into freed slots later) and spill keys.
    for (GatewayKey key = 0; key < 26; ++key) join(key, random_point());
    for (GatewayKey key = kSpillBase; key < kSpillBase + 8; ++key) {
      join(key, random_point());
    }
    sources_.at(kZeroKey).claim = Point{0.0, 0.4};
  }

  [[nodiscard]] std::vector<std::pair<GatewayKey, Point>> fleet() const {
    std::vector<std::pair<GatewayKey, Point>> out;
    for (const auto& [key, source] : sources_) out.emplace_back(key, source.claim);
    return out;
  }

  /// Reports for event time k (the ones still owed from k-1's stalls come
  /// first, interleaved with k's own by the shuffle).
  std::vector<QosReport> interval(std::uint64_t k) {
    std::vector<QosReport> batch = std::exchange(carry_, {});
    // Churn: some keys go silent for good (liveness retires them), new
    // keys — dense and spill — start reporting (auto-admitted at the seal).
    std::vector<GatewayKey> keys;
    for (const auto& [key, source] : sources_) keys.push_back(key);
    for (const GatewayKey key : keys) {
      if (key != kZeroKey && rng_.bernoulli(0.04)) {
        sources_.erase(key);
        silent_.push_back(key);
      }
    }
    if (rng_.bernoulli(0.5)) join(next_dense_++ % kCapacity + 26, random_point());
    if (rng_.bernoulli(0.4)) join(next_spill_++, random_point());
    if (k % 5 == 2) {
      // A fresh key parked at the origin claims -0.0: no coordinate changes.
      join(next_spill_++, Point{-0.0, -0.0});
    }

    // A clustered group moves together (massive), single devices jump
    // (isolated); everyone else mostly re-claims its last position.
    const Point centre = random_point();
    for (auto& [key, source] : sources_) {
      const double u = rng_.uniform(0.0, 1.0);
      bool flagged = false;
      if (key == kZeroKey) {
        source.claim = Point{k % 2 == 0 ? -0.0 : 0.0, 0.4};
      } else if (u < 0.15) {
        source.claim = near(centre);
        flagged = true;
      } else if (u < 0.22) {
        source.claim = random_point();
        flagged = rng_.bernoulli(0.7);
      } else if (u < 0.30) {
        source.claim = near(source.claim);
      }
      if (rng_.bernoulli(0.08)) continue;  // silent this interval: replayed
      QosReport report{key, k, source.claim, flagged, ++source.seq};
      if (rng_.bernoulli(0.1)) {
        carry_.push_back(report);  // stalled into the next batch
      } else {
        batch.push_back(report);
      }
      if (rng_.bernoulli(0.1)) batch.push_back(report);  // retransmission
      if (rng_.bernoulli(0.05)) {
        // A correction supersedes the first claim.
        QosReport fix = report;
        fix.claim = near(report.claim);
        fix.arrival_seq = ++source.seq;
        source.claim = fix.claim;
        batch.push_back(fix);
      }
    }
    // Reorder within the batch; a report of k must still precede any of
    // k+2 (the next batch's own reports), which this construction keeps.
    rng_.shuffle(batch);
    return batch;
  }

  Rng& rng() { return rng_; }
  /// Every key that ever joined the stream.
  [[nodiscard]] const std::vector<GatewayKey>& keys() const { return joined_; }

 private:
  void join(GatewayKey key, const Point& at) {
    if (sources_.count(key) != 0) return;
    if (std::find(silent_.begin(), silent_.end(), key) != silent_.end()) return;
    sources_[key].claim = at;
    joined_.push_back(key);
  }
  Point random_point() {
    return Point{rng_.uniform(0.0, 1.0), rng_.uniform(0.0, 1.0)};
  }
  Point near(const Point& p) {
    const auto clamp = [](double x) { return std::min(1.0, std::max(0.0, x)); };
    return Point{clamp(p[0] + rng_.uniform(-0.02, 0.02)),
                 clamp(p[1] + rng_.uniform(-0.02, 0.02))};
  }

  Rng rng_;
  std::map<GatewayKey, Source> sources_;
  std::vector<GatewayKey> silent_;
  std::vector<GatewayKey> joined_;
  std::vector<QosReport> carry_;
  GatewayKey next_dense_ = 0;
  GatewayKey next_spill_ = kSpillBase + 8;
};

TEST(ChangeSetRoll, RosterStreamsMatchScratchStateAndDirectFeed) {
  std::size_t decisions = 0;
  std::size_t moved = 0;
  std::size_t recycled = 0;
  IngestCounters totals;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    StreamGen gen(seed);
    IngestPipeline::Config config;
    config.monitor.model = model();
    config.monitor.characterize = CharacterizeOptions{.parallel_grain = 1};
    config.monitor.characterize_threads = seed % 2 == 0 ? 3 : 1;
    config.capacity = kCapacity;
    config.dim = kDim;
    config.watermark.allowed_lag = 2;
    config.liveness.silent_intervals = 2;
    config.liveness.retry_backoff = 1;
    config.liveness.max_retries = 1;
    IngestPipeline pipeline(config);
    pipeline.prime(gen.fleet());
    const FleetRoster& roster = pipeline.monitor().roster();

    OnlineMonitor::Config direct_config;
    direct_config.model = model();
    direct_config.characterize = CharacterizeOptions{.parallel_grain = 1};
    OnlineMonitor direct(direct_config);
    Snapshot previous = roster.snapshot();
    (void)direct.observe(previous, DeviceSet{});
    std::map<DeviceId, GatewayKey> owner;  // slot -> last key seen in it

    const auto check_seal = [&](const ClosedInterval& closed) {
      const std::string where = "seed " + std::to_string(seed) + " interval " +
                                std::to_string(closed.interval);
      const Snapshot current = roster.snapshot();
      const StatePair scratch(previous, current, closed.report.abnormal);
      expect_same_state(pipeline.monitor().engine().state(), scratch, where);
      const IntervalReport want = direct.observe(current, closed.report.abnormal);
      expect_same_decisions(closed.report.decisions, want.decisions, where);
      decisions += want.decisions.size();
      moved += scratch.moved().size();
      previous = current;
    };

    for (std::uint64_t k = 1; k <= 30; ++k) {
      for (const QosReport& report : gen.interval(k)) {
        pipeline.push(report);
        for (const ClosedInterval& closed : pipeline.drain_ready()) {
          check_seal(closed);
          if (testing::Test::HasFatalFailure()) return;
          for (const GatewayKey key : gen.keys()) {
            const std::optional<DeviceId> slot = roster.slot_of(key);
            if (!slot.has_value()) continue;
            const auto [it, fresh] = owner.try_emplace(*slot, key);
            if (!fresh && it->second != key) {
              ++recycled;  // a retired key's slot now serves another key
              it->second = key;
            }
          }
        }
      }
      // An operator retirement between deliveries, now and then.
      if (gen.rng().bernoulli(0.3)) {
        const GatewayKey key = gen.rng().uniform_int(26);
        if (key != kZeroKey) pipeline.monitor().retire(key);
      }
    }
    const IngestCounters& c = pipeline.counters();
    totals.admitted_devices += c.admitted_devices;
    totals.retired_devices += c.retired_devices;
    totals.duplicates += c.duplicates;
    totals.superseded += c.superseded;
    totals.replayed_claims += c.replayed_claims;
  }
  // Guard against a vacuous pass.
  EXPECT_GT(decisions, 200u);
  EXPECT_GT(moved, 500u);
  EXPECT_GT(totals.admitted_devices, 50u);
  EXPECT_GT(totals.retired_devices, 20u);
  EXPECT_GT(totals.duplicates, 50u);
  EXPECT_GT(totals.superseded, 20u);
  EXPECT_GT(totals.replayed_claims, 50u);
  EXPECT_GT(recycled, 10u);
}

TEST(ChangeSetRoll, ThrowingObserveKeepsTheChangeSet) {
  // A four-byte plane arena (an empty A_k's component table fits, any
  // abnormal device does not) makes every interval with a non-empty A_k
  // throw ArenaBudgetExceeded out of observe() — after its roll, like a
  // real arena blow-up. The handoff is the monitor's: changes() is rolled in,
  // and clear_changes() runs only once observe() has returned.
  FrameEngine engine(FrameEngine::Config{.model = model(), .plane_arena_budget = 4});
  FleetRoster roster(kCapacity, kDim);
  Rng rng(77);
  const auto random_point = [&rng] {
    return Point{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
  };
  for (GatewayKey key = 0; key < 40; ++key) (void)roster.admit(key, random_point());
  (void)engine.observe(roster.snapshot(), DeviceSet{});
  roster.clear_changes();
  roster.end_interval();
  Snapshot previous = roster.snapshot();

  PositionUpdate update;
  GatewayKey next_key = 40;
  std::size_t throws = 0;
  std::size_t returns = 0;
  for (int k = 1; k <= 24; ++k) {
    std::vector<GatewayKey> flagged;
    for (GatewayKey key = 0; key < next_key; ++key) {
      if (!roster.active(key) || !rng.bernoulli(0.3)) continue;
      roster.report(key, random_point());
      if (k % 3 == 0 && rng.bernoulli(0.5)) flagged.push_back(key);
    }
    if (rng.bernoulli(0.5)) {
      const GatewayKey key = rng.uniform_int(next_key);
      if (roster.active(key)) roster.retire(key);
    }
    if (roster.active_count() < roster.capacity()) {
      (void)roster.admit(next_key++, random_point());
    }
    const DeviceSet abnormal = roster.abnormal_slots(flagged);
    roster.end_interval();

    roster.changes(update);
    const std::vector<DeviceId> offered = update.ids;
    bool threw = false;
    try {
      (void)engine.observe(update, abnormal);
      roster.clear_changes();
      ++returns;
    } catch (const ArenaBudgetExceeded&) {
      threw = true;
      ++throws;
    }
    const std::string where = "interval " + std::to_string(k);
    const Snapshot current = roster.snapshot();
    // The roll stands whether or not the plane build threw.
    expect_same_state(engine.state(), StatePair(previous, current, abnormal), where);
    if (testing::Test::HasFatalFailure()) return;
    roster.changes(update);
    if (threw) {
      EXPECT_EQ(update.ids, offered) << where << ": change set lost on throw";
    } else {
      EXPECT_TRUE(update.ids.empty()) << where;
    }
    previous = current;
  }
  EXPECT_GE(throws, 5u);
  EXPECT_GE(returns, 10u);
}

}  // namespace
}  // namespace acn
