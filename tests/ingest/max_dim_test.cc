// The largest QoS dimension, d = Point::kMaxDim = 8 services, end to end.
//
// A Point holds d <= 8 coordinates while the joint space E x E has 2d = 16
// dimensions, so every fixed array that holds one value per joint column
// (bounding boxes, enumeration anchors, dimension orders) is sized
// kMaxJointDim. This test drives d = 8 through the whole stack: a reordered,
// duplicated, corrected report stream goes FleetRoster -> IngestPipeline ->
// FrameEngine, and after every seal
//
//   * the engine's state equals a StatePair built from the roster's rows
//     (column constructor), which equals one built from the two roster
//     Snapshots (Snapshot constructor): every joint_col, qcol and the moved
//     list;
//   * the engine's Decisions are byte-identical to Characterizer::decide_all
//     over the Snapshot-built state;
//   * for every device of A_k, the plane's M(j) and the anchored window
//     enumeration equal a brute-force subset search over N(j) that checks
//     motions with the column min/max kernel, and each motion's JointBox
//     diameter equals its largest pairwise joint distance.
//
// A joint array sized for d values instead of 2d fails the last two checks
// (or the bounds-checked standard library of the sanitizer build).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/characterizer.hpp"
#include "core/motion.hpp"
#include "core/motion_plane.hpp"
#include "ingest/pipeline.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

constexpr std::size_t kDim = Point::kMaxDim;
constexpr std::size_t kCapacity = 40;
constexpr std::size_t kDevices = 36;

Params model() {
  Params p;
  p.r = 0.05;
  p.tau = 2;
  return p;
}

TEST(MaxDim, PointAndReportSizes) {
  static_assert(kDim == 8);
  static_assert(kMaxJointDim == 2 * kDim);
  EXPECT_LE(sizeof(Point), 72u);
  EXPECT_LE(sizeof(QosReport), 104u);
  EXPECT_NO_THROW(StatePair(Snapshot({Point::zero(kDim)}), Snapshot({Point::zero(kDim)}),
                            DeviceSet{}));
}

/// Device positions of the stream: two herds that move together (dense
/// motions, sometimes overlapping), a pair that moves together (a sparse
/// motion), single devices that jump, and a quiet rest.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : rng_(seed) {
    for (std::size_t j = 0; j < kDevices; ++j) claims_.push_back(random_point());
    herd_a_ = random_centre();
    herd_b_ = random_centre();
    pair_ = random_centre();
    place_groups();
  }

  [[nodiscard]] std::vector<std::pair<GatewayKey, Point>> fleet() const {
    std::vector<std::pair<GatewayKey, Point>> out;
    for (std::size_t j = 0; j < kDevices; ++j) out.emplace_back(j, claims_[j]);
    return out;
  }

  /// Interval k's reports, shuffled, with retransmissions and corrections.
  std::vector<QosReport> interval(std::uint64_t k) {
    herd_a_ = shift(herd_a_, 0.2);
    // Herd B sits next to herd A every third interval: overlapping motions.
    herd_b_ = k % 3 == 0 ? shift(herd_a_, 0.06) : shift(herd_b_, 0.2);
    pair_ = shift(pair_, 0.2);
    place_groups();
    std::vector<bool> flagged(kDevices, false);
    for (std::size_t j = 0; j < 12; ++j) flagged[j] = true;
    for (int jumps = 0; jumps < 3; ++jumps) {
      const std::size_t j = 12 + rng_.uniform_int(kDevices - 12);
      claims_[j] = random_point();
      flagged[j] = true;
    }

    std::vector<QosReport> batch;
    for (std::size_t j = 0; j < kDevices; ++j) {
      QosReport report{j, k, claims_[j], flagged[j], ++seq_[j]};
      batch.push_back(report);
      if (rng_.bernoulli(0.1)) batch.push_back(report);  // retransmission
      if (rng_.bernoulli(0.05)) {
        // A correction supersedes the first claim; the stale one may still
        // arrive after it.
        report.claim = jitter(report.claim, 0.01);
        report.arrival_seq = ++seq_[j];
        claims_[j] = report.claim;
        batch.push_back(report);
      }
    }
    rng_.shuffle(batch);
    return batch;
  }

 private:
  void place_groups() {
    for (std::size_t j = 0; j < 6; ++j) claims_[j] = jitter(herd_a_, 0.02);
    for (std::size_t j = 6; j < 10; ++j) claims_[j] = jitter(herd_b_, 0.02);
    for (std::size_t j = 10; j < 12; ++j) claims_[j] = jitter(pair_, 0.02);
  }
  Point random_point() {
    Point p = Point::zero(kDim);
    for (std::size_t t = 0; t < kDim; ++t) p[t] = rng_.uniform(0.0, 1.0);
    return p;
  }
  Point random_centre() {
    Point p = Point::zero(kDim);
    for (std::size_t t = 0; t < kDim; ++t) p[t] = rng_.uniform(0.1, 0.9);
    return p;
  }
  /// Moves every coordinate by up to `step`, kept inside [0.1, 0.9].
  Point shift(const Point& p, double step) {
    Point q = p;
    for (std::size_t t = 0; t < kDim; ++t) {
      q[t] = std::clamp(p[t] + rng_.uniform(-step, step), 0.1, 0.9);
    }
    return q;
  }
  Point jitter(const Point& p, double amount) {
    Point q = p;
    for (std::size_t t = 0; t < kDim; ++t) {
      q[t] = std::clamp(p[t] + rng_.uniform(-amount, amount), 0.0, 1.0);
    }
    return q;
  }

  Rng rng_;
  std::vector<Point> claims_;
  std::vector<std::uint64_t> seq_ = std::vector<std::uint64_t>(kDevices, 0);
  Point herd_a_;
  Point herd_b_;
  Point pair_;
};

void expect_same_state(const StatePair& got, const StatePair& want,
                       const std::string& where) {
  ASSERT_EQ(got.n(), want.n()) << where;
  ASSERT_EQ(got.dim(), want.dim()) << where;
  EXPECT_EQ(got.abnormal(), want.abnormal()) << where;
  for (std::size_t t = 0; t < got.joint_dim(); ++t) {
    for (DeviceId j = 0; j < got.n(); ++j) {
      ASSERT_EQ(got.joint_col(t)[j], want.joint_col(t)[j])
          << where << " joint_col " << t << " slot " << j;
      ASSERT_EQ(got.qcol(t)[j], want.qcol(t)[j]) << where << " qcol " << t << " slot " << j;
    }
  }
  EXPECT_EQ(std::vector<DeviceId>(got.moved().begin(), got.moved().end()),
            std::vector<DeviceId>(want.moved().begin(), want.moved().end()))
      << where;
}

/// M(j) of every abnormal device, against a brute-force subset search over
/// N(j); every motion's JointBox diameter against its pairwise distances.
void expect_motions_match_brute_force(const StatePair& state, const Params& params,
                                      const std::string& where) {
  const MotionPlane plane(state, params);
  for (const DeviceId j : state.abnormal()) {
    const std::vector<DeviceId> pool = plane.within(j, params.window());
    const std::vector<DeviceSet> want =
        test::brute_force_maximal_motions(state, params.r, pool, j);
    std::vector<DeviceSet> got;
    for (const MotionPlane::MotionId m : plane.maximal(j)) {
      const auto members = plane.members(m);
      got.emplace_back(std::vector<DeviceId>(members.begin(), members.end()));
    }
    std::sort(got.begin(), got.end());
    std::vector<DeviceSet> sorted_want = want;
    std::sort(sorted_want.begin(), sorted_want.end());
    ASSERT_EQ(got, sorted_want) << where << " M(" << j << ")";
    std::vector<DeviceSet> anchored = enumerate_maximal_windows(state, params, pool, j);
    std::sort(anchored.begin(), anchored.end());
    ASSERT_EQ(anchored, sorted_want) << where << " anchored windows of " << j;

    for (const DeviceSet& motion : want) {
      double widest = 0.0;
      for (const DeviceId a : motion) {
        for (const DeviceId b : motion) widest = std::max(widest, state.joint_distance(a, b));
      }
      EXPECT_EQ(joint_diameter(state, motion), widest) << where << " motion of " << j;
    }
  }
}

void expect_same_decisions(const IntervalReport& got, const std::vector<Decision>& want,
                           const std::string& where) {
  ASSERT_EQ(got.decisions.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const DeviceId j = got.abnormal[i];
    const auto it = got.decisions.find(j);
    ASSERT_NE(it, got.decisions.end()) << where << " device " << j;
    const Decision& a = it->second;
    const Decision& b = want[i];
    EXPECT_TRUE(a.cls == b.cls && a.rule == b.rule && a.exact == b.exact &&
                a.maximal_motion_count == b.maximal_motion_count &&
                a.dense_motion_count == b.dense_motion_count &&
                a.collections_tested == b.collections_tested)
        << where << " device " << j;
  }
}

TEST(MaxDim, PipelineMatchesFromScratchReferenceAtEightServices) {
  std::size_t abnormal_total = 0;
  std::size_t massive_total = 0;
  std::size_t isolated_total = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Stream stream(seed);
    IngestPipeline::Config config;
    config.monitor.model = model();
    config.monitor.characterize = CharacterizeOptions{.parallel_grain = 1};
    config.monitor.characterize_threads = seed == 2 ? 3 : 1;
    config.capacity = kCapacity;
    config.dim = kDim;
    config.watermark.allowed_lag = 1;
    IngestPipeline pipeline(config);
    pipeline.prime(stream.fleet());
    const FleetRoster& roster = pipeline.monitor().roster();

    std::vector<double> previous_rows(roster.coords().begin(), roster.coords().end());
    Snapshot previous = roster.snapshot();
    std::size_t sealed = 0;
    const auto check_seals = [&] {
      for (const ClosedInterval& closed : pipeline.drain_ready()) {
        const std::string where = "seed " + std::to_string(seed) + " interval " +
                                  std::to_string(closed.interval);
        ASSERT_FALSE(closed.degraded) << where;
        const std::vector<double> rows(roster.coords().begin(), roster.coords().end());
        const Snapshot current = roster.snapshot();
        const DeviceSet& abnormal = closed.report.abnormal;
        EXPECT_FALSE(abnormal.empty()) << where;

        const StatePair from_rows(kDim, previous_rows, rows, abnormal);
        const StatePair from_snapshots(previous, current, abnormal);
        expect_same_state(from_rows, from_snapshots, where + " (rows vs snapshots)");
        expect_same_state(pipeline.monitor().engine().state(), from_snapshots,
                          where + " (engine)");

        Characterizer scratch(from_snapshots, model());
        expect_same_decisions(closed.report, scratch.decide_all(), where);
        expect_motions_match_brute_force(from_snapshots, model(), where);

        abnormal_total += abnormal.size();
        massive_total += closed.report.massive.size();
        isolated_total += closed.report.isolated.size();
        previous_rows = rows;
        previous = current;
        ++sealed;
      }
    };

    constexpr std::uint64_t kIntervals = 10;
    for (std::uint64_t k = 1; k <= kIntervals; ++k) {
      const std::vector<QosReport> batch = stream.interval(k);
      if (k % 2 == 0) {
        pipeline.push_all(batch);
      } else {
        for (const QosReport& report : batch) pipeline.push(report);
      }
      check_seals();
    }
    pipeline.finish();
    check_seals();
    EXPECT_EQ(sealed, kIntervals) << "seed " << seed;
  }
  // The stream exercises both verdicts, not just one.
  EXPECT_GT(abnormal_total, 0u);
  EXPECT_GT(massive_total, 0u);
  EXPECT_GT(isolated_total, 0u);
}

}  // namespace
}  // namespace acn
