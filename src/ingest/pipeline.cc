#include "ingest/pipeline.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace acn {

void WatermarkConfig::validate() const {
  if (allowed_lag == 0) {
    throw std::invalid_argument(
        "WatermarkConfig: allowed_lag must be >= 1 (0 would seal an interval "
        "on its first report)");
  }
  if (max_watermark_jump == 0) {
    throw std::invalid_argument(
        "WatermarkConfig: max_watermark_jump must be >= 1");
  }
}

namespace {

OnlineMonitor::Config roster_backed(OnlineMonitor::Config monitor,
                                    std::size_t capacity, std::size_t dim) {
  monitor.roster_capacity = capacity;
  monitor.roster_dim = dim;
  return monitor;
}

}  // namespace

IngestPipeline::IngestPipeline(Config config)
    : config_(std::move(config)),
      monitor_(roster_backed(config_.monitor, config_.capacity, config_.dim)),
      overload_(config_.overload),
      liveness_(config_.liveness) {
  if (config_.capacity == 0) {
    throw std::invalid_argument("IngestPipeline: capacity must be >= 1");
  }
  roster_ = &monitor_.roster();
  config_.watermark.validate();
  shed_possible_ = config_.overload.shed_claim_threshold !=
                   static_cast<std::size_t>(-1);
}

void IngestPipeline::prime(
    std::span<const std::pair<GatewayKey, Point>> fleet) {
  if (primed_) {
    throw std::logic_error("IngestPipeline::prime: already primed");
  }
  for (const auto& [key, position] : fleet) admit_at_prime(key, position);
  seal_prime();
}

void IngestPipeline::prime(const Snapshot& initial) {
  if (primed_) {
    throw std::logic_error("IngestPipeline::prime: already primed");
  }
  for (DeviceId j = 0; j < initial.size(); ++j) {
    admit_at_prime(static_cast<GatewayKey>(j), initial[j]);
  }
  seal_prime();
}

void IngestPipeline::admit_at_prime(GatewayKey key, const Point& position) {
  monitor_.admit(key, position);
  liveness_.admitted(key, 0);
}

void IngestPipeline::seal_prime() {
  // Seal interval 0: primes the engine straight from the roster's rows and
  // clears the just-admitted markers, so interval 1 trajectories exist.
  (void)monitor_.close_interval({});
  sealed_revision_ = roster_->revision();
  primed_ = true;
}

void IngestPipeline::push(const QosReport& report) {
  if (!primed_) {
    throw std::logic_error("IngestPipeline::push: prime() first");
  }
  // The seal writes every staged claim through to the roster, which rejects
  // the same claims; checked here, before anything is staged, a malformed
  // report cannot leave an interval half-applied at its seal.
  if (report.claim.dim() != config_.dim || !report.claim.in_unit_box()) {
    throw std::invalid_argument("IngestPipeline::push: claim of device " +
                                std::to_string(report.device) +
                                " is not a point of [0,1]^" +
                                std::to_string(config_.dim));
  }
  const std::uint64_t k = report.interval;
  if (k < next_to_seal_) {
    // The interval is sealed; its snapshot already replayed this device's
    // last claim (the hostile layer's self-consistency rule). Retroactive
    // application would fork the published history, so: counted, dropped.
    ++counters_.late_sealed;
    return;
  }
  if (k > max_seen_ + config_.watermark.max_future_skip) {
    ++counters_.future_rejected;
    return;
  }

  StagingFrame* frame = hot_frame_;
  if (frame == nullptr || hot_interval_ != k) {
    auto it = frames_.find(k);
    if (it == frames_.end()) {
      StagingFrame fresh;
      if (frame_pool_.empty()) {
        fresh.configure(config_.capacity, config_.dim);
      } else {
        fresh = std::move(frame_pool_.back());
        frame_pool_.pop_back();
      }
      fresh.first_seen_tick = tick_;
      it = frames_.emplace(k, std::move(fresh)).first;
    }
    frame = &it->second;  // map nodes are stable until erased
    hot_frame_ = frame;
    hot_interval_ = k;
  }
  if (k > max_seen_) max_seen_ = k;  // the event time counts even if shed

  // Overload shed: past the volume threshold, non-flagged claim updates
  // are sampled by content hash — the flagged ones always land.
  if (shed_possible_ && !report.abnormal &&
      overload_.shed_claim(report.device, k, frame->volume())) {
    ++counters_.shed_claims;
    frame->shed_engaged = true;
  } else {
    const StagingFrame::Apply applied = frame->apply(report);
    switch (applied) {
      case StagingFrame::Apply::kAccepted:
        ++counters_.accepted;
        break;
      case StagingFrame::Apply::kSuperseded:
      case StagingFrame::Apply::kStale:
        ++counters_.superseded;
        break;
      case StagingFrame::Apply::kDuplicate:
        ++counters_.duplicates;
        break;
    }
    // The seal visits only touched keys (see seal()): a newly staged claim
    // is touched unless sealing it would provably change nothing — it is
    // unflagged, and the roster already holds it for an active key.
    if ((applied == StagingFrame::Apply::kAccepted ||
         applied == StagingFrame::Apply::kSuperseded) &&
        (report.abnormal ||
         !roster_->holds(report.device, report.claim.coords()))) {
      frame->touch(report.device);
    }
  }
  seal_ready();
}

void IngestPipeline::push_all(std::span<const QosReport> reports) {
  if (!primed_) {
    throw std::logic_error("IngestPipeline::push: prime() first");
  }
  for (const QosReport& report : reports) push(report);
}

void IngestPipeline::seal_ready() {
  // Watermark rule: k seals once max_seen - k >= allowed_lag. When one
  // advance flushes more than max_watermark_jump intervals (an interval
  // flood slammed the watermark forward), the excess — the oldest ones,
  // flushed furthest from their lateness window — seal forced/degraded.
  while (max_seen_ >= next_to_seal_ + config_.watermark.allowed_lag) {
    const std::uint64_t pending =
        max_seen_ - config_.watermark.allowed_lag - next_to_seal_ + 1;
    seal(next_to_seal_,
         /*forced=*/pending > config_.watermark.max_watermark_jump);
  }
}

void IngestPipeline::tick() {
  ++tick_;
  if (config_.watermark.timeout_ticks == 0 || !primed_) return;
  // The stall rule watches the OLDEST staged frame: once it has been open
  // for timeout_ticks, everything up to and including it seals (the empty
  // gap intervals before it are only open because it dammed the stream).
  while (!frames_.empty()) {
    const auto oldest = frames_.begin();
    if (tick_ - oldest->second.first_seen_tick <
        config_.watermark.timeout_ticks) {
      break;
    }
    const std::uint64_t blocked_through = oldest->first;
    while (next_to_seal_ <= blocked_through) {
      seal(next_to_seal_, /*forced=*/true);
    }
  }
}

void IngestPipeline::finish() {
  if (!primed_) return;
  while (next_to_seal_ <= max_seen_) {
    // End of stream: nothing further can arrive, so these frames are as
    // complete as they will ever be — a normal close, not a forced one.
    seal(next_to_seal_, /*forced=*/false);
  }
}

std::vector<ClosedInterval> IngestPipeline::drain_ready() {
  return std::exchange(ready_, {});
}

void IngestPipeline::seal(std::uint64_t interval, bool forced) {
  ClosedInterval closed;
  closed.interval = interval;
  closed.forced = forced;

  StagingFrame frame;
  bool poolable = false;  // gap intervals seal a lane-less placeholder
  if (const auto it = frames_.find(interval); it != frames_.end()) {
    frame = std::move(it->second);
    frames_.erase(it);
    poolable = true;
    if (hot_interval_ == interval) hot_frame_ = nullptr;
  }
  bool degraded = forced || frame.shed_engaged;
  if (forced) ++counters_.forced_closes;

  // Which staged cells to visit. An untouched cell holds the claim the
  // roster held for its (active) key when the cell was staged, unflagged;
  // reporting it again is a no-op as long as the roster entry has not
  // changed since. Earlier seals re-touch what they change (below), so
  // only two things force a walk over every staged cell: liveness, which
  // must hear every reporting key, and roster writes made through
  // monitor() since the last seal — those may have invalidated the
  // staging-time comparison in every frame open now.
  const FleetRoster& roster = *roster_;
  if (roster.revision() != sealed_revision_) {
    walk_all_through_ = frames_.empty() ? interval : frames_.rbegin()->first;
  }
  const bool liveness_on = liveness_.enabled();
  const bool walk_all = liveness_on || interval <= walk_all_through_;

  // Apply the visited claims in key order (deterministic under any delivery
  // permutation), streaming each cell's coordinates straight into the
  // roster. First-seen keys are auto-admitted; when the roster is full the
  // report is refused and the interval marked degraded. A key whose roster
  // entry this changes is touched in every other open frame: a later
  // interval may have staged it, untouched, against the entry this seal
  // just overwrote.
  std::vector<GatewayKey> flagged;
  std::vector<Point> flagged_claims;
  std::size_t rejected = 0;
  const auto visit = [&](GatewayKey key, const StagingFrame::Cell& cell) {
    const std::uint64_t revision = roster.revision();
    if (monitor_.try_report(key, cell.claim)) {
      if (liveness_on && liveness_.reported(key, interval)) {
        ++counters_.revived_devices;
      }
    } else {
      if (roster.active_count() >= roster.capacity()) {
        ++counters_.admit_rejected;
        ++rejected;
        degraded = true;
        return;
      }
      monitor_.admit(key, Point(cell.claim));
      if (liveness_on) liveness_.admitted(key, interval);
      ++counters_.admitted_devices;
    }
    if (roster.revision() != revision) {
      for (auto& [later, other] : frames_) other.touch(key);
    }
    if (cell.flagged) {
      flagged.push_back(key);
      flagged_claims.emplace_back(cell.claim);
    }
  };
  if (walk_all) {
    frame.for_each_sorted(visit);
  } else {
    frame.for_each_touched(visit);
  }
  closed.reported = frame.device_count() - rejected;
  if (poolable) {
    frame.reset();
    frame_pool_.push_back(std::move(frame));
  }
  closed.replayed = roster.active_count() - closed.reported;
  counters_.replayed_claims += closed.replayed;

  // Liveness: devices silent past the threshold walk the retry ladder;
  // the exhausted ones go through the roster's retire path (slot parks at
  // its last claim, open episode force-closed). A device that reported
  // this interval was just marked heard, so it can never expire here.
  for (const GatewayKey key : liveness_.sealed(interval)) {
    liveness_.forget(key);
    if (!roster.active(key)) continue;  // externally retired
    monitor_.retire(key);
    ++counters_.retired_devices;
    closed.retired.push_back(key);
  }

  // Overload deferral: past the abnormal cap, flagged devices with no
  // flagged 2r-neighbour (at claimed positions) are deferred — provably
  // without effect on the surviving devices' verdicts (see overload.hpp).
  const std::vector<std::size_t> deferred = overload_.defer_candidates(
      flagged_claims, config_.monitor.model.window());
  if (!deferred.empty()) {
    degraded = true;
    counters_.deferred_devices += deferred.size();
    std::vector<GatewayKey> kept;
    kept.reserve(flagged.size() - deferred.size());
    std::size_t next = 0;
    for (std::size_t i = 0; i < flagged.size(); ++i) {
      if (next < deferred.size() && deferred[next] == i) {
        closed.deferred.push_back(flagged[i]);
        ++next;
      } else {
        kept.push_back(flagged[i]);
      }
    }
    flagged = std::move(kept);
  }

  closed.degraded = degraded;
  closed.report = monitor_.close_interval(flagged, degraded);

  // Telemetry: annotate the interval the monitor just recorded with what
  // ingestion did to it — the per-seal deltas of the cumulative counters
  // plus the watermark distance and queue depth at the seal.
  if (obs::TelemetryHub* hub = monitor_.telemetry()) {
    obs::IngestSample sample;
    sample.seal_lag = max_seen_ > interval ? max_seen_ - interval : 0;
    sample.forced = forced;
    sample.reported = closed.reported;
    sample.replayed = closed.replayed;
    sample.deferred = closed.deferred.size();
    sample.retired = closed.retired.size();
    sample.late_sealed = counters_.late_sealed - telemetry_baseline_.late_sealed;
    sample.duplicates = counters_.duplicates - telemetry_baseline_.duplicates;
    sample.shed_claims = counters_.shed_claims - telemetry_baseline_.shed_claims;
    sample.open_intervals = frames_.size();
    telemetry_baseline_ = counters_;
    hub->annotate_ingest(closed.report.interval, sample);
  }

  sealed_revision_ = roster.revision();
  ready_.push_back(std::move(closed));
  ++next_to_seal_;
}

}  // namespace acn
