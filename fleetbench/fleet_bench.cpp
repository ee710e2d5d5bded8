// fleet_bench: end-to-end benchmark of the report-to-verdict path.
//
// One process, one closed loop, one replay source. The source generates the
// §VII-A stream (ScenarioGenerator), turns each chunk of intervals into
// QosReports (acn::delivery_schedule) and hands them to
// IngestPipeline, which seals every interval through OnlineMonitor and
// FrameEngine. The clock runs only inside calls into the pipeline;
// generation and the correctness check (a from-scratch Characterizer over
// the generator's (S_{k-1}, S_k, A_k)) run outside the timed windows. Every
// sealed interval's Decisions must be field-for-field equal to the
// reference.
//
// The source pushes each batch up to the report that advances the
// watermark with push_all() (a staging call: it seals nothing), then that
// one report with push() followed by drain_ready() (the sealing call: the
// seal, the verdicts, and the telemetry record). So each sealed interval
// gets one seal-to-verdict sample, and stage + seal add up to the pipeline
// time.
//
// --trace 0 prints the end-to-end metrics of one untraced pipeline.
// --trace 1 feeds the same chunks, in rotating order, into three pipelines:
// untraced with the telemetry hub on, traced with it on, and traced with it
// off. The traced hub-on pipeline gives the per-layer metrics and the spans
// (one root per interval, written to --spans at the end); the other two
// give trace.overhead_pct and obs.hub_overhead_pct.
//
// Usage:
//   fleet_bench --workload dense|quiet-fleet|faulty-fleet --seed N
//               --seconds S --trace 0|1 [--spans FILE]
//   fleet_bench --self-test
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A verdict mismatch, a lost interval, or a forced/degraded seal makes the
// run incorrect and the exit code 1.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/characterizer.hpp"
#include "core/kernels/kernels.hpp"
#include "ingest/pipeline.hpp"
#include "obs/telemetry.hpp"
#include "sim/report_source.hpp"
#include "sim/scenario.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Fixed configuration.

/// Event-time lateness budget of every workload.
constexpr std::uint64_t kAllowedLag = 2;
/// A run seals at least this many intervals, so a p95 has >= 10 samples
/// beyond it; work counters and fingerprints cover exactly this prefix, so
/// they repeat across runs of the same seed whatever the run's length.
constexpr std::uint64_t kPrefixIntervals = 200;
/// Pipeline constructions + prime() per run; setup_s is their median.
constexpr int kSetupReps = 21;
/// A tail percentile needs at least this many samples beyond it.
constexpr std::size_t kMinTailSamples = 10;

struct Workload {
  std::string name;
  std::size_t n = 0;          ///< devices
  std::uint32_t errors = 0;   ///< A: errors injected per interval
  bool faulted = false;       ///< delivery faults inside the lateness budget
  std::size_t chunk = 0;      ///< intervals per delivery_schedule() call
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"dense", 5000, 80, false, 1},
      {"quiet-fleet", 100000, 1, false, 1},
      {"faulty-fleet", 100000, 1, true, 2},
  };
  return table;
}

/// Delivery faults of one chunk. In-order workloads get none. The faulted
/// workload alternates two fault mixes over chunks of two intervals:
///   even chunks: reorder by up to n/4 slots, which carries reports across
///                the interval boundary, plus 5% retransmitted duplicates;
///   odd chunks:  2% of devices stall for one interval, plus 5%
///                retransmitted duplicates.
/// Interval k seals when the first report of k + 2 arrives, n slots after
/// the last in-order report of k. A reordered report (or its duplicate)
/// trails its slot by at most 2 * n/4, and a stalled one by the n - 1 slots
/// of one interval, so each mix stays inside allowed_lag = 2 on its own;
/// a stall plus a reorder could overrun it, so they never share a chunk.
acn::DeliveryFaults faults_for(const Workload& w, std::uint64_t seed,
                               std::uint64_t chunk_index) {
  acn::DeliveryFaults faults;
  faults.seed = seed * 1'000'003ULL + chunk_index + 1;
  if (!w.faulted) return faults;
  faults.duplicate_rate = 0.05;
  if (chunk_index % 2 == 0) {
    faults.reorder_window = w.n / 4;
  } else {
    faults.stall_rate = 0.02;
    faults.stall_intervals = 1;
  }
  return faults;
}

// ---------------------------------------------------------------------------
// Statistics and fingerprints.

/// Nearest-rank quantile. Refuses a tail quantile (q > 0.5) with fewer than
/// kMinTailSamples samples beyond it.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::runtime_error("quantile of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (q > 0.5 && n - rank < kMinTailSamples) {
    throw std::runtime_error("p" + std::to_string(static_cast<int>(q * 100)) +
                             " refused: " + std::to_string(n - rank) +
                             " samples beyond it of " + std::to_string(n) +
                             ", need " + std::to_string(kMinTailSamples));
  }
  return values[rank - 1];
}

/// FNV-1a over the bytes of the values fed to it.
class Fingerprint {
 public:
  template <class T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  void add_point(const acn::Point& p) {
    add(p.dim());
    for (std::size_t i = 0; i < p.dim(); ++i) add(p[i]);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void add_decision(Fingerprint& f, acn::DeviceId j, const acn::Decision& d) {
  f.add(j);
  f.add(static_cast<std::uint8_t>(d.cls));
  f.add(static_cast<std::uint8_t>(d.rule));
  f.add(static_cast<std::uint8_t>(d.exact));
  f.add(d.maximal_motion_count);
  f.add(d.dense_motion_count);
  f.add(d.collections_tested);
}

bool same_decision(const acn::Decision& a, const acn::Decision& b) {
  return a.cls == b.cls && a.rule == b.rule && a.exact == b.exact &&
         a.maximal_motion_count == b.maximal_motion_count &&
         a.dense_motion_count == b.dense_motion_count &&
         a.collections_tested == b.collections_tested;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Resident set size now, from /proc/self/statm (0 where it is absent).
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  std::uint64_t root = 0;  ///< interval id k
  const char* name = "";
  double start_ms = 0.0;   ///< since the run's origin
  double end_ms = 0.0;
  std::vector<std::pair<const char*, double>> attrs;
};

/// Spans kept in memory for the whole run, written out at the end.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void add(std::uint64_t root, const char* name, Clock::time_point start,
           Clock::time_point end,
           std::vector<std::pair<const char*, double>> attrs = {}) {
    spans_.push_back(Span{root, name, ms_between(origin_, start),
                          ms_between(origin_, end), std::move(attrs)});
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// One JSON object per line: for every interval k a root span
  /// {"id": k, "name": "interval"} covering its children, then each child
  /// with "parent": k.
  void write(const std::string& path) const {
    std::vector<const Span*> order;
    order.reserve(spans_.size());
    for (const Span& s : spans_) order.push_back(&s);
    std::stable_sort(order.begin(), order.end(),
                     [](const Span* a, const Span* b) { return a->root < b->root; });
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    char buf[64];
    auto num = [&](double v) {
      std::snprintf(buf, sizeof buf, "%.6f", v);
      return std::string(buf);
    };
    for (std::size_t i = 0; i < order.size();) {
      const std::uint64_t root = order[i]->root;
      std::size_t end = i;
      double lo = order[i]->start_ms;
      double hi = order[i]->end_ms;
      while (end < order.size() && order[end]->root == root) {
        lo = std::min(lo, order[end]->start_ms);
        hi = std::max(hi, order[end]->end_ms);
        ++end;
      }
      out << "{\"id\":" << root << ",\"name\":\"interval\",\"start_ms\":"
          << num(lo) << ",\"end_ms\":" << num(hi) << "}\n";
      for (; i < end; ++i) {
        const Span& s = *order[i];
        out << "{\"parent\":" << root << ",\"name\":\"" << s.name
            << "\",\"start_ms\":" << num(s.start_ms)
            << ",\"end_ms\":" << num(s.end_ms) << ",\"attrs\":{";
        for (std::size_t a = 0; a < s.attrs.size(); ++a) {
          out << (a ? "," : "") << '"' << s.attrs[a].first
              << "\":" << num(s.attrs[a].second);
        }
        out << "}}\n";
      }
    }
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// The replay source and the reference verdicts.

/// The reference verdicts of one generated interval, until every pipeline
/// has sealed and checked it.
struct Expected {
  std::vector<acn::DeviceId> abnormal;
  std::vector<acn::Decision> decisions;  ///< in A_k (ascending id) order
  unsigned unchecked = 0;                ///< pipelines still to check it
};
using ExpectedStore = std::map<std::uint64_t, Expected>;

class ReplaySource {
 public:
  ReplaySource(const Workload& w, std::uint64_t seed)
      : w_(w), seed_(seed), generator_(params(w, seed)) {}

  /// S_0, the fleet every pipeline is primed with.
  [[nodiscard]] acn::Snapshot initial() const {
    return acn::Snapshot(generator_.positions());
  }

  /// Generates the next chunk of intervals: the reference verdicts go into
  /// `store` (to be checked by `pipelines` pipelines), the reports into
  /// `reports` in delivery order (acn::delivery_schedule), numbered in event
  /// time from the last chunk on.
  void next(ExpectedStore& store, unsigned pipelines, Tracer* tracer,
            std::vector<acn::QosReport>& reports) {
    const acn::Params model = generator_.params().model;
    std::vector<acn::ObservedInterval> chunk;
    chunk.reserve(w_.chunk);
    const std::uint64_t base = generated_;
    for (std::size_t i = 0; i < w_.chunk; ++i) {
      const std::uint64_t k = ++generated_;
      const auto t0 = Clock::now();
      acn::ScenarioStep step = generator_.advance();
      const auto t1 = Clock::now();
      acn::Characterizer reference(step.state, model, acn::CharacterizeOptions{});
      std::vector<acn::Decision> decisions = reference.decide_all();
      const auto t2 = Clock::now();

      const acn::DeviceSet& abnormal = step.state.abnormal();
      store[k] = Expected{{abnormal.begin(), abnormal.end()},
                          std::move(decisions), pipelines};
      scratch_ms_.push_back(ms_between(t1, t2));
      chunk.push_back({step.state.curr(), abnormal});
      if (tracer != nullptr) {
        tracer->add(k, "sim.generate", t0, t1);
        tracer->add(k, "reference.characterize", t1, t2,
                    {{"abnormal", static_cast<double>(abnormal.size())}});
      }
    }
    const auto t0 = Clock::now();
    reports = acn::delivery_schedule(chunk, faults_for(w_, seed_, chunks_));
    for (acn::QosReport& r : reports) {
      r.interval += base;
      r.arrival_seq += base;
      if (generated_ <= kPrefixIntervals) {
        prefix_.add(r.device);
        prefix_.add(r.interval);
        prefix_.add(r.arrival_seq);
        prefix_.add(r.abnormal);
        prefix_.add_point(r.claim);
      }
    }
    if (tracer != nullptr) {
      tracer->add(base + 1, "sim.generate", t0, Clock::now(),
                  {{"delivery_schedule", 1.0},
                   {"reports", static_cast<double>(reports.size())}});
    }
    ++chunks_;
  }

  [[nodiscard]] std::uint64_t generated() const noexcept { return generated_; }
  [[nodiscard]] const std::vector<double>& scratch_ms() const noexcept {
    return scratch_ms_;
  }
  /// Fingerprint of the reports of the first kPrefixIntervals intervals.
  [[nodiscard]] const Fingerprint& prefix() const noexcept { return prefix_; }

 private:
  static acn::ScenarioParams params(const Workload& w, std::uint64_t seed) {
    acn::ScenarioParams p;  // d = 2, r = 0.03, tau = 3, G = 0.5, R3 on
    p.n = w.n;
    p.errors_per_step = w.errors;
    p.seed = seed;
    return p;
  }

  Workload w_;
  std::uint64_t seed_;
  acn::ScenarioGenerator generator_;
  std::uint64_t generated_ = 0;
  std::uint64_t chunks_ = 0;
  std::vector<double> scratch_ms_;
  Fingerprint prefix_;
};

// ---------------------------------------------------------------------------
// One pipeline under measurement.

acn::IngestPipeline::Config pipeline_config(const Workload& w, bool hub) {
  acn::IngestPipeline::Config config;
  config.capacity = w.n;
  config.dim = 2;
  config.watermark.allowed_lag = kAllowedLag;
  config.monitor.characterize_threads = 1;
  if (hub) config.monitor.telemetry = acn::obs::TelemetryConfig{};
  return config;
}

/// Constructs a pipeline and primes it with S_0; returns the seconds taken.
double set_up(const Workload& w, bool hub, const acn::Snapshot& s0,
              std::unique_ptr<acn::IngestPipeline>& out) {
  out.reset();
  // Hand the previous pipeline's freed pages back to the kernel, so every
  // repeat faults its memory in as a process's first set-up does.
  malloc_trim(0);
  const auto t0 = Clock::now();
  auto pipeline = std::make_unique<acn::IngestPipeline>(pipeline_config(w, hub));
  pipeline->prime(s0);
  const auto t1 = Clock::now();
  out = std::move(pipeline);
  return ms_between(t0, t1) / 1000.0;
}

/// One sealed interval's timings.
struct SealSample {
  std::uint64_t interval = 0;
  double stage_ms = 0.0;  ///< non-sealing calls since the previous seal
  double seal_ms = 0.0;   ///< the call during which it sealed
  acn::FrameStats stats;
};

/// Work counters over the first kPrefixIntervals intervals.
struct WorkCounts {
  std::uint64_t intervals = 0;
  std::uint64_t abnormal = 0;
  std::uint64_t unresolved = 0;
  std::uint64_t decisions = 0;
  std::uint64_t search_nodes = 0;
  std::array<std::uint64_t, 6> rules{};
  std::uint64_t moved = 0;
  std::uint64_t components = 0;
  std::uint64_t motions = 0;
  std::uint64_t kernel_items = 0;
  std::uint64_t kernel_calls = 0;
};

class Lane {
 public:
  /// `tracer` (not owned, nullptr = untraced) receives the lane's spans.
  Lane(std::unique_ptr<acn::IngestPipeline> pipeline, Tracer* tracer,
       std::uint64_t tamper_interval)
      : pipeline_(std::move(pipeline)),
        tracer_(tracer),
        tamper_(tamper_interval) {}

  /// Pushes one chunk of reports, split at each watermark-advancing report.
  void feed(std::span<const acn::QosReport> reports, ExpectedStore& store) {
    std::size_t i = 0;
    while (i < reports.size()) {
      const std::uint64_t horizon = pipeline_->next_to_seal() + kAllowedLag;
      std::size_t j = i;
      while (j < reports.size() && reports[j].interval < horizon) ++j;
      if (j > i) {
        const auto t0 = Clock::now();
        pipeline_->push_all(reports.subspan(i, j - i));
        const auto t1 = Clock::now();
        account({"ingest.push", t0, t1, j - i}, {}, store);
      }
      if (j < reports.size()) {
        const auto t0 = Clock::now();
        pipeline_->push(reports[j]);
        std::vector<acn::ClosedInterval> closed = pipeline_->drain_ready();
        const auto t1 = Clock::now();
        account({"ingest.seal", t0, t1, 1}, std::move(closed), store);
      }
      i = j + 1;
    }
  }

  /// End of stream: seals the intervals still open. The drain is pipeline
  /// time, and its intervals are checked, but it is not a latency sample.
  void finish(ExpectedStore& store) {
    const auto t0 = Clock::now();
    pipeline_->finish();
    std::vector<acn::ClosedInterval> closed = pipeline_->drain_ready();
    const auto t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    pipeline_ms_ += ms;
    finish_ms_ = ms + pending_stage_ms_;
    pending_stage_ms_ = 0.0;
    if (tracer_ != nullptr) {
      const std::uint64_t root = closed.empty() ? 0 : closed.back().interval;
      pending_calls_.push_back({"ingest.finish", t0, t1, 0});
      trace_pending(root);
    }
    for (acn::ClosedInterval& c : closed) check(c, store);
  }

  [[nodiscard]] const acn::IngestCounters& counters() const {
    return pipeline_->counters();
  }
  [[nodiscard]] const std::vector<SealSample>& samples() const { return samples_; }
  [[nodiscard]] double pipeline_ms() const { return pipeline_ms_; }
  [[nodiscard]] double finish_ms() const { return finish_ms_; }
  [[nodiscard]] std::uint64_t pushed() const { return pushed_; }
  [[nodiscard]] std::uint64_t checked() const { return checked_; }
  [[nodiscard]] std::uint64_t mismatched() const { return mismatched_; }
  [[nodiscard]] const WorkCounts& work() const { return work_; }
  [[nodiscard]] const Fingerprint& verdicts_prefix() const { return prefix_; }
  [[nodiscard]] const Fingerprint& verdicts_all() const { return all_; }

 private:
  /// One timed pipeline call.
  struct Call {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t reports;
  };

  void account(const Call& call, std::vector<acn::ClosedInterval> closed,
               ExpectedStore& store) {
    const double ms = ms_between(call.start, call.end);
    pipeline_ms_ += ms;
    pushed_ += call.reports;
    if (closed.empty()) {  // sealed nothing: staging time of the next seal
      pending_stage_ms_ += ms;
      if (tracer_ != nullptr) pending_calls_.push_back(call);
      return;
    }
    // Every event time advances the watermark by one in these workloads, so
    // a sealing call seals exactly one interval and owns its FrameStats.
    if (closed.size() != 1) {
      throw std::runtime_error("one report sealed " + std::to_string(closed.size()) +
                               " intervals");
    }
    const std::uint64_t k = closed.front().interval;
    const acn::FrameStats& stats = pipeline_->monitor().last_stats();
    samples_.push_back({k, pending_stage_ms_, ms, stats});
    pending_stage_ms_ = 0.0;
    trace_pending(k);
    if (tracer_ != nullptr) {
      tracer_->add(
          k, call.name, call.start, call.end,
          {{"reports", static_cast<double>(call.reports)},
           {"state_ms", stats.state_ms},
           {"grid_ms", stats.grid_ms},
           {"plane_ms", stats.plane_ms},
           {"characterize_ms", stats.characterize_ms},
           {"self_ms", ms - stats.total_ms()},
           {"moved", static_cast<double>(stats.moved)},
           {"abnormal", static_cast<double>(stats.abnormal)},
           {"components", static_cast<double>(stats.components)},
           {"motions", static_cast<double>(stats.motions)},
           {"kernel_items", static_cast<double>(kernel_items(stats.kernel))},
           {"kernel_calls", static_cast<double>(kernel_calls(stats.kernel))}});
    }
    check(closed.front(), store);
    if (k <= kPrefixIntervals) {
      work_.moved += stats.moved;
      work_.components += stats.components;
      work_.motions += stats.motions;
      work_.kernel_items += kernel_items(stats.kernel);
      work_.kernel_calls += kernel_calls(stats.kernel);
    }
  }

  /// Records the staging calls since the previous seal under `root`.
  void trace_pending(std::uint64_t root) {
    for (const Call& call : pending_calls_) {
      tracer_->add(root, call.name, call.start, call.end,
                   {{"reports", static_cast<double>(call.reports)}});
    }
    pending_calls_.clear();
  }

  static std::uint64_t kernel_items(const acn::kernels::Counters& k) {
    return k.filter_items + k.minmax_items + k.popcnt_words + k.radius_items;
  }
  static std::uint64_t kernel_calls(const acn::kernels::Counters& k) {
    return k.filter_calls + k.minmax_calls + k.popcnt_calls + k.radius_calls;
  }

  /// The correctness gate: abnormal set and every Decision field equal to
  /// the reference, and a clean (not forced, not degraded) seal.
  void check(acn::ClosedInterval& c, ExpectedStore& store) {
    const auto it = store.find(c.interval);
    if (it == store.end()) {
      ++mismatched_;
      std::fprintf(stderr, "interval %llu: sealed but never generated\n",
                   static_cast<unsigned long long>(c.interval));
      return;
    }
    ++checked_;
    const Expected& expected = it->second;
    std::map<acn::DeviceId, acn::Decision>& verdicts = c.report.decisions;
    if (c.interval == tamper_ && !verdicts.empty()) {
      acn::Decision& d = verdicts.begin()->second;
      d.cls = d.cls == acn::AnomalyClass::kIsolated ? acn::AnomalyClass::kMassive
                                                    : acn::AnomalyClass::kIsolated;
    }
    bool ok = !c.forced && !c.degraded && !c.report.degraded &&
              c.report.abnormal.size() == expected.abnormal.size() &&
              verdicts.size() == expected.decisions.size();
    std::size_t i = 0;
    for (auto v = verdicts.begin(); ok && v != verdicts.end(); ++v, ++i) {
      ok = v->first == expected.abnormal[i] &&
           c.report.abnormal[i] == expected.abnormal[i] &&
           same_decision(v->second, expected.decisions[i]);
    }
    if (!ok) {
      ++mismatched_;
      std::fprintf(stderr, "interval %llu: verdicts differ from the reference%s\n",
                   static_cast<unsigned long long>(c.interval),
                   c.forced || c.degraded ? " (forced/degraded seal)" : "");
    }

    const bool in_prefix = c.interval <= kPrefixIntervals;
    all_.add(c.interval);
    if (in_prefix) prefix_.add(c.interval);
    for (const auto& [j, d] : verdicts) {
      add_decision(all_, j, d);
      if (!in_prefix) continue;
      add_decision(prefix_, j, d);
      ++work_.decisions;
      work_.search_nodes += d.collections_tested;
      ++work_.rules[static_cast<std::size_t>(d.rule)];
    }
    if (in_prefix) {
      ++work_.intervals;
      work_.abnormal += c.report.abnormal.size();
      work_.unresolved += c.report.unresolved.size();
    }
    if (--it->second.unchecked == 0) store.erase(it);
  }

  std::unique_ptr<acn::IngestPipeline> pipeline_;
  Tracer* tracer_;
  std::uint64_t tamper_;
  double pipeline_ms_ = 0.0;
  double pending_stage_ms_ = 0.0;
  double finish_ms_ = 0.0;
  std::uint64_t pushed_ = 0;
  std::uint64_t checked_ = 0;
  std::uint64_t mismatched_ = 0;
  std::vector<SealSample> samples_;
  std::vector<Call> pending_calls_;  ///< traced staging calls since the last seal
  WorkCounts work_;
  Fingerprint prefix_;
  Fingerprint all_;
};

// ---------------------------------------------------------------------------
// A run.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct RunOptions {
  Workload workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;           ///< where --trace 1 writes its spans
  std::uint64_t tamper_interval = 0;  ///< self-test: alter this verdict
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< the JSON metrics of this trace mode
  std::vector<std::string> notes;  ///< printed before the JSON line
  std::string reports_prefix;
  std::string verdicts_prefix;
};

std::string fmt(const char* format, double value) {
  char buf[128];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

/// One value per sealed interval.
template <class Field>
std::vector<double> per_interval(const Lane& lane, Field field) {
  std::vector<double> v;
  for (const SealSample& s : lane.samples()) v.push_back(field(s));
  return v;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Reconciles the traced pipeline against its spans: per interval, the
/// ingest spans rooted at it add up to its stage + seal time; every seal's
/// self time is >= 0 within clock resolution; and all calls add up to the
/// pipeline time. Returns the problems found.
std::vector<std::string> reconcile(const Lane& lane, const Tracer& tracer) {
  constexpr double kResolutionMs = 1e-3;
  std::map<std::uint64_t, double> span_ms;
  for (const Span& s : tracer.spans()) {
    if (std::strncmp(s.name, "ingest.", 7) == 0) {
      span_ms[s.root] += s.end_ms - s.start_ms;
    }
  }
  std::vector<std::string> problems;
  double total = lane.finish_ms();
  for (const SealSample& s : lane.samples()) {
    const double own = s.stage_ms + s.seal_ms;
    total += own;
    if (std::abs(span_ms[s.interval] - own) > kResolutionMs) {
      problems.push_back("interval " + std::to_string(s.interval) + ": spans " +
                         fmt("%.6f", span_ms[s.interval]) +
                         " ms vs stage + seal " + fmt("%.6f", own) + " ms");
    }
    if (s.seal_ms - s.stats.total_ms() < -kResolutionMs) {
      problems.push_back("interval " + std::to_string(s.interval) +
                         ": seal self time " +
                         fmt("%.6f", s.seal_ms - s.stats.total_ms()) + " ms < 0");
    }
  }
  if (std::abs(total - lane.pipeline_ms()) > kResolutionMs) {
    problems.push_back("stage + seal + drain " + fmt("%.6f", total) +
                       " ms vs pipeline time " + fmt("%.6f", lane.pipeline_ms()) +
                       " ms");
  }
  return problems;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::string pct(double part, double whole) {
  return fmt("%.1f%%", 100.0 * part / whole);
}

RunResult run(const RunOptions& opt) {
  const Workload& w = opt.workload;
  const auto origin = Clock::now();
  ReplaySource source(w, opt.seed);
  const acn::Snapshot s0 = source.initial();
  RunResult result;

  // Set-up: construct + prime kSetupReps times, keep the last pipeline.
  // The first one's resident growth is the primed pipeline's own memory.
  std::vector<double> setup_s;
  std::unique_ptr<acn::IngestPipeline> first;
  const double rss_before_mb = rss_mb();
  double pipeline_rss_mb = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s.push_back(set_up(w, /*hub=*/true, s0, first));
    if (rep == 0) pipeline_rss_mb = rss_mb() - rss_before_mb;
  }
  // --trace 1 adds a traced hub-on pipeline (the per-layer numbers, spans
  // kept in `spans` with the source's) and a traced hub-off one (its spans
  // cost the same and are dropped).
  Tracer spans(origin);
  Tracer dropped(origin);
  std::vector<Lane> lanes;
  lanes.emplace_back(std::move(first), nullptr, opt.tamper_interval);
  if (opt.trace) {
    std::unique_ptr<acn::IngestPipeline> p;
    (void)set_up(w, /*hub=*/true, s0, p);
    lanes.emplace_back(std::move(p), &spans, opt.tamper_interval);
    (void)set_up(w, /*hub=*/false, s0, p);
    lanes.emplace_back(std::move(p), &dropped, opt.tamper_interval);
  }

  ExpectedStore store;
  std::vector<acn::QosReport> reports;
  double prefix_rss_mb = 0.0;
  std::string error;
  const auto loop_start = Clock::now();
  try {
    for (std::uint64_t chunk = 0;; ++chunk) {
      source.next(store, static_cast<unsigned>(lanes.size()),
                  opt.trace ? &spans : nullptr, reports);
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        lanes[(chunk + l) % lanes.size()].feed(reports, store);
      }
      // Peak RSS is read once the first kPrefixIntervals intervals are
      // pushed: at the end of a timed run it would grow with the number of
      // intervals a faster program fits into it.
      if (prefix_rss_mb == 0.0 && source.generated() >= kPrefixIntervals) {
        prefix_rss_mb = peak_rss_mb();
      }
      const double elapsed_s = ms_between(loop_start, Clock::now()) / 1000.0;
      if (elapsed_s >= opt.seconds &&
          source.generated() >= kPrefixIntervals + kAllowedLag) {
        break;
      }
    }
    for (Lane& lane : lanes) lane.finish(store);
  } catch (const std::exception& e) {
    error = e.what();
    std::fprintf(stderr, "pipeline error: %s\n", error.c_str());
  }
  const double loop_s = ms_between(loop_start, Clock::now()) / 1000.0;

  // An interval fails if a pipeline lost it (never sealed, e.g. after an
  // exception) or its verdicts failed the gate; count the worst pipeline.
  result.attempted = source.generated();
  for (const Lane& lane : lanes) {
    const std::uint64_t lost =
        result.attempted - std::min(result.attempted, lane.checked());
    result.failed = std::max(result.failed, lane.mismatched() + lost);
  }
  result.correct = result.failed == 0 && error.empty();

  const Lane& main = lanes.front();
  const Lane& measured = opt.trace ? lanes[1] : main;
  const WorkCounts& work = measured.work();
  result.reports_prefix = source.prefix().hex();
  result.verdicts_prefix = main.verdicts_prefix().hex();
  auto& notes = result.notes;
  notes.push_back("workload " + w.name + " n=" + std::to_string(w.n) +
                  " A=" + std::to_string(w.errors) +
                  " seed=" + std::to_string(opt.seed) +
                  " trace=" + std::to_string(opt.trace ? 1 : 0) +
                  " kernels=" + acn::kernels::dispatch_name());
  notes.push_back("intervals generated=" + std::to_string(result.attempted) +
                  " latency_samples=" + std::to_string(main.samples().size()) +
                  " reports_pushed=" + std::to_string(main.pushed()) +
                  " loop_s=" + fmt("%.3f", loop_s));
  {
    std::string reps = "set-up reps ms:";
    for (double v : setup_s) reps += fmt(" %.1f", v * 1000.0);
    notes.push_back(reps);
  }
  notes.push_back("fingerprint of the first " + std::to_string(kPrefixIntervals) +
                  " intervals: reports=" + result.reports_prefix +
                  " verdicts=" + result.verdicts_prefix);
  notes.push_back("fingerprint of all " + std::to_string(main.checked()) +
                  " sealed intervals: verdicts=" + main.verdicts_all().hex());
  if (!result.correct) return result;

  const std::size_t prefix = work.intervals;
  const std::uint64_t budget_exhausted =
      work.rules[static_cast<std::size_t>(acn::DecisionRule::kBudgetExhausted)];
  const std::vector<Metric> quality = {
      {"unresolved_share", ratio(work.unresolved, work.abnormal), "ratio",
       work.abnormal},
      {"budget_exhausted_share", ratio(budget_exhausted, work.decisions), "ratio",
       work.decisions},
      {"failed_interval_share", ratio(result.failed, result.attempted), "ratio",
       result.attempted},
  };
  std::vector<Metric>& m = result.metrics;

  if (!opt.trace) {
    const auto seal = per_interval(main, [](const SealSample& s) { return s.seal_ms; });
    m.push_back({"reports_per_s",
                 static_cast<double>(main.pushed()) / (main.pipeline_ms() / 1000.0),
                 "reports/s", main.pushed()});
    m.push_back({"seal_to_verdict_ms_p50", quantile(seal, 0.50), "ms", seal.size()});
    m.push_back({"seal_to_verdict_ms_p95", quantile(seal, 0.95), "ms", seal.size()});
    m.push_back({"setup_s", quantile(setup_s, 0.50), "s", setup_s.size()});
    m.push_back({"peak_rss_mb", prefix_rss_mb, "MB", 1});
    notes.push_back("metric pipeline.primed_rss_mb = " + fmt("%.1f", pipeline_rss_mb) +
                    " MB (samples 1)");
    // Zero on a healthy run, so they are reported here but not bounded.
    for (const Metric& q : quality) {
      notes.push_back("metric " + q.name + " = " + fmt("%.6f", q.value) + " " +
                      q.unit + " (samples " + std::to_string(q.samples) + ")");
    }
    return result;
  }

  const Lane& hub_off = lanes[2];
  const auto stage = per_interval(measured, [](const SealSample& s) { return s.stage_ms; });
  // Self time: the sealing call minus the engine's phases (the seal, the
  // roster snapshot copy, episodes, the telemetry record).
  const auto self = per_interval(
      measured, [](const SealSample& s) { return s.seal_ms - s.stats.total_ms(); });
  const auto state = per_interval(measured, [](const SealSample& s) { return s.stats.state_ms; });
  const auto grid = per_interval(measured, [](const SealSample& s) { return s.stats.grid_ms; });
  const auto plane = per_interval(measured, [](const SealSample& s) { return s.stats.plane_ms; });
  const auto chz =
      per_interval(measured, [](const SealSample& s) { return s.stats.characterize_ms; });
  const auto seal_on = per_interval(measured, [](const SealSample& s) { return s.seal_ms; });
  const auto seal_off = per_interval(hub_off, [](const SealSample& s) { return s.seal_ms; });
  const acn::IngestCounters& ic = measured.counters();
  auto count = [&](const char* name, std::uint64_t value, std::size_t samples) {
    m.push_back({name, static_cast<double>(value), "count", samples});
  };

  m.push_back({"ingest.stage_ms_p50", quantile(stage, 0.50), "ms", stage.size()});
  m.push_back({"ingest.seal_self_ms_p50", quantile(self, 0.50), "ms", self.size()});
  count("ingest.accepted", ic.accepted, 1);
  count("ingest.duplicates", ic.duplicates, 1);
  count("ingest.superseded", ic.superseded, 1);
  count("ingest.late_sealed", ic.late_sealed, 1);
  count("ingest.replayed_claims", ic.replayed_claims, 1);
  count("ingest.forced_closes", ic.forced_closes, 1);
  m.push_back({"ingest.accept_ratio", ratio(ic.accepted, measured.pushed()), "ratio",
               measured.pushed()});
  m.push_back({"core.state_ms_p50", quantile(state, 0.50), "ms", state.size()});
  m.push_back({"core.grid_ms_p50", quantile(grid, 0.50), "ms", grid.size()});
  count("core.moved", work.moved, prefix);
  m.push_back({"core.plane_ms_p50", quantile(plane, 0.50), "ms", plane.size()});
  m.push_back({"core.plane_ms_p95", quantile(plane, 0.95), "ms", plane.size()});
  count("core.components", work.components, prefix);
  count("core.motions", work.motions, prefix);
  m.push_back({"core.characterize_ms_p50", quantile(chz, 0.50), "ms", chz.size()});
  m.push_back({"core.characterize_ms_p95", quantile(chz, 0.95), "ms", chz.size()});
  count("core.search_nodes", work.search_nodes, prefix);
  for (std::size_t r = 0; r < work.rules.size(); ++r) {
    m.push_back({std::string("core.rule.") +
                     acn::to_string(static_cast<acn::DecisionRule>(r)),
                 static_cast<double>(work.rules[r]), "count", prefix});
  }
  count("core.kernel_items", work.kernel_items, prefix);
  count("core.kernel_calls", work.kernel_calls, prefix);
  m.push_back({"pipeline.primed_rss_mb", pipeline_rss_mb, "MB", 1});
  m.push_back({"core.scratch_ms_p50", quantile(source.scratch_ms(), 0.50), "ms",
               source.scratch_ms().size()});
  const double on = quantile(seal_on, 0.50);
  const double off = quantile(seal_off, 0.50);
  m.push_back({"obs.hub_overhead_pct", 100.0 * (on - off) / off, "%", seal_on.size()});
  const double untraced_rate = static_cast<double>(main.pushed()) / main.pipeline_ms();
  const double traced_rate =
      static_cast<double>(measured.pushed()) / measured.pipeline_ms();
  m.push_back({"trace.overhead_pct",
               100.0 * (untraced_rate - traced_rate) / untraced_rate, "%",
               measured.pushed()});
  m.insert(m.end(), quality.begin(), quality.end());

  const double total = measured.pipeline_ms();
  notes.push_back("pipeline time " + fmt("%.1f", total) + " ms: stage " +
                  pct(sum(stage), total) + ", seal self " + pct(sum(self), total) +
                  ", state " + pct(sum(state), total) + ", grid " +
                  pct(sum(grid), total) + ", plane " + pct(sum(plane), total) +
                  ", characterize " + pct(sum(chz), total) +
                  ", end-of-stream drain " + pct(measured.finish_ms(), total));
  const std::vector<std::string> problems = reconcile(measured, spans);
  for (const std::string& p : problems) {
    std::fprintf(stderr, "reconciliation: %s\n", p.c_str());
  }
  notes.push_back("reconciliation: " +
                  (problems.empty()
                       ? "ok over " + std::to_string(measured.samples().size()) +
                             " intervals"
                       : std::to_string(problems.size()) + " problems"));
  if (!problems.empty()) result.correct = false;
  if (!opt.spans_path.empty()) {
    spans.write(opt.spans_path);
    notes.push_back("spans written to " + opt.spans_path);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Output and entry points.

/// Every metric by name with its unit and sample count, then the result as
/// the last line of stdout.
void print(const RunResult& r) {
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("metric %s = %.10g %s (samples %zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// Small versions of the three workloads, the gate against an altered
/// verdict, and the p95 refusal. Returns the number of failed checks.
int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  auto small = [](const char* name, std::size_t n) {
    Workload w = *find_workload(name);
    w.n = n;
    return w;
  };

  std::map<std::string, RunResult> smoke;
  for (const Workload& w : {small("dense", 2000), small("quiet-fleet", 5000),
                            small("faulty-fleet", 5000)}) {
    RunOptions opt;
    opt.workload = w;
    opt.seconds = 0.0;  // the minimum run: kPrefixIntervals + lag intervals
    opt.trace = true;
    const RunResult r = run(opt);
    expect(r.correct && r.failed == 0 && r.attempted >= kPrefixIntervals,
           "smoke " + w.name + ": " + std::to_string(r.attempted) +
               " intervals match the reference");
    expect(r.metrics.size() == 34, "smoke " + w.name + ": 34 per-layer metrics");
    smoke[w.name] = r;
  }
  expect(smoke["faulty-fleet"].verdicts_prefix == smoke["quiet-fleet"].verdicts_prefix,
         "faulty-fleet verdicts equal quiet-fleet's");
  expect(smoke["faulty-fleet"].reports_prefix != smoke["quiet-fleet"].reports_prefix,
         "faulty-fleet delivers a different report stream");
  {
    RunOptions opt;
    opt.workload = small("dense", 2000);
    opt.seconds = 0.0;
    const RunResult a = run(opt);
    const RunResult b = run(opt);
    expect(a.correct && a.metrics.size() == 5, "dense untraced: 5 end-to-end metrics");
    expect(a.reports_prefix == b.reports_prefix && a.verdicts_prefix == b.verdicts_prefix,
           "two runs of one seed do identical work");
    opt.tamper_interval = 17;
    const RunResult t = run(opt);
    expect(!t.correct && t.failed == 1, "the gate catches an altered verdict");
  }
  {
    std::vector<double> v(199);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
    bool refused = false;
    try {
      (void)quantile(v, 0.95);
    } catch (const std::runtime_error&) {
      refused = true;
    }
    expect(refused, "p95 refused with 9 samples beyond it");
    v.push_back(199.0);
    expect(quantile(v, 0.95) == 189.0, "p95 of 200 samples has 10 beyond it");
  }
  return failures;
}

int usage() {
  std::fprintf(stderr,
               "usage: fleet_bench --workload dense|quiet-fleet|faulty-fleet "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n"
               "       fleet_bench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const int failures = self_test();
      std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--spans") {
        opt.spans_path = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage();
  opt.workload = *w;
  try {
    const RunResult r = run(opt);
    print(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_bench: %s\n", e.what());
    return 1;
  }
}
