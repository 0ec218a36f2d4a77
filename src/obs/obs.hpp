// Observability: pipeline-wide tracing and metrics.
//
// The paper's claim is an *activity-shape* claim (one DPM switches per
// master cycle) and the ROADMAP's north star is throughput; both need a
// measurement substrate. This module provides one, with three ingredients:
//
//  * `Span` — a thread-aware RAII timer. Constructing a Span stamps a
//    start time, destroying it records a (name, lane, start, duration)
//    tuple into the global Registry. The lane is the work-stealing pool
//    worker index (`ThreadPool::current_worker_index() + 1`; lane 0 is any
//    off-pool thread), so traces show per-worker utilization directly.
//  * named counters/gauges — monotonic `count()` totals (mux inputs,
//    registers merged by left-edge, transfer variables inserted, nets,
//    toggles, the settle-kernel's `sim.kernel.events_popped` /
//    `sim.kernel.evals_skipped` work-saved pair, ...) and point-in-time
//    `set_gauge()` values (points/sec, lane utilization).
//  * histograms/tracks — log2-bucket distribution sketches (`observe()`,
//    pct50/90/99 for per-step energy and per-point latency tails) and
//    counter tracks (`Registry::counter_track()`, time-stamped value series
//    such as the per-clock-domain power waveforms, rendered as Chrome-trace
//    counter lanes under a separate "simulated time" process).
//  * sinks — a human summary table (`Registry::summary()`, rendered with
//    util::table) and Chrome trace-event JSON
//    (`Registry::chrome_trace_json()`, loadable in chrome://tracing and
//    Perfetto) plus an aggregate metrics JSON (`Registry::metrics_json()`).
//
// Collection is *disabled by default* and the disabled path is deliberately
// no-op-cheap: every instrumentation entry point begins with one relaxed
// atomic load and returns. No `#ifdef`s, no sink objects at call sites.
//
// Determinism: instrumentation only observes (it reads clocks and
// accumulates into side tables); it never feeds back into any algorithm or
// RNG. Synthesis/exploration results are bit-identical with collection on
// or off, for any thread count — asserted by tests/test_obs.cpp over the
// four paper benchmarks.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcrtl::obs {

/// Is collection on? One relaxed atomic load; the gate every
/// instrumentation site checks first.
bool enabled();

/// Turn collection on/off process-wide. Typically flipped once at startup
/// (CLI `--trace-out` / `--metrics-out` / `--progress`).
void set_enabled(bool on);

/// One completed span. `name` must be a string literal (stored by pointer).
struct SpanRecord {
  const char* name;
  std::uint64_t start_ns;  ///< since Registry epoch (last reset())
  std::uint64_t dur_ns;
  int lane;  ///< 0 = off-pool thread, k >= 1 = pool worker k-1
};

/// Aggregated view of all spans sharing a name.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
};

/// Busy time per lane (for utilization reports): the union of the lane's
/// span intervals, so nested spans count once and busy_ms never exceeds
/// the lane's wall time.
struct LaneStats {
  int lane = 0;
  std::uint64_t spans = 0;
  double busy_ms = 0;
};

/// Fixed-footprint distribution sketch: 64 log2-width buckets plus exact
/// count/sum/min/max. Bucket 0 holds values < 1; bucket b >= 1 holds
/// [2^(b-1), 2^b). Percentiles are nearest-rank over the buckets, reported
/// as the containing bucket's upper edge clamped to [min, max] — a <= 2x
/// overestimate by construction, which is the right fidelity for "where is
/// the tail?" questions (per-step energy, per-point latency) at O(1) space
/// per series.
struct HistogramStats {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  std::array<std::uint64_t, 64> buckets{};

  double mean() const { return count ? sum / static_cast<double>(count) : 0; }
  /// Nearest-rank percentile, q in (0, 1]; 0 when empty.
  double pct(double q) const;
  /// Bucket index of a value (see class comment).
  static int bucket_of(double value);
};

/// One sample of a counter track: (timestamp in track units, value).
using TrackSample = std::pair<double, double>;

/// A named counter series rendered as a Chrome-trace counter ("ph":"C")
/// track — e.g. the per-clock-domain power waveforms, timestamped by
/// simulated step rather than host time (they live under their own
/// "simulated time" process in the trace, pid 2).
struct CounterTrack {
  std::string name;
  std::vector<TrackSample> samples;
};

/// Process-wide metric store. All members are thread-safe.
class Registry {
 public:
  static Registry& instance();

  /// Add `n` to the named monotonic counter. No-op while disabled (and no
  /// counter is created, so a disabled run leaves the registry empty).
  void count(std::string_view name, std::uint64_t n = 1);

  /// Set a point-in-time value. No-op while disabled.
  void set_gauge(const std::string& name, double value);

  /// Fold one sample into the named histogram. No-op while disabled (no
  /// histogram is created, so a disabled run leaves the registry empty).
  void observe(std::string_view name, double value);
  /// Batch form of observe(): one lock, many samples.
  void observe_many(std::string_view name, const std::vector<double>& values);

  /// Append samples to the named counter track. No-op while disabled.
  void counter_track(const std::string& name, std::vector<TrackSample> samples);

  /// Record a completed span (called by ~Span; callable directly for
  /// externally timed intervals).
  void record_span(const SpanRecord& rec);

  /// Nanoseconds since the epoch (construction or last reset()).
  std::uint64_t now_ns() const;

  // ---- snapshots ----------------------------------------------------------
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<HistogramStats> histograms() const;
  std::vector<CounterTrack> counter_tracks() const;
  std::vector<SpanRecord> spans() const;
  std::vector<SpanStats> span_stats() const;
  std::vector<LaneStats> lane_stats() const;
  std::size_t num_spans() const;

  /// Drop every record and re-arm the epoch (does not change enabled()).
  void reset();

  // ---- sinks --------------------------------------------------------------
  /// Human-readable span/counter/gauge/lane tables (util::table).
  std::string summary() const;
  /// Chrome trace-event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}
  /// with one lane ("thread") per pool worker plus lane 0 for the main
  /// thread. Load in chrome://tracing or https://ui.perfetto.dev.
  std::string chrome_trace_json() const;
  /// Aggregate JSON: counters, gauges, per-name span stats, per-lane busy
  /// time.
  std::string metrics_json() const;

 private:
  Registry();

  mutable std::mutex m_;
  // Transparent comparators: a lookup by string_view allocates nothing.
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramStats, std::less<>> histograms_;
  std::map<std::string, std::vector<TrackSample>> tracks_;
  std::vector<SpanRecord> spans_;
  std::chrono::steady_clock::time_point epoch_;
};

/// Free-function shorthands for the instrumentation call sites.
inline void count(std::string_view name, std::uint64_t n = 1) {
  if (!enabled()) return;
  Registry::instance().count(name, n);
}
inline void set_gauge(const std::string& name, double value) {
  if (!enabled()) return;
  Registry::instance().set_gauge(name, value);
}
inline void observe(std::string_view name, double value) {
  if (!enabled()) return;
  Registry::instance().observe(name, value);
}
inline void observe_many(std::string_view name,
                         const std::vector<double>& values) {
  if (!enabled()) return;
  Registry::instance().observe_many(name, values);
}

/// RAII scoped timer. `name` must outlive the program (use a literal).
/// Inactive (and free of any clock read) while collection is disabled.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace mcrtl::obs
