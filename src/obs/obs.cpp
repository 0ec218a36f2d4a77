#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace mcrtl::obs {

namespace {

std::atomic<bool> g_enabled{false};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string lane_name(int lane) {
  return lane == 0 ? std::string("main") : str_format("worker-%d", lane - 1);
}

}  // namespace

int HistogramStats::bucket_of(double value) {
  if (!(value >= 1.0)) return 0;  // < 1 and NaN both land in bucket 0
  // A value >= 1 is normal or +inf, so ilogb(value) is its biased exponent
  // minus 1023: read the exponent bits instead of calling into libm.
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  const int b = static_cast<int>(bits >> 52) - 1022;
  return b > 63 ? 63 : b;
}

double HistogramStats::pct(double q) const {
  if (count == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t cum = 0;
  for (int b = 0; b < 64; ++b) {
    cum += buckets[static_cast<std::size_t>(b)];
    if (cum >= rank) {
      const double edge = std::ldexp(1.0, b);  // upper edge: bucket 0 -> 1
      return std::min(std::max(edge, min), max);
    }
  }
  return max;
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Registry::Registry() : epoch_(std::chrono::steady_clock::now()) {}

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

std::uint64_t Registry::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

namespace {
/// The entry for `name` in a transparent-comparator map, created on first
/// use; a hit allocates nothing.
template <typename Map>
typename Map::mapped_type& entry(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  }
  return it->second;
}
}  // namespace

void Registry::count(std::string_view name, std::uint64_t n) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(m_);
  entry(counters_, name) += n;
}

void Registry::set_gauge(const std::string& name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(m_);
  gauges_[name] = value;
}

namespace {
/// Fold `n` samples in order. The running min/max/sum live in registers
/// for the whole batch; the result is the same as folding one at a time.
void fold_samples(HistogramStats& h, const double* values, std::size_t n) {
  if (n == 0) return;
  if (h.count == 0) {
    h.min = values[0];
    h.max = values[0];
  }
  double lo = h.min;
  double hi = h.max;
  double sum = h.sum;
  for (std::size_t i = 0; i < n; ++i) {
    const double value = values[i];
    lo = std::min(lo, value);
    hi = std::max(hi, value);
    sum += value;
    ++h.buckets[static_cast<std::size_t>(HistogramStats::bucket_of(value))];
  }
  h.min = lo;
  h.max = hi;
  h.sum = sum;
  h.count += n;
}
}  // namespace

void Registry::observe(std::string_view name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(m_);
  auto& h = entry(histograms_, name);
  if (h.name.empty()) h.name = name;
  fold_samples(h, &value, 1);
}

void Registry::observe_many(std::string_view name,
                            const std::vector<double>& values) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(m_);
  auto& h = entry(histograms_, name);
  if (h.name.empty()) h.name = name;
  fold_samples(h, values.data(), values.size());
}

void Registry::counter_track(const std::string& name,
                             std::vector<TrackSample> samples) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(m_);
  auto& track = tracks_[name];
  track.insert(track.end(), samples.begin(), samples.end());
}

void Registry::record_span(const SpanRecord& rec) {
  std::lock_guard<std::mutex> lk(m_);
  spans_.push_back(rec);
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::lock_guard<std::mutex> lk(m_);
  return {counters_.begin(), counters_.end()};
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  std::lock_guard<std::mutex> lk(m_);
  return {gauges_.begin(), gauges_.end()};
}

std::vector<HistogramStats> Registry::histograms() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<HistogramStats> out;
  out.reserve(histograms_.size());
  for (const auto& [_, h] : histograms_) out.push_back(h);
  return out;
}

std::vector<CounterTrack> Registry::counter_tracks() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<CounterTrack> out;
  out.reserve(tracks_.size());
  for (const auto& [name, samples] : tracks_) out.push_back({name, samples});
  return out;
}

std::vector<SpanRecord> Registry::spans() const {
  std::lock_guard<std::mutex> lk(m_);
  return spans_;
}

std::size_t Registry::num_spans() const {
  std::lock_guard<std::mutex> lk(m_);
  return spans_.size();
}

std::vector<SpanStats> Registry::span_stats() const {
  std::map<std::string, SpanStats> by_name;
  for (const auto& s : spans()) {
    auto& st = by_name[s.name];
    if (st.count == 0) {
      st.name = s.name;
      st.min_ms = ms(s.dur_ns);
      st.max_ms = ms(s.dur_ns);
    }
    ++st.count;
    st.total_ms += ms(s.dur_ns);
    st.min_ms = std::min(st.min_ms, ms(s.dur_ns));
    st.max_ms = std::max(st.max_ms, ms(s.dur_ns));
  }
  std::vector<SpanStats> out;
  out.reserve(by_name.size());
  for (auto& [_, st] : by_name) out.push_back(std::move(st));
  // Heaviest first: the table doubles as a profile.
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.total_ms > b.total_ms;
  });
  return out;
}

std::vector<LaneStats> Registry::lane_stats() const {
  // Busy time is the union of each lane's span intervals: nested spans
  // (explore.point inside explore, sim.run inside explore.point) cover the
  // same wall time and must count once.
  std::map<int, std::vector<std::pair<std::uint64_t, std::uint64_t>>> by_lane;
  for (const auto& s : spans()) {
    by_lane[s.lane].emplace_back(s.start_ns, s.start_ns + s.dur_ns);
  }
  std::vector<LaneStats> out;
  out.reserve(by_lane.size());
  for (auto& [lane, iv] : by_lane) {
    std::sort(iv.begin(), iv.end());
    LaneStats st;
    st.lane = lane;
    st.spans = iv.size();
    std::uint64_t busy_ns = 0;
    std::uint64_t covered = 0;  // end of the union so far
    for (const auto& [start, end] : iv) {
      if (end <= covered) continue;
      busy_ns += end - std::max(start, covered);
      covered = end;
    }
    st.busy_ms = ms(busy_ns);
    out.push_back(st);
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(m_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  tracks_.clear();
  spans_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

std::string Registry::summary() const {
  std::string out;
  const auto stats = span_stats();
  if (!stats.empty()) {
    TextTable t({"span", "count", "total[ms]", "mean[ms]", "min[ms]", "max[ms]"},
                {Align::Left, Align::Right, Align::Right, Align::Right,
                 Align::Right, Align::Right});
    for (const auto& s : stats) {
      t.add_row({s.name, std::to_string(s.count), format_fixed(s.total_ms, 3),
                 format_fixed(s.total_ms / static_cast<double>(s.count), 3),
                 format_fixed(s.min_ms, 3), format_fixed(s.max_ms, 3)});
    }
    out += t.render();
  }
  const auto lanes = lane_stats();
  if (lanes.size() > 1) {
    TextTable t({"lane", "spans", "busy[ms]"},
                {Align::Left, Align::Right, Align::Right});
    for (const auto& l : lanes) {
      t.add_row({lane_name(l.lane), std::to_string(l.spans),
                 format_fixed(l.busy_ms, 3)});
    }
    out += "\n" + t.render();
  }
  const auto hs = histograms();
  if (!hs.empty()) {
    TextTable t({"histogram", "count", "mean", "pct50", "pct90", "pct99",
                 "max"},
                {Align::Left, Align::Right, Align::Right, Align::Right,
                 Align::Right, Align::Right, Align::Right});
    for (const auto& h : hs) {
      t.add_row({h.name, std::to_string(h.count), format_fixed(h.mean(), 3),
                 format_fixed(h.pct(0.50), 3), format_fixed(h.pct(0.90), 3),
                 format_fixed(h.pct(0.99), 3), format_fixed(h.max, 3)});
    }
    out += "\n" + t.render();
  }
  const auto cs = counters();
  const auto gs = gauges();
  if (!cs.empty() || !gs.empty()) {
    TextTable t({"metric", "value"}, {Align::Left, Align::Right});
    for (const auto& [name, v] : cs) t.add_row({name, std::to_string(v)});
    for (const auto& [name, v] : gs) t.add_row({name, format_fixed(v, 3)});
    out += "\n" + t.render();
  }
  return out;
}

std::string Registry::chrome_trace_json() const {
  auto recs = spans();
  // Stable presentation order (records arrive in whatever order workers
  // finished): by start time, then lane.
  std::stable_sort(recs.begin(), recs.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     return a.lane < b.lane;
                   });
  int max_lane = 0;
  for (const auto& r : recs) max_lane = std::max(max_lane, r.lane);

  std::vector<std::string> events;
  for (int lane = 0; lane <= max_lane; ++lane) {
    events.push_back(str_format(
        "{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"name\": \"thread_name\", "
        "\"args\": {\"name\": \"%s\"}}",
        lane, lane_name(lane).c_str()));
  }
  for (const auto& r : recs) {
    events.push_back(str_format(
        "{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
        "\"dur\": %.3f, \"cat\": \"mcrtl\", \"name\": \"%s\"}",
        r.lane, static_cast<double>(r.start_ns) / 1e3,
        static_cast<double>(r.dur_ns) / 1e3, json_escape(r.name).c_str()));
  }
  // Counter tracks live under their own process: their timestamps are
  // simulated step indices, not host time, and a separate pid keeps the two
  // axes from interleaving in the viewer.
  const auto tracks = counter_tracks();
  if (!tracks.empty()) {
    events.push_back(
        "{\"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"name\": \"process_name\", "
        "\"args\": {\"name\": \"simulated time\"}}");
    for (const auto& track : tracks) {
      for (const auto& [ts, value] : track.samples) {
        events.push_back(str_format(
            "{\"ph\": \"C\", \"pid\": 2, \"tid\": 0, \"ts\": %.3f, "
            "\"cat\": \"mcrtl\", \"name\": \"%s\", \"args\": {\"value\": "
            "%.6f}}",
            ts, json_escape(track.name).c_str(), value));
      }
    }
  }

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    out += events[i];
    out += i + 1 < events.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

std::string Registry::metrics_json() const {
  std::string out = "{\n  \"counters\": {";
  const auto cs = counters();
  for (std::size_t i = 0; i < cs.size(); ++i) {
    out += str_format("%s\n    \"%s\": %llu", i ? "," : "",
                      json_escape(cs[i].first).c_str(),
                      static_cast<unsigned long long>(cs[i].second));
  }
  out += cs.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  const auto gs = gauges();
  for (std::size_t i = 0; i < gs.size(); ++i) {
    out += str_format("%s\n    \"%s\": %.6f", i ? "," : "",
                      json_escape(gs[i].first).c_str(), gs[i].second);
  }
  out += gs.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  const auto hs = histograms();
  for (std::size_t i = 0; i < hs.size(); ++i) {
    const auto& h = hs[i];
    out += str_format(
        "%s\n    \"%s\": {\"count\": %llu, \"mean\": %.6f, \"min\": %.6f, "
        "\"pct50\": %.6f, \"pct90\": %.6f, \"pct99\": %.6f, \"max\": %.6f}",
        i ? "," : "", json_escape(h.name).c_str(),
        static_cast<unsigned long long>(h.count), h.mean(), h.min,
        h.pct(0.50), h.pct(0.90), h.pct(0.99), h.max);
  }
  out += hs.empty() ? "},\n" : "\n  },\n";
  out += "  \"spans\": {";
  const auto stats = span_stats();
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const auto& s = stats[i];
    out += str_format(
        "%s\n    \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
        "\"mean_ms\": %.6f, \"min_ms\": %.6f, \"max_ms\": %.6f}",
        i ? "," : "", json_escape(s.name).c_str(),
        static_cast<unsigned long long>(s.count), s.total_ms,
        s.total_ms / static_cast<double>(s.count), s.min_ms, s.max_ms);
  }
  out += stats.empty() ? "},\n" : "\n  },\n";
  out += "  \"lanes\": {";
  const auto lanes = lane_stats();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    out += str_format("%s\n    \"%s\": {\"spans\": %llu, \"busy_ms\": %.6f}",
                      i ? "," : "", lane_name(lanes[i].lane).c_str(),
                      static_cast<unsigned long long>(lanes[i].spans),
                      lanes[i].busy_ms);
  }
  out += lanes.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Span::Span(const char* name) : name_(name) {
  if (!enabled()) return;
  active_ = true;
  start_ns_ = Registry::instance().now_ns();
}

Span::~Span() {
  if (!active_) return;
  SpanRecord rec;
  rec.name = name_;
  rec.start_ns = start_ns_;
  rec.dur_ns = Registry::instance().now_ns() - start_ns_;
  rec.lane = ThreadPool::current_worker_index() + 1;
  Registry::instance().record_span(rec);
}

}  // namespace mcrtl::obs
