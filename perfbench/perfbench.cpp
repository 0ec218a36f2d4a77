// The repository benchmark: one workload per invocation, end-to-end
// metrics from an untraced run, per-layer metrics from a separate traced
// run. See README.md in this directory for the workloads, the metric
// definitions and the layer -> metric -> workload table.
//
//   perfbench --workload tables|montecarlo|search --seed N --seconds S
//             --trace 0|1 --scratch DIR [--expect-digest HEX]
//
// The untraced run (--trace 0) calls only the public entry points
// (core::explore, core::search, ResultCache, CheckpointJournal) with
// observability off. The traced run (--trace 1) replays every design point
// through the layers' public functions under this file's own spans and
// asserts that each replayed point is bit-identical to what explore()
// returned. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits 1 when any design point failed or an export digest did
// not match, after printing that line.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/checkpoint.hpp"
#include "core/explorer.hpp"
#include "core/record.hpp"
#include "core/search.hpp"
#include "obs/obs.hpp"
#include "power/attribution.hpp"
#include "power/report.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace mcrtl;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> xs) {
  return RunStats::from_samples(std::move(xs)).pct50;
}

/// The end-to-end statistic of a run's repetitions: their 10th percentile
/// (nearest rank). Other tenants of a shared host only ever add time, and
/// they come and go for seconds to minutes, so a run's median follows how
/// long the neighbours were busy while its fast tail follows the program.
double fast_tail(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return RunStats::percentile(xs, 0.10);
}

/// The highest of p75/p90/p95/p99/p99.9 with at least ten of `n` samples
/// beyond it (p50 when there are too few samples for any).
double tail_quantile(std::size_t n) {
  double tail_q = 0.5;
  for (const double q : {0.75, 0.9, 0.95, 0.99, 0.999}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) tail_q = q;
  }
  return tail_q;
}

// ---- the benchmark's own spans ---------------------------------------------

/// Span recorder with self time: a span's self time is its duration minus
/// the durations of the spans opened inside it.
class Tracer {
 public:
  void open(const char* name) { stack_.push_back({name, Clock::now(), 0.0}); }
  void close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double d = seconds_between(f.start, Clock::now());
    Layer& l = layers_[f.name];
    l.self += d - f.child;
    l.durations.push_back(d);
    if (!stack_.empty()) stack_.back().child += d;
  }
  double self_s(const std::string& name) const {
    const auto it = layers_.find(name);
    return it == layers_.end() ? 0.0 : it->second.self;
  }
  double total_s(const std::string& name) const {
    double sum = 0.0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }
  const std::vector<double>& durations(const std::string& name) const {
    static const std::vector<double> kNone;
    const auto it = layers_.find(name);
    return it == layers_.end() ? kNone : it->second.durations;
  }

 private:
  struct Frame {
    const char* name;
    Clock::time_point start;
    double child;
  };
  struct Layer {
    double self = 0.0;
    std::vector<double> durations;
  };
  std::vector<Frame> stack_;
  std::map<std::string, Layer> layers_;
};

/// RAII span; a no-op when no tracer is attached (the untraced run).
class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t) {
    if (t_) t_->open(name);
  }
  ~Span() {
    if (t_) t_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

// ---- host stamp ------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
#else
  return "unknown";
#endif
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Spreads a single-threaded run over every CPU the process may use: before
/// a repetition, it moves to the next CPU once a quarter second has passed
/// on the current one. The CPUs of a shared host differ in speed for
/// minutes at a time; without this a run's figures depend on the CPU the
/// scheduler happened to pick. Off for pooled workloads, whose threads
/// inherit the mask of the thread that creates them.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (!enabled || sched_getaffinity(0, sizeof(all), &all) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) cpus_.push_back(c);
    }
  }
  void tick() {
    if (cpus_.size() < 2 || Clock::now() < next_move_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[moves_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    next_move_ = Clock::now() + std::chrono::milliseconds(250);
  }

 private:
  std::vector<int> cpus_;
  std::size_t moves_ = 0;
  Clock::time_point next_move_{};
};

// ---- workloads -------------------------------------------------------------

enum class Kind { Explore, Search };

struct Workload {
  std::string name;
  Kind kind = Kind::Explore;
  std::vector<std::string> benchmarks;
  std::size_t computations = 0;
  std::size_t streams = 1;
  int jobs = 1;
  bool journal = false;  ///< the cold explore pass writes a checkpoint journal
};

// Search grid of bench/bench_search.cpp: benchmarks x widths x schedule
// limits (0 = the reference schedule) x search_variants(4).
const std::vector<int> kSearchWidths{3, 4, 5, 6, 7, 8};
const std::vector<int> kSearchLimits{0, 1, 2, 3};

Workload workload_by_name(const std::string& name, int workers) {
  if (name == "tables") {
    // The paper's Tables 1-4 protocol (EXPERIMENTS.md): 2000 random 4-bit
    // computations per point, one stream, serial.
    return {name, Kind::Explore, {"facet", "hal", "biquad", "bandpass"},
            2000, 1, 1, false};
  }
  if (name == "montecarlo") {
    return {name, Kind::Explore,
            {"motivating", "ewf", "fir8", "ar_lattice", "dct4"},
            400, 64, workers, true};
  }
  if (name == "search") {
    // 128 computations keep one search near a second, so a run times
    // enough of them for its fast tail to be a steady figure.
    return {name, Kind::Search, {"facet", "hal", "motivating"},
            128, 2, 1, false};
  }
  throw Error("unknown workload '" + name + "' (tables|montecarlo|search)");
}

core::SearchConfig search_config(const Workload& w, std::uint64_t seed) {
  core::SearchConfig cfg;
  cfg.computations = w.computations;
  cfg.seed = seed;
  cfg.streams = w.streams;
  cfg.jobs = w.jobs;
  cfg.budget_rungs = 4;
  cfg.promote_fraction = 0.1;
  cfg.optimism = 0.97;
  cfg.min_survivors = 4;
  return cfg;
}

/// The stimulus seed of one behaviour: the program only ever receives it
/// through the public config (ExplorerConfig::seed / SearchConfig::seed).
std::uint64_t stimulus_seed(std::uint64_t seed, const std::string& what) {
  return core::record::fnv1a64(what + "#" + std::to_string(seed));
}

struct Behaviour {
  std::string name;
  std::string group;
  suite::Benchmark bench;  ///< owns the graph and its reference schedule
  std::unique_ptr<dfg::Schedule> limited;  ///< search: resource-limited
  const dfg::Graph& graph() const { return *bench.graph; }
  const dfg::Schedule& sched() const {
    return limited ? *limited : *bench.schedule;
  }
};

struct Setup {
  std::vector<Behaviour> behaviours;
  core::SearchSpace space;  ///< search workload only
};

/// Everything built before the first timed call: behaviours, schedules and
/// (search) the candidate space. Traced, building a behaviour's graph with
/// its reference schedule (suite::by_name runs dfg::schedule_list) and each
/// limited re-schedule count as the dfg.schedule layer.
Setup build_setup(const Workload& w, Tracer* tr) {
  Setup s;
  if (w.kind == Kind::Explore) {
    for (const auto& name : w.benchmarks) {
      Span span(tr, "dfg.schedule");
      s.behaviours.push_back({name, name, suite::by_name(name, 4), nullptr});
    }
    return s;
  }
  for (const auto& name : w.benchmarks) {
    for (const int width : kSearchWidths) {
      for (const int lim : kSearchLimits) {
        Span span(tr, "dfg.schedule");
        Behaviour b{str_format("%s/w%d/%s", name.c_str(), width,
                               lim > 0 ? str_format("lim%d", lim).c_str()
                                       : "ref"),
                    str_format("%s/w%d", name.c_str(), width),
                    suite::by_name(name, static_cast<unsigned>(width)),
                    nullptr};
        if (lim > 0) {
          dfg::ResourceLimits rl;
          rl.default_limit = lim;
          b.limited = std::make_unique<dfg::Schedule>(
              dfg::schedule_list(b.graph(), rl));
        }
        s.behaviours.push_back(std::move(b));
      }
    }
  }
  for (const auto& b : s.behaviours) {
    s.space.behaviours.push_back(
        core::SearchBehaviour{b.name, &b.graph(), &b.sched(), b.group});
  }
  core::cross_variants(s.space, core::search_variants(4));
  return s;
}

core::ExplorerConfig explorer_config(const Workload& w, const Behaviour& b,
                                     std::uint64_t seed) {
  core::ExplorerConfig cfg;
  cfg.max_clocks = 4;
  cfg.include_conventional = true;
  cfg.include_split = true;
  cfg.computations = w.computations;
  cfg.streams = w.streams;
  cfg.seed = stimulus_seed(seed, b.name);
  cfg.jobs = w.jobs;
  return cfg;
}

// ---- correctness: export digests -------------------------------------------

/// The report rows of one exploration, with the field mapping of
/// `mcrtl explore --csv/--json` (dominated_by = the lowest-power power/area
/// dominator). Kept here rather than calling core::explore_records, which
/// lives with the --shard code this benchmark leaves out.
std::vector<power::ExperimentRecord> explore_rows(
    const core::ExplorationResult& r, const Workload& w, const Behaviour& b) {
  std::vector<power::ExperimentRecord> recs;
  for (const auto& p : r.points) {
    power::ExperimentRecord rec;
    rec.experiment = "perfbench_" + w.name;
    rec.design = p.label;
    rec.benchmark = b.name;
    rec.width = b.graph().width();
    rec.computations = w.computations;
    rec.streams = w.streams;
    rec.power = p.power;
    rec.power_stddev = p.power_stddev;
    rec.power_ci95 = p.power_ci95;
    rec.hotspot = p.hotspot;
    rec.hotspot_share = p.hotspot_share;
    rec.crest = p.crest;
    rec.area = p.area;
    rec.stats = p.stats;
    rec.pareto = p.pareto;
    for (const auto& q : r.points) {
      if (!p.pareto && core::dominates_power_area(core::point_metrics(q),
                                                  core::point_metrics(p))) {
        rec.dominated_by = q.label;
        break;
      }
    }
    recs.push_back(std::move(rec));
  }
  return recs;
}

std::string explore_export(const std::vector<core::ExplorationResult>& rs,
                           const Workload& w, const Setup& s) {
  std::string all;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto recs = explore_rows(rs[i], w, s.behaviours[i]);
    all += power::to_csv(recs);
    all += power::to_json(recs);
  }
  return all;
}

std::string digest_hex(const std::string& exports) {
  return core::record::encode_u64(core::record::fnv1a64(exports));
}

/// Failure accounting: design points / candidates attempted and failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    std::fprintf(stderr, "perfbench: FAILED (%llu): %s\n",
                 static_cast<unsigned long long>(n), why.c_str());
  }
};

/// Every pass of one run must export the same bytes, and on the default
/// seed those bytes must hash to the recorded reference digest.
struct DigestCheck {
  std::string expect;  ///< reference digest (empty = none for this seed)
  std::string first;
  void check(const std::string& exports, const char* pass, Tally& t) {
    const std::string d = digest_hex(exports);
    if (first.empty()) {
      first = d;
      if (!expect.empty() && d != expect) {
        t.fail(1, str_format("%s digest %s != reference %s", pass, d.c_str(),
                             expect.c_str()));
      }
    } else if (d != first) {
      t.fail(1, str_format("%s digest %s != first pass %s", pass, d.c_str(),
                           first.c_str()));
    }
  }
};

// ---- metrics output --------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out += str_format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", items[i].first.c_str(),
                        items[i].second.first, items[i].second.second.c_str());
    }
    return out + "}";
  }
};

// ---- explore workloads -----------------------------------------------------

/// One explore() per behaviour. An exception fails every point of that
/// behaviour (the sweep reports nothing for it).
core::ExplorationResult explore_one(const Workload& w, const Behaviour& b,
                                    std::uint64_t seed, Tally& t,
                                    const std::string& journal_dir, int jobs) {
  core::ExplorerConfig cfg = explorer_config(w, b, seed);
  cfg.jobs = jobs;
  if (!journal_dir.empty()) {
    cfg.checkpoint_file = journal_dir + "/" + b.name + ".journal";
  }
  const std::size_t n = core::num_configurations(cfg);
  t.attempted += n;
  core::ExplorationResult r;
  try {
    r = core::explore(b.graph(), b.sched(), cfg);
    if (r.points.size() != n) {
      t.fail(n - r.points.size(), b.name + ": missing points");
    }
  } catch (const std::exception& e) {
    t.fail(n, b.name + ": " + e.what());
  }
  return r;
}

std::vector<core::ExplorationResult> explore_all(
    const Workload& w, const Setup& s, std::uint64_t seed, Tally& t,
    const std::string& journal_dir, int jobs) {
  std::vector<core::ExplorationResult> out;
  for (const auto& b : s.behaviours) {
    out.push_back(explore_one(w, b, seed, t, journal_dir, jobs));
  }
  return out;
}

void remove_journals(const Setup& s, const std::string& dir) {
  for (const auto& b : s.behaviours) {
    fs::remove(dir + "/" + b.name + ".journal");
  }
}

/// The paper's 3-clock-vs-gated power reduction (Tables 1-4, EXPERIMENTS.md)
/// against the measured one: mean absolute gap in percentage points.
double paper_gap_pp(const std::vector<core::ExplorationResult>& rs,
                    const Setup& s) {
  const std::map<std::string, double> paper{
      {"facet", 49.0}, {"hal", 54.0}, {"biquad", 37.0}, {"bandpass", 35.0}};
  const std::string gated =
      core::style_label(core::DesignStyle::ConventionalGated, 1);
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto it = paper.find(s.behaviours[i].name);
    if (it == paper.end()) continue;
    double p_gated = 0.0, p3 = 0.0;
    for (const auto& p : rs[i].points) {
      if (p.label == gated) p_gated = p.power.total;
      if (p.label == "3 clk / integrated / latch") p3 = p.power.total;
    }
    if (p_gated <= 0.0) continue;
    sum += std::fabs(100.0 * (1.0 - p3 / p_gated) - it->second);
    ++n;
  }
  return n ? sum / n : 0.0;
}

// ---- the traced replay -----------------------------------------------------

/// Deterministic work counters of one traced pass, by metric name (exact
/// counts; a counter a workload never touches is absent and reads 0).
using Counters = std::map<std::string, std::uint64_t>;

std::string counters_json(const Counters& c) {
  std::string out = "{";
  for (const auto& [name, v] : c) {
    out += (out.size() > 1 ? ", \"" : "\"") + name +
           "\": " + std::to_string(v);
  }
  return out + "}";
}

/// The stimulus explore()/search() derive from their seed, regenerated for
/// the replay: one scalar stream, or a Monte-Carlo bundle.
struct Stimulus {
  sim::InputStream stream;
  std::vector<sim::InputStream> bundle;
};

Stimulus make_stimulus(const dfg::Graph& g, std::size_t computations,
                       std::uint64_t seed, std::size_t streams) {
  Stimulus s;
  if (streams == 1) {
    Rng rng(seed);
    s.stream = sim::uniform_stream(rng, g.inputs().size(), computations,
                                   g.width());
  } else {
    s.bundle = sim::uniform_streams(seed, streams, g.inputs().size(),
                                    computations, g.width());
  }
  return s;
}

/// Replay one design point layer by layer, as explore() evaluates it:
/// synthesize -> Simulator -> run / run_sliced -> check_outputs ->
/// estimate_power / estimate_area -> Attribution.
core::ExplorationPoint replay_point(Tracer* tr, Counters& c, Tally& t,
                                    const dfg::Graph& graph,
                                    const dfg::Schedule& sched,
                                    const core::SynthesisOptions& opts,
                                    const std::string& label,
                                    const Stimulus& stim, std::size_t streams,
                                    const power::TechLibrary& tech,
                                    const power::PowerParams& params) {
  Span point_span(tr, "core.explore.point");
  const core::Synthesized syn = [&] {
    Span span(tr, "core.synthesize");
    return core::synthesize(graph, sched, opts);
  }();
  ++c["core.synthesize.calls"];
  const rtl::Design& design = *syn.design;
  sim::Simulator simulator = [&] {
    Span span(tr, "sim.setup");
    return sim::Simulator(design, streams == 1
                                      ? sim::Simulator::Mode::EventDriven
                                      : sim::Simulator::Mode::BitSliced);
  }();
  const power::Attribution attribution = [&] {
    Span span(tr, "power.attribution_setup");
    return power::Attribution(design, tech, params.vdd);
  }();
  sim::PowerProbe probe = [&] {
    Span span(tr, "power.attribution_setup");
    return sim::PowerProbe(attribution.energy_model());
  }();
  simulator.set_power_probe(&probe);

  core::ExplorationPoint p;
  p.options = opts;
  p.label = label;
  auto require_equivalent = [&](const sim::EquivalenceReport& rep) {
    c["sim.equivalence.computations"] += rep.computations_checked;
    if (!rep.equivalent) t.fail(1, label + ": non-equivalent: " + rep.detail);
  };
  sim::Activity activity;
  if (streams == 1) {
    sim::SimResult res;
    {
      Span span(tr, "sim.run");
      res = simulator.run(stim.stream, graph.inputs(), graph.outputs());
    }
    c["sim.run.cycles"] += res.activity.steps;
    c["sim.run.evals"] += simulator.kernel_stats().evals;
    {
      Span span(tr, "sim.equivalence");
      require_equivalent(sim::check_outputs(graph, stim.stream, res.outputs,
                                            design.style_name));
    }
    {
      Span span(tr, "power.estimate");
      p.power = power::estimate_power(design, res.activity, tech, params);
    }
    activity = std::move(res.activity);
  } else {
    std::vector<sim::SimResult> results;
    {
      Span span(tr, "sim.run_sliced");
      results = simulator.run_sliced(stim.bundle, graph.inputs(),
                                     graph.outputs());
    }
    if (!results.empty()) {
      c["sim.run_sliced.cycles"] += results.front().activity.steps;
    }
    std::vector<power::PowerBreakdown> brs(results.size());
    std::vector<double> totals(results.size());
    for (std::size_t s = 0; s < results.size(); ++s) {
      {
        Span span(tr, "sim.equivalence");
        require_equivalent(sim::check_outputs(graph, stim.bundle[s],
                                              results[s].outputs,
                                              design.style_name));
      }
      Span span(tr, "power.estimate");
      brs[s] = power::estimate_power(design, results[s].activity, tech, params);
      totals[s] = brs[s].total;
    }
    {
      Span span(tr, "power.estimate");
      auto mean_of = [&](double power::PowerBreakdown::*field) {
        std::vector<double> v(brs.size());
        for (std::size_t s = 0; s < brs.size(); ++s) v[s] = brs[s].*field;
        return sim::sample_stats(std::move(v)).mean;
      };
      p.power.combinational = mean_of(&power::PowerBreakdown::combinational);
      p.power.storage = mean_of(&power::PowerBreakdown::storage);
      p.power.clock_tree = mean_of(&power::PowerBreakdown::clock_tree);
      p.power.control = mean_of(&power::PowerBreakdown::control);
      p.power.io = mean_of(&power::PowerBreakdown::io);
      p.power.leakage = mean_of(&power::PowerBreakdown::leakage);
      const sim::SampleStats st = sim::sample_stats(std::move(totals));
      p.power.total = st.mean;
      p.power_stddev = st.stddev;
      p.power_ci95 = st.ci95;
    }
    Span span(tr, "power.attribute");
    std::vector<sim::Activity> acts(results.size());
    for (std::size_t s = 0; s < results.size(); ++s) {
      acts[s] = std::move(results[s].activity);
    }
    activity = sim::sum_activities(acts);
  }
  {
    Span span(tr, "power.attribute");
    const auto arep = attribution.attribute(activity);
    if (!arep.rows.empty()) {
      p.hotspot = arep.rows.front().component;
      p.hotspot_share = arep.total_fj > 0.0
                            ? arep.rows.front().energy_fj / arep.total_fj
                            : 0.0;
    }
    p.crest = probe.crest();
  }
  {
    Span span(tr, "power.estimate");
    p.area = power::estimate_area(design, tech);
  }
  p.stats = design.stats;
  return p;
}

/// One traced pass: per-layer self seconds plus derived seconds/ratios by
/// metric name, the exact work counters, and per-point latencies.
struct PassResult {
  std::map<std::string, double> values;
  Counters counters;
  std::vector<double> point_ms;
};

/// Span layers whose self time is reported as "<layer>_s".
const char* const kLayers[] = {
    "dfg.schedule",      "core.synthesize",        "sim.setup",
    "power.attribution_setup", "sim.run",          "sim.run_sliced",
    "sim.equivalence",   "power.estimate",         "power.attribute",
    "core.checkpoint.append", "core.checkpoint.load", "core.cache.save",
    "core.cache.load"};

void take_layers(const Tracer& tr, PassResult& r) {
  for (const char* l : kLayers) r.values[std::string(l) + "_s"] = tr.self_s(l);
}

/// Bit-identity of a replayed point with the program's point: every
/// measured field, compared through the on-disk record codec.
bool same_point(const core::ExplorationPoint& a,
                const core::ExplorationPoint& b) {
  return core::record::encode_point_fields(a) ==
         core::record::encode_point_fields(b);
}

PassResult explore_trace_pass(const Workload& w, const Setup& s,
                              std::uint64_t seed, Tally& t, DigestCheck& dc,
                              const std::string& scratch, double& gap) {
  PassResult r;
  Tracer tr;
  build_setup(w, &tr);

  // A pooled workload's own pass (pool + journal) sets parallel_eff.
  double wall_pooled = 0.0;
  if (w.jobs > 1) {
    remove_journals(s, scratch);
    const auto t0 = Clock::now();
    const auto pooled =
        explore_all(w, s, seed, t, w.journal ? scratch : "", w.jobs);
    wall_pooled = seconds_between(t0, Clock::now());
    dc.check(explore_export(pooled, w, s), "pooled", t);
    remove_journals(s, scratch);
  }

  // Per behaviour, back to back so both see the same host conditions: the
  // untraced serial explore() (the reference) and its traced replay.
  const auto tech = power::TechLibrary::cmos08();
  std::vector<core::ExplorationResult> ref;
  double wall_serial = 0.0, wall_traced = 0.0;
  for (std::size_t i = 0; i < s.behaviours.size(); ++i) {
    const Behaviour& b = s.behaviours[i];
    auto t0 = Clock::now();
    ref.push_back(explore_one(w, b, seed, t, "", 1));
    wall_serial += seconds_between(t0, Clock::now());
    t0 = Clock::now();
    Span span(&tr, "core.explore");
    const core::ExplorerConfig cfg = explorer_config(w, b, seed);
    const Stimulus stim =
        make_stimulus(b.graph(), cfg.computations, cfg.seed, cfg.streams);
    std::unordered_map<std::string, const core::ExplorationPoint*> by_label;
    for (const auto& p : ref[i].points) by_label.emplace(p.label, &p);
    for (const auto& [opts, label] : core::enumerate_configurations(cfg)) {
      ++t.attempted;
      const auto p =
          replay_point(&tr, r.counters, t, b.graph(), b.sched(), opts, label,
                       stim, cfg.streams, tech, cfg.power_params);
      const auto it = by_label.find(label);
      if (it == by_label.end() || !same_point(p, *it->second)) {
        t.fail(1, b.name + " / " + label + ": replay differs from explore()");
      }
    }
    wall_traced += seconds_between(t0, Clock::now());
  }
  dc.check(explore_export(ref, w, s), "serial", t);
  gap = paper_gap_pp(ref, s);
  if (w.jobs == 1) wall_pooled = wall_serial;

  // Checkpoint journal layer: append every point of the sweep, then load.
  for (std::size_t i = 0; i < s.behaviours.size(); ++i) {
    const Behaviour& b = s.behaviours[i];
    const core::ExplorerConfig cfg = explorer_config(w, b, seed);
    const auto configs = core::enumerate_configurations(cfg);
    const std::uint64_t fp =
        core::CheckpointJournal::fingerprint(cfg, b.graph(), b.sched());
    const std::string path = scratch + "/" + b.name + ".trace.journal";
    fs::remove(path);
    std::unordered_map<std::string, const core::ExplorationPoint*> by_label;
    for (const auto& p : ref[i].points) by_label.emplace(p.label, &p);
    {
      Span span(&tr, "core.checkpoint.append");
      core::CheckpointJournal journal(path, fp);
      for (std::size_t k = 0; k < configs.size(); ++k) {
        const auto it = by_label.find(configs[k].second);
        if (it == by_label.end()) continue;  // already failed above
        if (journal.append(k, *it->second)) {
          ++r.counters["core.checkpoint.appends"];
        } else {
          t.fail(1, b.name + ": journal append failed");
        }
      }
    }
    std::size_t replayed = 0;
    {
      Span span(&tr, "core.checkpoint.load");
      replayed = core::CheckpointJournal::load(path, fp, configs).replayed;
    }
    if (replayed != by_label.size()) {
      t.fail(by_label.size() - std::min(replayed, by_label.size()),
             b.name + ": journal did not replay every point");
    }
    r.counters["core.checkpoint.bytes"] += fs::file_size(path);
    fs::remove(path);
  }

  take_layers(tr, r);
  const double points_s = tr.total_s("core.explore.point");
  r.values["core.explore.self_s"] = wall_serial - points_s;
  r.values["core.explore.parallel_eff"] =
      points_s / (static_cast<double>(w.jobs) * wall_pooled);
  r.values["trace.overhead_s"] = wall_traced - wall_serial;
  for (const double d : tr.durations("core.explore.point")) {
    r.point_ms.push_back(1e3 * d);
  }
  return r;
}

std::string search_export(const core::SearchResult& res) {
  return core::search_to_csv(res) + core::search_to_json(res);
}

PassResult search_trace_pass(const Workload& w, const Setup& s,
                             std::uint64_t seed, Tally& t, DigestCheck& dc,
                             const std::string& scratch) {
  PassResult r;
  Tracer tr;
  build_setup(w, &tr);
  const auto& space = s.space;
  const std::size_t nc = space.candidates.size();
  core::SearchConfig cfg = search_config(w, stimulus_seed(seed, w.name));
  cfg.cache_db = scratch + "/search.cache";
  fs::remove(cfg.cache_db);

  // Untraced cold search (writes the cache), then the cached replay.
  t.attempted += nc;
  core::SearchResult res;
  auto t0 = Clock::now();
  try {
    res = core::search(space, cfg);
  } catch (const std::exception& e) {
    t.fail(nc, std::string("search: ") + e.what());
    return r;
  }
  const double search_s = seconds_between(t0, Clock::now());
  dc.check(search_export(res), "cold search", t);
  t.attempted += nc;
  const auto cached = core::search(space, cfg);
  dc.check(search_export(cached), "cached search", t);

  // Result-cache layer, from outside: load the DB the search wrote, save
  // it again.
  {
    core::ResultCache cache;
    {
      Span span(&tr, "core.cache.load");
      cache.load(cfg.cache_db);
    }
    const std::string copy = scratch + "/search.cache.copy";
    bool saved = false;
    {
      Span span(&tr, "core.cache.save");
      saved = cache.save(copy);
    }
    if (!saved) t.fail(1, "ResultCache::save failed");
    r.counters["core.cache.rows"] = cache.num_rows();
    r.counters["core.cache.bytes"] = fs::file_size(cfg.cache_db);
    fs::remove(copy);
  }
  fs::remove(cfg.cache_db);
  r.counters["core.cache.hits"] = cached.cache_hits;
  r.counters["core.cache.misses"] = cached.cache_misses;
  r.counters["core.search.full_evaluations"] = res.full_evaluations;
  r.counters["core.search.aborted"] = res.aborted;
  r.counters["core.search.pruned"] = res.pruned.size();
  auto& front = r.counters["core.search.front"];
  for (const auto& row : res.rows) front += row.pareto ? 1 : 0;

  // Canonical candidates (search() evaluates each measurement key once)
  // and, among them, the full-depth survivors.
  std::unordered_map<std::string, const core::SearchRow*> row_by_label;
  for (const auto& row : res.rows) row_by_label.emplace(row.point.label, &row);
  std::vector<std::uint64_t> bfp(space.behaviours.size());
  for (std::size_t b = 0; b < bfp.size(); ++b) {
    const auto& bh = space.behaviours[b];
    bfp[b] = core::measurement_fingerprint(*bh.graph, *bh.sched,
                                           cfg.computations, cfg.seed,
                                           cfg.streams, cfg.power_params);
  }
  std::vector<std::size_t> canonical;
  std::vector<std::vector<std::size_t>> survivors(space.behaviours.size());
  {
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t i = 0; i < nc; ++i) {
      const auto& cand = space.candidates[i];
      if (!seen.insert(bfp[cand.behaviour] ^ core::config_hash(cand.options))
               .second) {
        continue;
      }
      canonical.push_back(i);
      if (row_by_label.count(cand.label)) {
        survivors[cand.behaviour].push_back(i);
      }
    }
  }

  const auto tech = power::TechLibrary::cmos08();
  // Traced prefix replay: the first rung of every canonical candidate.
  std::vector<Stimulus> stim(space.behaviours.size());
  for (std::size_t b = 0; b < stim.size(); ++b) {
    stim[b] = make_stimulus(*space.behaviours[b].graph, cfg.computations,
                            cfg.seed, cfg.streams);
  }
  const std::size_t budget = std::min(
      cfg.computations,
      std::max<std::size_t>(8, cfg.computations >> cfg.budget_rungs));
  for (const std::size_t i : canonical) {
    Span span(&tr, "core.search.prefix_replay");
    const auto& cand = space.candidates[i];
    const auto& bh = space.behaviours[cand.behaviour];
    const core::Synthesized syn = [&] {
      Span s2(&tr, "core.synthesize");
      return core::synthesize(*bh.graph, *bh.sched, cand.options);
    }();
    ++r.counters["core.synthesize.calls"];
    sim::Simulator simulator = [&] {
      Span s2(&tr, "sim.setup");
      return sim::Simulator(*syn.design, sim::Simulator::Mode::EventDriven);
    }();
    simulator.set_computation_budget(budget);
    const auto& prefix = cfg.streams == 1 ? stim[cand.behaviour].stream
                                          : stim[cand.behaviour].bundle[0];
    sim::SimResult pr;
    {
      Span s2(&tr, "sim.run");
      pr = simulator.run(prefix, bh.graph->inputs(), bh.graph->outputs());
    }
    r.counters["sim.run.cycles"] += pr.activity.steps;
    r.counters["sim.run.evals"] += simulator.kernel_stats().evals;
    Span s2(&tr, "power.estimate");
    power::estimate_power(*syn.design, pr.activity, tech, cfg.power_params);
    power::estimate_area(*syn.design, tech);
  }

  // Per behaviour, back to back: the untraced full-depth re-run of its
  // survivors through explore(), the way search() runs them, and their
  // traced replay, compared with the search rows.
  std::size_t n_survivors = 0;
  double survivors_s = 0.0, wall_traced = 0.0;
  for (std::size_t b = 0; b < survivors.size(); ++b) {
    if (survivors[b].empty()) continue;
    const auto& bh = space.behaviours[b];
    core::ExplorerConfig ec;
    ec.computations = cfg.computations;
    ec.seed = cfg.seed;
    ec.streams = cfg.streams;
    ec.power_params = cfg.power_params;
    for (const std::size_t i : survivors[b]) {
      ec.explicit_configs.emplace_back(space.candidates[i].options,
                                       space.candidates[i].label);
    }
    n_survivors += survivors[b].size();
    t0 = Clock::now();
    core::explore(*bh.graph, *bh.sched, ec);
    survivors_s += seconds_between(t0, Clock::now());
    t0 = Clock::now();
    Span span(&tr, "core.explore");
    for (const std::size_t i : survivors[b]) {
      const auto& cand = space.candidates[i];
      ++t.attempted;
      const auto p = replay_point(&tr, r.counters, t, *bh.graph, *bh.sched,
                                  cand.options, cand.label, stim[b],
                                  cfg.streams, tech, cfg.power_params);
      if (!same_point(p, row_by_label.at(cand.label)->point)) {
        t.fail(1, cand.label + ": replay differs from the search row");
      }
    }
    wall_traced += seconds_between(t0, Clock::now());
  }
  if (n_survivors != res.full_evaluations) {
    t.fail(1, str_format("%zu survivors replayed, search reports %zu full "
                         "evaluations",
                         n_survivors, res.full_evaluations));
  }

  take_layers(tr, r);
  const double points_s = tr.total_s("core.explore.point");
  r.values["core.search_s"] = search_s;
  // The cold search loads an empty cache; its store I/O is the save.
  r.values["core.search.prefix_s"] =
      search_s - survivors_s - tr.self_s("core.cache.save");
  r.values["core.explore.self_s"] = survivors_s - points_s;
  r.values["core.explore.parallel_eff"] = points_s / survivors_s;
  r.values["trace.overhead_s"] = wall_traced - survivors_s;
  for (const double d : tr.durations("core.explore.point")) {
    r.point_ms.push_back(1e3 * d);
  }
  return r;
}

/// Every per-layer metric, medians over the traced passes.
Metrics layer_metrics(const Workload& w, const std::vector<PassResult>& passes,
                      double gap) {
  Metrics m;
  // Seconds: median over the passes. Counts: exact, from the first pass.
  auto med = [&](const std::string& name) {
    std::vector<double> xs;
    for (const auto& p : passes) {
      const auto it = p.values.find(name);
      xs.push_back(it == p.values.end() ? 0.0 : it->second);
    }
    return median(std::move(xs));
  };
  auto secs = [&](const std::string& name) {
    m.add(name, med(name), "s");
    return m.items.back().second.first;
  };
  auto count = [&](const std::string& name, const char* unit = "count") {
    const auto& c = passes.front().counters;
    const auto it = c.find(name);
    m.add(name, it == c.end() ? 0.0 : static_cast<double>(it->second), unit);
    return m.items.back().second.first;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  secs("dfg.schedule_s");
  secs("core.synthesize_s");
  count("core.synthesize.calls");
  secs("sim.setup_s");
  secs("power.attribution_setup_s");
  const double run_s = secs("sim.run_s");
  const double run_cycles = count("sim.run.cycles");
  count("sim.run.evals");
  m.add("sim.run.cycles_per_s", ratio(run_cycles, run_s), "1/s");
  secs("sim.run_sliced_s");
  count("sim.run_sliced.cycles");
  m.add("sim.run_sliced.lane_fill",
        w.streams > 1 ? ratio(static_cast<double>(w.streams),
                              sim::Simulator::kMaxStreams)
                      : 0.0,
        "ratio");
  secs("sim.equivalence_s");
  count("sim.equivalence.computations");
  secs("power.estimate_s");
  secs("power.attribute_s");
  m.add("power.paper_gap_pp", gap, "pp");
  secs("core.explore.self_s");
  m.add("core.explore.parallel_eff", med("core.explore.parallel_eff"),
        "ratio");
  // Point latency: median plus the highest percentile with at least ten
  // samples beyond it.
  std::vector<double> pts;
  for (const auto& p : passes) {
    pts.insert(pts.end(), p.point_ms.begin(), p.point_ms.end());
  }
  std::sort(pts.begin(), pts.end());
  const double tail_q = tail_quantile(pts.size());
  m.add("core.explore.point_ms.p50", RunStats::percentile(pts, 0.5), "ms");
  m.add("core.explore.point_ms.tail", RunStats::percentile(pts, tail_q), "ms");
  m.add("core.explore.point_ms.tail_pct", 100.0 * tail_q, "%");
  m.add("core.explore.point_ms.n", static_cast<double>(pts.size()), "count");
  secs("core.search_s");
  secs("core.search.prefix_s");
  const double full = count("core.search.full_evaluations");
  count("core.search.aborted");
  count("core.search.pruned");
  const double front = count("core.search.front");
  m.add("core.search.useful_frac", ratio(front, full), "ratio");
  secs("core.checkpoint.append_s");
  count("core.checkpoint.appends");
  secs("core.checkpoint.load_s");
  count("core.checkpoint.bytes", "bytes");
  secs("core.cache.save_s");
  secs("core.cache.load_s");
  count("core.cache.rows");
  count("core.cache.bytes", "bytes");
  count("core.cache.hits");
  count("core.cache.misses");
  secs("trace.overhead_s");
  return m;
}

// ---- the two runs ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
  std::string expect_digest;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw Error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--scratch") {
      a.scratch = v;
    } else if (k == "--expect-digest") {
      a.expect_digest = v;
    } else {
      throw Error("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw Error("--workload is required");
  if (!(a.seconds > 0.0)) throw Error("--seconds must be positive");
  return a;
}

/// Human summary of one metric's samples: count, median and tail.
void print_samples(const char* name, std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const double q = tail_quantile(xs.size());
  std::printf("%-7s n=%zu p50=%.6f p%g=%.6f max=%.6f s\n", name, xs.size(),
              RunStats::percentile(xs, 0.5), 100.0 * q,
              RunStats::percentile(xs, q), xs.empty() ? 0.0 : xs.back());
}

/// Times one set-up; the result is torn down untimed.
void time_setup(const Workload& w, std::vector<double>& xs) {
  const auto t0 = Clock::now();
  const Setup s = build_setup(w, nullptr);
  xs.push_back(seconds_between(t0, Clock::now()));
}

/// The untraced run: end-to-end metrics only, observability off.
Metrics untraced_run(const Workload& w, const Args& a, Tally& t,
                     DigestCheck& dc) {
  const auto start = Clock::now();
  auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  std::vector<double> setup, cold, replay;
  CpuRotation cpus(w.jobs == 1);
  const auto setup_start = Clock::now();
  const Setup s = build_setup(w, nullptr);
  setup.push_back(seconds_between(setup_start, Clock::now()));

  // One timed cold pass (it writes the store, except on tables) and one
  // timed replay from that store.
  std::function<double()> cold_pass, replay_pass;
  core::SearchConfig cfg = search_config(w, stimulus_seed(a.seed, w.name));
  cfg.cache_db = a.scratch + "/search.cache";
  if (w.kind == Kind::Explore) {
    if (!w.journal) {
      // The timed pass does no I/O; write the journal the replay reads in
      // one extra, untimed pass.
      const auto rs = explore_all(w, s, a.seed, t, a.scratch, w.jobs);
      dc.check(explore_export(rs, w, s), "journalled", t);
    }
    cold_pass = [&] {
      if (w.journal) remove_journals(s, a.scratch);
      const auto t0 = Clock::now();
      const auto rs = explore_all(w, s, a.seed, t,
                                  w.journal ? a.scratch : "", w.jobs);
      const double secs = seconds_between(t0, Clock::now());
      dc.check(explore_export(rs, w, s), "cold", t);
      return secs;
    };
    replay_pass = [&] {
      const auto t0 = Clock::now();
      const auto rs = explore_all(w, s, a.seed, t, a.scratch, w.jobs);
      const double secs = seconds_between(t0, Clock::now());
      for (const auto& r : rs) {
        if (r.replayed_points != r.points.size()) {
          t.fail(r.points.size() - r.replayed_points,
                 "journal replay re-evaluated points");
        }
      }
      dc.check(explore_export(rs, w, s), "replay", t);
      return secs;
    };
  } else {
    const std::size_t nc = s.space.candidates.size();
    // One timed search; a replay from the cache must simulate nothing.
    auto run_search = [&, nc](bool replaying) {
      t.attempted += nc;
      try {
        const auto t0 = Clock::now();
        const auto res = core::search(s.space, cfg);
        const double secs = seconds_between(t0, Clock::now());
        dc.check(search_export(res), replaying ? "cached search" : "search", t);
        if (replaying && (res.cache_misses > 0 || res.rungs_run > 0)) {
          t.fail(std::max<std::uint64_t>(1, res.cache_misses),
                 "cached search simulated candidates");
        }
        return secs;
      } catch (const std::exception& e) {
        t.fail(nc, std::string("search: ") + e.what());
        return 0.0;
      }
    };
    cold_pass = [&, run_search]() mutable {
      fs::remove(cfg.cache_db);
      return run_search(false);
    };
    replay_pass = [run_search]() mutable { return run_search(true); };
  }

  // Cold passes and replays alternate for the whole run, about 5:1 in
  // time (replays are short, so they still number the most), with one
  // set-up before each, so all three figures sample the same stretch of
  // host time. The first pass is cold: it writes the store.
  double cold_total = 0.0, replay_total = 0.0;
  while (cold.size() < 3 || replay.size() < 5 || elapsed() < a.seconds) {
    cpus.tick();
    time_setup(w, setup);
    if (5.0 * replay_total >= cold_total) {
      cold.push_back(cold_pass());
      cold_total += cold.back();
    } else {
      replay.push_back(replay_pass());
      replay_total += replay.back();
    }
  }
  remove_journals(s, a.scratch);
  fs::remove(cfg.cache_db);
  print_samples("setup", setup);
  print_samples("wall", cold);
  print_samples("replay", replay);

  Metrics m;
  m.add("wall_s", fast_tail(cold), "s");
  m.add("replay_s", fast_tail(replay), "s");
  m.add("setup_s", fast_tail(setup), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  return m;
}

/// The traced run: per-layer metrics from repeated traced passes.
Metrics traced_run(const Workload& w, const Args& a, Tally& t,
                   DigestCheck& dc) {
  const auto start = Clock::now();
  const Setup s = build_setup(w, nullptr);
  std::vector<PassResult> passes;
  double gap = 0.0;
  CpuRotation cpus(w.jobs == 1);
  while (passes.empty() ||
         seconds_between(start, Clock::now()) < a.seconds) {
    cpus.tick();
    passes.push_back(w.kind == Kind::Explore
                         ? explore_trace_pass(w, s, a.seed, t, dc, a.scratch,
                                              gap)
                         : search_trace_pass(w, s, a.seed, t, dc, a.scratch));
    if (passes.back().counters != passes.front().counters) {
      t.fail(1, "work counters differ between traced passes");
    }
  }
  std::printf("traced passes: %zu\n", passes.size());
  std::printf("counters %s\n", counters_json(passes.front().counters).c_str());
  return layer_metrics(w, passes, gap);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    obs::set_enabled(false);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const Workload w =
        workload_by_name(a.workload, static_cast<int>(std::min(hw, 4u)));
    fs::create_directories(a.scratch);
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0);
    std::printf("host {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
                "\"build_type\": %s, \"workers\": %d}\n",
                hw, json_str(cpu_model()).c_str(),
                json_str(std::string("GCC-compatible ") + __VERSION__).c_str(),
                json_str(PERFBENCH_BUILD_TYPE).c_str(), w.jobs);
    Tally t;
    DigestCheck dc{a.expect_digest, {}};
    const Metrics m =
        a.trace ? traced_run(w, a, t, dc) : untraced_run(w, a, t, dc);
    for (const auto& [name, vu] : m.items) {
      std::printf("  %-34s %.6g %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
    }
    std::printf("digest %s\n", dc.first.c_str());
    t.failed = std::min(t.failed, t.attempted);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                t.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed), m.json().c_str());
    std::fflush(stdout);
    return t.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
