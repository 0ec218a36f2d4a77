// Design-space exploration over every paper benchmark, with CSV and JSON
// exports of all measured points (the machine-readable companion to
// Tables 1-4 and the E10 sweep).
//
// Each benchmark is explored twice — serially (jobs = 1) and on the
// work-stealing pool (jobs = all cores, or --jobs N) — both to measure the
// parallel speedup and to assert the determinism contract: the two runs
// must agree bit-for-bit on labels, power, area, attribution (hotspot and
// crest) and Pareto flags. Every timed leg repeats kReps times and reports
// pct50/pct90/pct99 + stddev (util/stats.hpp); headline seconds are the
// medians.
//
// The facet benchmark additionally runs a checkpoint/resume leg: a
// journalled sweep is interrupted partway, resumed, and the resumed run's
// CSV/JSON exports are asserted byte-identical to the uninterrupted run
// (timings and replay counts land in BENCH_explorer.json under "resume").
//
// Writes: mcrtl_exploration.csv, mcrtl_exploration.json, BENCH_explorer.json
// (cwd).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/explorer.hpp"
#include "obs/obs.hpp"
#include "power/report.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace mcrtl;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The report rows for one exploration result (same mapping the main loop
/// uses), so two results can be compared as the *bytes* of their exports.
std::vector<power::ExperimentRecord> to_records(
    const core::ExplorationResult& r, const char* name,
    std::size_t computations) {
  std::vector<power::ExperimentRecord> recs;
  for (const auto& p : r.points) {
    power::ExperimentRecord rec;
    rec.experiment = std::string("explore_") + name;
    rec.design = p.label;
    rec.benchmark = name;
    rec.width = 4;
    rec.computations = computations;
    rec.power = p.power;
    rec.hotspot = p.hotspot;
    rec.hotspot_share = p.hotspot_share;
    rec.crest = p.crest;
    rec.area = p.area;
    rec.stats = p.stats;
    recs.push_back(std::move(rec));
  }
  return recs;
}

bool identical(const core::ExplorationResult& a,
               const core::ExplorationResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& p = a.points[i];
    const auto& q = b.points[i];
    if (p.label != q.label || p.pareto != q.pareto ||
        p.power.total != q.power.total || p.area.total != q.area.total ||
        p.hotspot != q.hotspot || p.hotspot_share != q.hotspot_share ||
        p.crest != q.crest) {
      return false;
    }
  }
  return true;
}

void emit_timing(std::ofstream& js, const RunStats& s) {
  js << "\"pct50\": " << s.pct50 << ", \"pct90\": " << s.pct90
     << ", \"pct99\": " << s.pct99 << ", \"stddev\": " << s.stddev
     << ", \"reps\": " << s.n;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;  // auto
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    }
  }
  const unsigned resolved_jobs = ThreadPool::resolve_jobs(jobs);

  std::printf("=== explorer: Pareto frontiers of the paper benchmarks "
              "(%u jobs) ===\n\n",
              resolved_jobs);
  std::vector<power::ExperimentRecord> records;

  constexpr int kReps = 5;  // timing samples per leg (pct50 is the headline)
  struct BenchTiming {
    std::string name;
    std::size_t points = 0;
    RunStats serial;
    RunStats parallel;
    RunStats traced;  ///< parallel again, with obs:: collection on
  };
  std::vector<BenchTiming> timings;
  struct ResumeStats {
    std::size_t completed_before_interrupt = 0;
    std::size_t replayed = 0;
    double interrupted_s = 0;
    double resumed_s = 0;
  } resume;
  const auto wall0 = std::chrono::steady_clock::now();

  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    core::ExplorerConfig cfg;
    cfg.max_clocks = 4;
    // Long enough that a design point is real work: the single-pass explore
    // on the event-driven kernel made points ~4x cheaper, which at 1200
    // computations left too little per task for the pool to amortize.
    cfg.computations = 4000;

    BenchTiming tm;
    tm.name = name;

    // Each leg runs kReps times; the first rep's result feeds the identity
    // checks (every rep is bit-identical by the determinism contract, which
    // the serial-vs-parallel-vs-traced comparison asserts below).
    cfg.jobs = 1;
    core::ExplorationResult serial;
    std::vector<double> serial_samples;
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      auto res = core::explore(*b.graph, *b.schedule, cfg);
      serial_samples.push_back(seconds_since(t0));
      if (rep == 0) serial = std::move(res);
    }
    tm.serial = RunStats::from_samples(std::move(serial_samples));

    cfg.jobs = static_cast<int>(resolved_jobs);
    core::ExplorationResult r;
    std::vector<double> par_samples;
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      auto res = core::explore(*b.graph, *b.schedule, cfg);
      par_samples.push_back(seconds_since(t0));
      if (rep == 0) r = std::move(res);
    }
    tm.parallel = RunStats::from_samples(std::move(par_samples));
    tm.points = r.points.size();

    if (!identical(serial, r)) {
      std::fprintf(stderr,
                   "FATAL: %s parallel exploration differs from serial\n",
                   name);
      return 1;
    }

    // Third leg with observability collection on: gathers the per-phase
    // span/counter/histogram profile for BENCH_explorer.json and asserts
    // the tracing determinism contract (results bit-identical with
    // collection on).
    obs::set_enabled(true);
    core::ExplorationResult traced;
    std::vector<double> traced_samples;
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      auto res = core::explore(*b.graph, *b.schedule, cfg);
      traced_samples.push_back(seconds_since(t0));
      if (rep == 0) traced = std::move(res);
    }
    tm.traced = RunStats::from_samples(std::move(traced_samples));
    obs::set_enabled(false);
    if (!identical(serial, traced)) {
      std::fprintf(stderr,
                   "FATAL: %s exploration with tracing on differs from "
                   "tracing off\n",
                   name);
      return 1;
    }
    timings.push_back(tm);

    if (std::strcmp(name, "facet") == 0) {
      // Checkpoint/resume leg: journal a sweep, interrupt it partway via a
      // throwing progress hook (quarantine is off, so it aborts explore()
      // exactly like a crash would — the journal holds only fsync'd,
      // completed points), then resume on the pool and demand the resumed
      // run's CSV/JSON exports match the uninterrupted serial run BYTE for
      // byte.
      const char* journal = "bench_explorer_resume.journal";
      std::remove(journal);
      core::ExplorerConfig ck = cfg;
      ck.checkpoint_file = journal;
      ck.jobs = 1;  // deterministic interruption point
      const std::size_t interrupt_after = core::num_configurations(ck) / 2;
      std::atomic<std::size_t> completed{0};
      ck.on_point = [&](const core::ExplorationPoint&) {
        if (completed.fetch_add(1) + 1 == interrupt_after) {
          throw mcrtl::Error("bench: simulated interruption");
        }
      };
      auto t0 = std::chrono::steady_clock::now();
      bool interrupted = false;
      try {
        core::explore(*b.graph, *b.schedule, ck);
      } catch (const mcrtl::Error&) {
        interrupted = true;
      }
      resume.interrupted_s = seconds_since(t0);
      if (!interrupted) {
        std::fprintf(stderr, "FATAL: facet interruption hook never fired\n");
        return 1;
      }
      ck.on_point = nullptr;
      ck.jobs = static_cast<int>(resolved_jobs);
      t0 = std::chrono::steady_clock::now();
      const auto resumed = core::explore(*b.graph, *b.schedule, ck);
      resume.resumed_s = seconds_since(t0);
      resume.completed_before_interrupt = interrupt_after;
      resume.replayed = resumed.replayed_points;
      const auto ref = to_records(serial, name, cfg.computations);
      const auto res = to_records(resumed, name, cfg.computations);
      if (power::to_csv(ref) != power::to_csv(res) ||
          power::to_json(ref) != power::to_json(res)) {
        std::fprintf(stderr,
                     "FATAL: facet resumed exploration reports are not "
                     "byte-identical to the uninterrupted run\n");
        return 1;
      }
      std::remove(journal);
      std::printf("facet resume: %zu points journalled before interrupt, "
                  "%zu replayed, reports byte-identical "
                  "(interrupted %.2fs + resumed %.2fs vs serial %.2fs)\n",
                  resume.completed_before_interrupt, resume.replayed,
                  resume.interrupted_s, resume.resumed_s, tm.serial.pct50);
    }

    std::printf("%s:  (serial pct50 %.2fs, %u jobs pct50 %.2fs ±%.3fs, "
                "%.2fx; traced %.2fs)\n",
                name, tm.serial.pct50, resolved_jobs, tm.parallel.pct50,
                tm.parallel.stddev, tm.serial.pct50 / tm.parallel.pct50,
                tm.traced.pct50);
    TextTable t({"configuration", "P[mW]", "area[1e6 l^2]", "Pareto"});
    for (const auto& p : r.points) {
      t.add_row({p.label, format_fixed(p.power.total, 2),
                 format_fixed(p.area.total / 1e6, 2), p.pareto ? "*" : ""});
      power::ExperimentRecord rec;
      rec.experiment = std::string("explore_") + name;
      rec.design = p.label;
      rec.benchmark = name;
      rec.width = 4;
      rec.computations = cfg.computations;
      rec.power = p.power;
      rec.hotspot = p.hotspot;
      rec.hotspot_share = p.hotspot_share;
      rec.crest = p.crest;
      rec.area = p.area;
      rec.stats = p.stats;
      records.push_back(std::move(rec));
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("  best power: %s (%.2f mW)\n\n", r.best_power().label.c_str(),
                r.best_power().power.total);
  }

  std::ofstream("mcrtl_exploration.csv") << power::to_csv(records);
  std::ofstream("mcrtl_exploration.json") << power::to_json(records);

  // Machine-readable perf record for this and future PRs (totals are sums
  // of per-benchmark medians).
  double serial_total = 0, parallel_total = 0;
  std::size_t total_points = 0;
  for (const auto& tm : timings) {
    serial_total += tm.serial.pct50;
    parallel_total += tm.parallel.pct50;
    total_points += tm.points;
  }
  double traced_total = 0;
  for (const auto& tm : timings) traced_total += tm.traced.pct50;
  {
    std::ofstream js("BENCH_explorer.json");
    js << "{\n  \"jobs\": " << resolved_jobs
       << ",\n  \"jobs_requested\": " << jobs
       << ",\n  \"hardware_concurrency\": " << ThreadPool::default_concurrency()
       << ",\n  \"scheduling\": \"longest_first\""
       << ",\n  \"single_pass_explore\": true"
       << ",\n  \"sim_kernel\": \"time_sliced\",\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < timings.size(); ++i) {
      const auto& tm = timings[i];
      js << "    {\"name\": \"" << tm.name << "\", \"points\": " << tm.points
         << ", \"serial_seconds\": " << tm.serial.pct50
         << ", \"parallel_seconds\": " << tm.parallel.pct50
         << ", \"traced_seconds\": " << tm.traced.pct50
         << ",\n     \"serial_timing\": {";
      emit_timing(js, tm.serial);
      js << "},\n     \"parallel_timing\": {";
      emit_timing(js, tm.parallel);
      js << "},\n     \"traced_timing\": {";
      emit_timing(js, tm.traced);
      js << "},\n     \"speedup\": " << tm.serial.pct50 / tm.parallel.pct50
         << ", \"points_per_second\": " << tm.points / tm.parallel.pct50 << "}"
         << (i + 1 < timings.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"serial_seconds_total\": " << serial_total
       << ",\n  \"parallel_seconds_total\": " << parallel_total
       << ",\n  \"traced_seconds_total\": " << traced_total
       << ",\n  \"tracing_overhead\": "
       << (traced_total - parallel_total) / parallel_total
       << ",\n  \"speedup_total\": " << serial_total / parallel_total
       << ",\n  \"points_per_second_total\": " << total_points / parallel_total
       << ",\n  \"wall_seconds\": " << seconds_since(wall0);
    js << ",\n  \"resume\": {\"benchmark\": \"facet\", "
       << "\"completed_before_interrupt\": "
       << resume.completed_before_interrupt
       << ", \"replayed\": " << resume.replayed
       << ", \"interrupted_seconds\": " << resume.interrupted_s
       << ", \"resumed_seconds\": " << resume.resumed_s
       << ", \"byte_identical_reports\": true}";
    // Per-phase profile of the traced runs (all benchmarks accumulated):
    // where synthesis/verification/simulation wall time actually goes.
    js << ",\n  \"phases\": {";
    const auto stats = obs::Registry::instance().span_stats();
    for (std::size_t i = 0; i < stats.size(); ++i) {
      const auto& s = stats[i];
      js << (i ? "," : "") << "\n    \"" << s.name << "\": {\"count\": "
         << s.count << ", \"total_ms\": " << s.total_ms
         << ", \"mean_ms\": " << s.total_ms / static_cast<double>(s.count)
         << "}";
    }
    js << (stats.empty() ? "}" : "\n  }");
    js << ",\n  \"counters\": {";
    const auto counters = obs::Registry::instance().counters();
    for (std::size_t i = 0; i < counters.size(); ++i) {
      js << (i ? "," : "") << "\n    \"" << counters[i].first
         << "\": " << counters[i].second;
    }
    js << (counters.empty() ? "}" : "\n  }");
    // Value distributions observed during the traced runs (per-step energy
    // etc.); percentiles are log2-bucket upper bounds, see obs::HistogramStats.
    js << ",\n  \"histograms\": {";
    const auto hists = obs::Registry::instance().histograms();
    for (std::size_t i = 0; i < hists.size(); ++i) {
      const auto& h = hists[i];
      js << (i ? "," : "") << "\n    \"" << h.name << "\": {\"count\": "
         << h.count << ", \"mean\": " << h.mean() << ", \"pct50\": "
         << h.pct(0.50) << ", \"pct90\": " << h.pct(0.90) << ", \"pct99\": "
         << h.pct(0.99) << ", \"max\": " << h.max << "}";
    }
    js << (hists.empty() ? "}" : "\n  }") << "\n}\n";
  }
  std::printf("wrote mcrtl_exploration.csv / .json (%zu records), "
              "BENCH_explorer.json (total speedup %.2fx at %u jobs)\n",
              records.size(), serial_total / parallel_total, resolved_jobs);
  return 0;
}
