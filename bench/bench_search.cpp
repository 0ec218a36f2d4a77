// Guided-search speedup benchmark: a {benchmark x width x schedule-limit}
// x 58-variant grid of >= 4000 candidates is swept three ways —
//
//   exhaustive : budget_rungs = 0, no cache (every candidate at full depth
//                through explore(), the pre-search baseline);
//   guided     : successive-halving rungs + dominance early-abort, writing
//                a cold result cache;
//   cached     : the identical guided search replayed from that cache
//                (asserted 100% hits, zero simulation).
//
// The bench *fails* (exit 1) unless
//   * guided finds the exact exhaustive Pareto front, with every surviving
//     row bit-identical to the exhaustive row (the correctness contract),
//   * no exhaustive front member was pruned,
//   * guided is >= 3x faster than exhaustive — the median over kPairs
//     alternating (exhaustive, guided) pairs of the per-pair seconds ratio,
//     both legs timed with obs collection off,
//   * exhaustive simulates >= 3x the lane-steps guided does — the same
//     floor on deterministic work, counted by an untimed, traced
//     exhaustive pass after the timed legs,
//   * the cached replay is >= 20x faster than the fresh guided run and its
//     CSV export is byte-identical.
//
// Writes BENCH_search.json (cwd) — structural keys (grid size, survivor
// and abort counts, the guided leg's work counters from an untimed traced
// guided pass, the lane-step work ratio, contract booleans) are
// exact-matched by bench_diff; seconds/speedups, every timed pair
// included, are noisy keys; the "host" stamp (host.hpp) is not compared.
// Run with jobs = 1 so every count in the JSON is machine-independent (determinism across jobs is test_search's
// job, not this bench's).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/search.hpp"
#include "dfg/schedule.hpp"
#include "host.hpp"
#include "obs/obs.hpp"
#include "suite/benchmarks.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace mcrtl;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Exact-equality comparison of the measurement fields of two rows. The
/// guided search re-simulates survivors through explore() at full depth,
/// so == on doubles is the contract, not an approximation.
bool rows_bit_identical(const core::SearchRow& a, const core::SearchRow& b) {
  const auto& p = a.point;
  const auto& q = b.point;
  return a.behaviour == b.behaviour && p.label == q.label &&
         p.power.total == q.power.total &&
         p.power.combinational == q.power.combinational &&
         p.power.storage == q.power.storage &&
         p.power.clock_tree == q.power.clock_tree &&
         p.power.control == q.power.control && p.power.io == q.power.io &&
         p.power_stddev == q.power_stddev && p.power_ci95 == q.power_ci95 &&
         p.area.total == q.area.total && p.stats.period == q.stats.period &&
         p.stats.num_clocks == q.stats.num_clocks &&
         p.hotspot == q.hotspot && p.hotspot_share == q.hotspot_share &&
         p.crest == q.crest;
}

std::string row_key(const core::SearchRow& r) {
  return r.behaviour + "\x1f" + r.point.label;
}

}  // namespace

int main(int argc, char** argv) {
  // The bench takes no options: every run is the full grid, with every
  // gate on.
  if (argc > 1) {
    std::fprintf(stderr, "bench_search: unknown option %s\nusage: "
                         "bench_search\n", argv[1]);
    return 2;
  }

  // Behaviour grid: 3 benchmarks x 6 widths x 4 schedules x 58 variants
  // = 4176 candidates.
  const std::vector<std::string> names{"facet", "hal", "motivating"};
  const std::vector<int> widths{3, 4, 5, 6, 7, 8};
  const std::vector<int> limits{0, 1, 2, 3};

  std::vector<std::unique_ptr<dfg::Graph>> graphs;
  std::vector<std::unique_ptr<dfg::Schedule>> schedules;
  core::SearchSpace space;
  for (const auto& name : names) {
    for (const int w : widths) {
      for (const int lim : limits) {
        auto b = suite::by_name(name, static_cast<unsigned>(w));
        graphs.push_back(std::move(b.graph));
        if (lim > 0) {
          dfg::ResourceLimits rl;
          rl.default_limit = lim;
          schedules.push_back(std::make_unique<dfg::Schedule>(
              dfg::schedule_list(*graphs.back(), rl)));
        } else {
          schedules.push_back(std::move(b.schedule));
        }
        // Schedule variants of one (benchmark, width) compute the same
        // function, so they compete in a single dominance group — this is
        // where most of the pruning leverage comes from.
        space.behaviours.push_back(core::SearchBehaviour{
            str_format("%s/w%d/%s", name.c_str(), w,
                       lim > 0 ? str_format("lim%d", lim).c_str() : "ref"),
            graphs.back().get(), schedules.back().get(),
            str_format("%s/w%d", name.c_str(), w)});
      }
    }
  }
  core::cross_variants(space, core::search_variants(4));
  if (space.candidates.size() < 4000) {
    std::fprintf(stderr, "FATAL: grid has %zu candidates, need >= 4000\n",
                 space.candidates.size());
    return 1;
  }

  core::SearchConfig cfg;
  cfg.computations = 1200;
  cfg.seed = 7;
  cfg.streams = 2;
  cfg.jobs = 1;  // machine-independent counts; see header comment
  cfg.budget_rungs = 4;
  cfg.promote_fraction = 0.1;
  cfg.optimism = 0.97;
  cfg.min_survivors = 4;

  std::printf("=== search: %zu candidates over %zu behaviours, "
              "%zu computations ===\n\n",
              space.candidates.size(), space.behaviours.size(),
              cfg.computations);
  const auto wall0 = std::chrono::steady_clock::now();

  // Legs 1 and 2 — exhaustive (no rungs, no cache) and guided (cold
  // cache), timed in alternating pairs with obs collection off: a pair
  // shares the host's state, so the median of the per-pair ratios is far
  // steadier than one reading of each leg.
  constexpr int kPairs = 7;
  core::SearchConfig exh_cfg = cfg;
  exh_cfg.budget_rungs = 0;
  const char* cache_db = "bench_search_cache.db";
  core::SearchConfig gcfg = cfg;
  gcfg.cache_db = cache_db;
  std::vector<double> exh_samples, gui_samples, ratios;
  core::SearchResult exhaustive, guided;
  for (int pair = 0; pair < kPairs; ++pair) {
    auto t0 = std::chrono::steady_clock::now();
    auto exh = core::search(space, exh_cfg);
    exh_samples.push_back(seconds_since(t0));
    std::remove(cache_db);
    t0 = std::chrono::steady_clock::now();
    auto gui = core::search(space, gcfg);
    gui_samples.push_back(seconds_since(t0));
    ratios.push_back(exh_samples.back() / gui_samples.back());
    std::printf("pair %d: exhaustive %zu rows in %.2fs, guided %zu rows + "
                "%zu pruned in %.2fs (%.2fx)\n",
                pair + 1, exh.rows.size(), exh_samples.back(),
                gui.rows.size(), gui.pruned.size(), gui_samples.back(),
                ratios.back());
    if (pair == 0) {
      exhaustive = std::move(exh);
      guided = std::move(gui);
    }
  }
  const double exhaustive_s = RunStats::from_samples(exh_samples).pct50;
  const double guided_s = RunStats::from_samples(gui_samples).pct50;
  const double speedup_guided = RunStats::from_samples(ratios).pct50;
  std::printf("exhaustive: %zu full evaluations; guided: %zu full "
              "evaluations, %zu aborted, %d rungs\n",
              exhaustive.full_evaluations, guided.full_evaluations,
              guided.aborted, guided.rungs_run);

  // Untimed guided pass with obs collection on, so the committed BENCH
  // records the search.* counters the run produced; it leaves the cache
  // the replay reads.
  std::remove(cache_db);
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  core::search(space, gcfg);
  obs::set_enabled(false);
  const auto guided_counters = obs::Registry::instance().counters();

  // Leg 3 — cached replay of the identical search, median of 3 reps.
  std::vector<double> cached_samples;
  core::SearchResult cached;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto res = core::search(space, gcfg);
    cached_samples.push_back(seconds_since(t0));
    if (rep == 0) cached = std::move(res);
  }
  const RunStats cached_stats = RunStats::from_samples(std::move(cached_samples));
  const double cached_s = cached_stats.pct50;
  std::printf("cached:     %zu hits / %zu misses in %.4fs\n",
              cached.cache_hits, cached.cache_misses, cached_s);

  // Leg 4 — untimed exhaustive pass, traced, for its lane-step count: the
  // work ratio is exact at jobs = 1, where the seconds ratio is noisy.
  auto steps = [](const std::vector<std::pair<std::string, std::uint64_t>>& c) {
    for (const auto& [name, value] : c) {
      if (name == "sim.time_sliced.steps") return value;
    }
    return std::uint64_t{0};
  };
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  core::search(space, exh_cfg);
  obs::set_enabled(false);
  const std::uint64_t exhaustive_steps =
      steps(obs::Registry::instance().counters());
  obs::Registry::instance().reset();
  const std::uint64_t guided_steps = steps(guided_counters);
  const double work_ratio =
      guided_steps > 0 ? static_cast<double>(exhaustive_steps) /
                             static_cast<double>(guided_steps)
                       : 0.0;
  std::printf("work:       %llu / %llu lane-steps (exhaustive / guided)\n\n",
              static_cast<unsigned long long>(exhaustive_steps),
              static_cast<unsigned long long>(guided_steps));

  // --- Correctness gates ---------------------------------------------------
  bool ok = true;

  // Exhaustive rows indexed by (behaviour, label) for the bit-identity and
  // front comparisons.
  std::map<std::string, const core::SearchRow*> exh_by_key;
  std::map<std::string, const core::SearchRow*> exh_front;
  for (const auto& r : exhaustive.rows) {
    exh_by_key[row_key(r)] = &r;
    if (r.pareto) exh_front[row_key(r)] = &r;
  }
  std::size_t guided_front = 0;
  for (const auto& r : guided.rows) {
    const auto it = exh_by_key.find(row_key(r));
    if (it == exh_by_key.end()) {
      std::fprintf(stderr, "FATAL: guided row %s/%s absent from exhaustive\n",
                   r.behaviour.c_str(), r.point.label.c_str());
      ok = false;
      continue;
    }
    if (!rows_bit_identical(r, *it->second)) {
      std::fprintf(stderr, "FATAL: guided row %s/%s is not bit-identical to "
                           "the exhaustive row\n",
                   r.behaviour.c_str(), r.point.label.c_str());
      ok = false;
    }
    if (r.pareto != it->second->pareto) {
      std::fprintf(stderr, "FATAL: pareto flag mismatch on %s/%s\n",
                   r.behaviour.c_str(), r.point.label.c_str());
      ok = false;
    }
    guided_front += r.pareto ? 1 : 0;
  }
  if (guided_front != exh_front.size()) {
    std::fprintf(stderr, "FATAL: guided front has %zu rows, exhaustive %zu\n",
                 guided_front, exh_front.size());
    ok = false;
  }
  for (const auto& p : guided.pruned) {
    if (exh_front.count(p.behaviour + "\x1f" + p.label)) {
      std::fprintf(stderr, "FATAL: pruned candidate %s/%s is on the "
                           "exhaustive Pareto front\n",
                   p.behaviour.c_str(), p.label.c_str());
      ok = false;
    }
  }
  const bool front_identical = ok;

  const bool fully_cached = cached.cache_misses == 0 &&
                            cached.full_evaluations == 0 &&
                            cached.rungs_run == 0;
  if (!fully_cached) {
    std::fprintf(stderr, "FATAL: cached replay simulated (%zu misses, %zu "
                         "full evaluations, %d rungs)\n",
                 cached.cache_misses, cached.full_evaluations,
                 cached.rungs_run);
    ok = false;
  }
  const bool csv_identical =
      core::search_to_csv(guided) == core::search_to_csv(cached);
  if (!csv_identical) {
    std::fprintf(stderr,
                 "FATAL: cached CSV differs from the fresh guided CSV\n");
    ok = false;
  }

  // --- Performance gates ---------------------------------------------------
  const double speedup_cached = guided_s / cached_s;
  std::printf("guided speedup vs exhaustive: %.2fx, median of %d pairs "
              "(gate: >= 3x)\n",
              speedup_guided, kPairs);
  std::printf("guided work vs exhaustive:    %.2fx (gate: >= 3x)\n",
              work_ratio);
  std::printf("cached speedup vs guided:     %.1fx (gate: >= 20x)\n",
              speedup_cached);
  if (speedup_guided < 3.0) {
    std::fprintf(stderr, "FATAL: guided speedup %.2fx below the 3x gate\n",
                 speedup_guided);
    ok = false;
  }
  if (work_ratio < 3.0) {
    std::fprintf(stderr, "FATAL: guided work ratio %.2fx below the 3x gate\n",
                 work_ratio);
    ok = false;
  }
  if (speedup_cached < 20.0) {
    std::fprintf(stderr, "FATAL: cached speedup %.1fx below the 20x gate\n",
                 speedup_cached);
    ok = false;
  }

  std::ofstream js("BENCH_search.json");
  js << "{\n  " << bench::host_json()
     << ",\n  \"candidates\": " << space.candidates.size()
     << ",\n  \"behaviours\": " << space.behaviours.size()
     << ",\n  \"computations\": " << cfg.computations
     << ",\n  \"budget_rungs\": " << cfg.budget_rungs
     << ",\n  \"promote_fraction\": " << cfg.promote_fraction
     << ",\n  \"optimism\": " << cfg.optimism
     << ",\n  \"exhaustive\": {\"rows\": " << exhaustive.rows.size()
     << ", \"full_evaluations\": " << exhaustive.full_evaluations
     << ", \"front\": " << exh_front.size()
     << ", \"exhaustive_seconds\": " << exhaustive_s << "}"
     << ",\n  \"guided\": {\"rows\": " << guided.rows.size()
     << ", \"pruned\": " << guided.pruned.size()
     << ", \"full_evaluations\": " << guided.full_evaluations
     << ", \"aborted\": " << guided.aborted
     << ", \"rungs_run\": " << guided.rungs_run
     << ", \"front\": " << guided_front
     << ", \"guided_seconds\": " << guided_s << "}"
     << ",\n  \"pairs\": [";
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    js << (i == 0 ? "" : ",") << "\n    {\"exhaustive_seconds\": "
       << exh_samples[i] << ", \"guided_seconds\": " << gui_samples[i]
       << ", \"speedup\": " << ratios[i] << "}";
  }
  js << "\n  ]"
     << ",\n  \"cached\": {\"hits\": " << cached.cache_hits
     << ", \"misses\": " << cached.cache_misses
     << ", \"cached_seconds\": " << cached_s
     << ", \"cached_seconds_stddev\": " << cached_stats.stddev
     << ", \"reps\": " << cached_stats.n << "}"
     << ",\n  \"work\": {\"exhaustive_steps\": " << exhaustive_steps
     << ", \"guided_steps\": " << guided_steps
     << ", \"steps_ratio\": " << work_ratio << "}"
     << ",\n  \"speedup_guided\": " << speedup_guided
     << ",\n  \"speedup_cached\": " << speedup_cached
     << ",\n  \"front_identical\": " << (front_identical ? "true" : "false")
     << ",\n  \"fully_cached_replay\": " << (fully_cached ? "true" : "false")
     << ",\n  \"csv_byte_identical\": " << (csv_identical ? "true" : "false");
  // The search.* observability counters from the traced guided run, plus
  // the designs it built and the lane-steps it simulated — deterministic at
  // jobs = 1, so they are exact-matched by bench_diff: a change that makes
  // the search cheaper must do the same work.
  js << ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : guided_counters) {
    if (name.rfind("search.", 0) != 0 && name != "rtl.designs_built" &&
        name != "sim.time_sliced.steps") {
      continue;
    }
    js << (first ? "" : ",") << "\n    \"" << name << "\": " << value;
    first = false;
  }
  js << (first ? "}" : "\n  }");
  js << ",\n  \"wall_seconds\": " << seconds_since(wall0) << "\n}\n";

  std::remove(cache_db);
  std::printf("\nwrote BENCH_search.json (%s)\n", ok ? "all gates passed"
                                                     : "GATES FAILED");
  return ok ? 0 : 1;
}
