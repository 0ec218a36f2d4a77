// Unit tests for the design-space explorer and the experiment report
// writers.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/explorer.hpp"
#include "core/measure.hpp"
#include "core/record.hpp"
#include "obs/obs.hpp"
#include "power/attribution.hpp"
#include "power/report.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mcrtl::core {
namespace {

ExplorationResult explore_small(const char* name, ExplorerConfig cfg = {}) {
  const auto b = suite::by_name(name, 4);
  cfg.computations = 300;
  return explore(*b.graph, *b.schedule, cfg);
}

TEST(ExplorerTest, EnumeratesExpectedPointCount) {
  ExplorerConfig cfg;
  cfg.max_clocks = 3;
  cfg.include_conventional = true;
  cfg.include_split = true;
  const auto r = explore_small("facet", cfg);
  // 2 conventional + n=1 integrated + (n=2,3) x (integrated, split).
  EXPECT_EQ(r.points.size(), 2u + 1u + 2u * 2u);
}

TEST(ExplorerTest, PointsSortedByPower) {
  const auto r = explore_small("hal");
  for (std::size_t i = 1; i < r.points.size(); ++i) {
    EXPECT_LE(r.points[i - 1].power.total, r.points[i].power.total);
  }
}

TEST(ExplorerTest, ParetoFrontierIsConsistent) {
  const auto r = explore_small("biquad");
  int pareto_count = 0;
  for (const auto& p : r.points) {
    pareto_count += p.pareto ? 1 : 0;
    if (!p.pareto) {
      // Some point must dominate it.
      const bool dominated = std::any_of(
          r.points.begin(), r.points.end(), [&](const ExplorationPoint& q) {
            return (q.power.total < p.power.total &&
                    q.area.total <= p.area.total) ||
                   (q.power.total <= p.power.total &&
                    q.area.total < p.area.total);
          });
      EXPECT_TRUE(dominated) << p.label;
    }
  }
  EXPECT_GE(pareto_count, 1);
  // The global power minimum is always on the frontier.
  EXPECT_TRUE(r.best_power().pareto);
}

TEST(ExplorerTest, BestUnderAreaBudget) {
  const auto r = explore_small("facet");
  // Unbounded budget: same as best_power.
  const auto unbounded = r.best_under_area(1e12);
  ASSERT_TRUE(unbounded.has_value());
  EXPECT_EQ(unbounded->label, r.best_power().label);
  // Impossible budget: nothing fits.
  EXPECT_FALSE(r.best_under_area(1.0).has_value());
  // A budget between min and max area excludes at least the largest point.
  double min_area = 1e18, max_area = 0;
  for (const auto& p : r.points) {
    min_area = std::min(min_area, p.area.total);
    max_area = std::max(max_area, p.area.total);
  }
  const auto mid = r.best_under_area((min_area + max_area) / 2);
  ASSERT_TRUE(mid.has_value());
  EXPECT_LE(mid->area.total, (min_area + max_area) / 2);
}

TEST(ExplorerTest, MultiClockWinsOnPaperBenchmarks) {
  // The paper's conclusion as an explorer property: the best point is a
  // multi-clock configuration, not a conventional one.
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto r = explore_small(name);
    EXPECT_EQ(r.best_power().options.style, DesignStyle::MultiClock) << name;
    EXPECT_GT(r.best_power().options.num_clocks, 1) << name;
  }
}

TEST(ExplorerTest, StreamsOneMatchesHistoricalScalarPath) {
  // streams == 1 must stay byte-identical to the pre-streams explorer: same
  // single EventDriven run, zero spread columns.
  ExplorerConfig base;
  ExplorerConfig one;
  one.streams = 1;
  const auto a = explore_small("facet", base);
  const auto b = explore_small("facet", one);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].label, b.points[i].label);
    EXPECT_EQ(a.points[i].power.total, b.points[i].power.total);
    EXPECT_EQ(b.points[i].power_stddev, 0.0);
    EXPECT_EQ(b.points[i].power_ci95, 0.0);
  }
}

/// One point evaluated the way the explorer did before time slicing: a
/// scalar EventDriven run with the power probe attached.
ExplorationPoint scalar_replay(const dfg::Graph& graph,
                               const dfg::Schedule& sched,
                               const ExplorationPoint& like,
                               const sim::InputStream& stream) {
  const auto tech = power::TechLibrary::cmos08();
  const power::PowerParams params;
  const auto syn = synthesize(graph, sched, like.options);
  sim::Simulator simulator(*syn.design);
  const power::Attribution attribution(*syn.design, tech, params.vdd);
  sim::PowerProbe probe(attribution.energy_model());
  simulator.set_power_probe(&probe);
  const auto res = simulator.run(stream, graph.inputs(), graph.outputs());
  EXPECT_TRUE(sim::check_outputs(graph, stream, res.outputs, "replay")
                  .equivalent);
  ExplorationPoint p;
  p.options = like.options;
  p.label = like.label;
  p.power = power::estimate_power(*syn.design, res.activity, tech, params);
  const auto arep = attribution.attribute(res.activity);
  p.hotspot = arep.rows.front().component;
  p.hotspot_share = arep.rows.front().energy_fj / arep.total_fj;
  p.crest = probe.crest();
  p.area = power::estimate_area(*syn.design, tech);
  p.stats = syn.design->stats;
  return p;
}

TEST(ExplorerTest, TablesSweepIsTimeSlicedAndMatchesScalarReplay) {
  // The paper's Tables 1-4 sweep (four behaviours, up to 4 clocks, the
  // conventional and split variants: 36 points at 2000 computations).
  // Every point must take the time-sliced path and still be bit-identical,
  // crest included, to a scalar run of the same stream.
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  std::size_t points = 0;
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    ExplorerConfig cfg;
    cfg.computations = 2000;
    cfg.seed = 1996;
    const auto r = explore(*b.graph, *b.schedule, cfg);
    Rng rng(cfg.seed);
    const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(),
                                            cfg.computations, 4);
    for (const auto& p : r.points) {
      EXPECT_EQ(record::encode_point_fields(p),
                record::encode_point_fields(
                    scalar_replay(*b.graph, *b.schedule, p, stream)))
          << name << " / " << p.label;
    }
    points += r.points.size();
  }
  obs::set_enabled(false);
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [k, v] : obs::Registry::instance().counters()) {
    counters[k] = v;
  }
  obs::Registry::instance().reset();
  EXPECT_EQ(points, 36u);
  EXPECT_EQ(counters["sim.time_sliced.runs"], 36u);
  EXPECT_EQ(counters["sim.time_sliced.fallbacks"], 0u);
}

/// One bundle point evaluated the way the explorer did before bundles were
/// time-sliced: a lockstep run_sliced() with the power probe attached and
/// the explorer's per-stream means and aggregate attribution.
ExplorationPoint lockstep_replay(const dfg::Graph& graph,
                                 const dfg::Schedule& sched,
                                 const ExplorationPoint& like,
                                 const std::vector<sim::InputStream>& bundle) {
  const auto tech = power::TechLibrary::cmos08();
  const power::PowerParams params;
  const auto syn = synthesize(graph, sched, like.options);
  sim::Simulator simulator(*syn.design, sim::Simulator::Mode::BitSliced);
  const power::Attribution attribution(*syn.design, tech, params.vdd);
  sim::PowerProbe probe(attribution.energy_model());
  simulator.set_power_probe(&probe);
  const auto results =
      simulator.run_sliced(bundle, graph.inputs(), graph.outputs());
  std::vector<power::PowerBreakdown> brs;
  std::vector<sim::Activity> acts;
  for (std::size_t s = 0; s < results.size(); ++s) {
    EXPECT_TRUE(sim::check_outputs(graph, bundle[s], results[s].outputs,
                                   "replay")
                    .equivalent);
    brs.push_back(power::estimate_power(*syn.design, results[s].activity,
                                        tech, params));
    acts.push_back(results[s].activity);
  }
  auto mean_of = [&](double power::PowerBreakdown::*field) {
    std::vector<double> v;
    for (const auto& br : brs) v.push_back(br.*field);
    return sim::sample_stats(std::move(v)).mean;
  };
  ExplorationPoint p;
  p.options = like.options;
  p.label = like.label;
  p.power.combinational = mean_of(&power::PowerBreakdown::combinational);
  p.power.storage = mean_of(&power::PowerBreakdown::storage);
  p.power.clock_tree = mean_of(&power::PowerBreakdown::clock_tree);
  p.power.control = mean_of(&power::PowerBreakdown::control);
  p.power.io = mean_of(&power::PowerBreakdown::io);
  p.power.leakage = mean_of(&power::PowerBreakdown::leakage);
  const auto st = sim::sample_stats(
      [&] {
        std::vector<double> v;
        for (const auto& br : brs) v.push_back(br.total);
        return v;
      }());
  p.power.total = st.mean;
  p.power_stddev = st.stddev;
  p.power_ci95 = st.ci95;
  const auto arep = attribution.attribute(sim::sum_activities(acts));
  p.hotspot = arep.rows.front().component;
  p.hotspot_share = arep.rows.front().energy_fj / arep.total_fj;
  p.crest = probe.crest();
  p.area = power::estimate_area(*syn.design, tech);
  p.stats = syn.design->stats;
  return p;
}

TEST(ExplorerTest, BundleSweepsAreTimeSlicedAndMatchLockstepReplay) {
  // Monte-Carlo sweeps of 2 and 8 streams fill 64 lanes with 32 resp. 8
  // time chunks per stream; every point, crest included, must still be
  // bit-identical to a lockstep run_sliced() of the bundle.
  for (std::size_t streams : {2u, 8u}) {
    const auto b = suite::by_name("hal", 4);
    ExplorerConfig cfg;
    cfg.max_clocks = 3;
    cfg.computations = 600;
    cfg.seed = 1996;
    cfg.streams = streams;
    obs::Registry::instance().reset();
    obs::set_enabled(true);
    const auto r = explore(*b.graph, *b.schedule, cfg);
    obs::set_enabled(false);
    std::map<std::string, std::uint64_t> counters;
    for (const auto& [k, v] : obs::Registry::instance().counters()) {
      counters[k] = v;
    }
    obs::Registry::instance().reset();
    const auto bundle = sim::uniform_streams(
        cfg.seed, streams, b.graph->inputs().size(), cfg.computations, 4);
    ASSERT_FALSE(r.points.empty());
    for (const auto& p : r.points) {
      EXPECT_EQ(record::encode_point_fields(p),
                record::encode_point_fields(
                    lockstep_replay(*b.graph, *b.schedule, p, bundle)))
          << "streams=" << streams << " / " << p.label;
    }
    EXPECT_EQ(counters["sim.time_sliced.bundle_runs"], r.points.size());
    EXPECT_EQ(counters["sim.time_sliced.bundle_streams"],
              r.points.size() * streams);
    EXPECT_EQ(counters["sim.time_sliced.lanes"], r.points.size() * 64);
    EXPECT_EQ(counters["sim.time_sliced.fallbacks"], 0u);
    EXPECT_EQ(counters["sim.sliced.runs"], 0u);
  }
}

/// The paper's five Table styles as explicit explorer configurations.
std::vector<std::pair<SynthesisOptions, std::string>> table_configs() {
  std::vector<std::pair<SynthesisOptions, std::string>> configs;
  for (const auto& [style, clocks] :
       {std::pair{DesignStyle::ConventionalNonGated, 1},
        std::pair{DesignStyle::ConventionalGated, 1},
        std::pair{DesignStyle::MultiClock, 1},
        std::pair{DesignStyle::MultiClock, 2},
        std::pair{DesignStyle::MultiClock, 3}}) {
    SynthesisOptions opts;
    opts.style = style;
    opts.num_clocks = clocks;
    configs.emplace_back(opts, style_label(style, clocks));
  }
  return configs;
}

/// measure() of `p`'s configuration on `stim`, labelled like `p`.
ExplorationPoint measured_like(const suite::Benchmark& b,
                               const ExplorationPoint& p, const Stimulus& stim,
                               const MeasureHooks& hooks = {}) {
  const auto syn = synthesize(*b.graph, *b.schedule, p.options);
  ExplorationPoint m = measure(*syn.design, *b.graph, stim,
                               power::TechLibrary::cmos08(), {}, hooks)
                           .point;
  m.label = p.label;
  return m;
}

TEST(ExplorerTest, MeasureIsTheExplorePoint) {
  // `mcrtl table` reports measure() on the uniform stream of Rng(seed) and
  // `mcrtl explore` reports explore() with the same seed: for the five
  // Table styles the two must agree field for field, bit for bit — power
  // breakdown, spread, area, stats, hotspot and crest. Bundles too.
  const auto b = suite::by_name("hal", 4);
  for (const std::size_t streams : {1u, 2u}) {
    SCOPED_TRACE(streams);
    ExplorerConfig cfg;
    cfg.computations = 300;
    cfg.seed = 1996;
    cfg.streams = streams;
    cfg.explicit_configs = table_configs();
    const auto r = explore(*b.graph, *b.schedule, cfg);
    const auto stim =
        streams == 1
            ? uniform_stimulus(*b.graph, cfg.computations, cfg.seed)
            : make_stimulus(*b.graph,
                            sim::uniform_streams(cfg.seed, streams,
                                                 b.graph->inputs().size(),
                                                 cfg.computations, 4));
    ASSERT_EQ(r.points.size(), 5u);
    for (const auto& p : r.points) {
      const ExplorationPoint m = measured_like(b, p, stim);
      EXPECT_EQ(record::encode_point_fields(m), record::encode_point_fields(p))
          << p.label;
      EXPECT_EQ(m.power.total, p.power.total) << p.label;
      EXPECT_EQ(m.crest, p.crest) << p.label;
      EXPECT_FALSE(m.hotspot.empty()) << p.label;
    }
  }
}

TEST(ExplorerTest, MeasureWithObserverTakesScalarPathAndSamePoint) {
  // The debug hooks — a step observer (the --vcd dump) and a heatmap — run
  // on the Oblivious reference kernel's run() instead of the time-sliced
  // pass; the measured point must not change.
  const auto b = suite::by_name("hal", 4);
  ExplorerConfig cfg;
  cfg.computations = 300;
  cfg.seed = 1996;
  cfg.explicit_configs = table_configs();
  const auto r = explore(*b.graph, *b.schedule, cfg);
  const auto stim = uniform_stimulus(*b.graph, cfg.computations, cfg.seed);
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  std::size_t steps = 0;
  sim::PhaseHeatmap heatmap;
  MeasureHooks hooks;
  hooks.observer = [&](std::uint64_t, const std::vector<std::uint64_t>&) {
    ++steps;
  };
  hooks.heatmap = &heatmap;
  std::uint64_t captured = 0;
  for (const auto& p : r.points) {
    EXPECT_EQ(record::encode_point_fields(measured_like(b, p, stim, hooks)),
              record::encode_point_fields(p))
        << p.label;
    for (int ph = 1; ph <= heatmap.num_phases; ++ph) {
      captured += heatmap.phase_total(ph);
    }
  }
  obs::set_enabled(false);
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [k, v] : obs::Registry::instance().counters()) {
    counters[k] = v;
  }
  obs::Registry::instance().reset();
  EXPECT_EQ(counters["sim.runs"], 5u);
  EXPECT_EQ(counters.count("sim.time_sliced.runs"), 0u);
  EXPECT_EQ(counters.count("sim.sliced.runs"), 0u);
  EXPECT_EQ(counters.count("sim.kernel.events_popped"), 0u);
  EXPECT_GT(steps, 5u * cfg.computations);
  EXPECT_GT(captured, 0u);
}

TEST(ExplorerTest, RejectsZeroComputationsUpFront) {
  const auto b = suite::by_name("facet", 4);
  ExplorerConfig cfg;
  cfg.computations = 0;
  cfg.quarantine = true;
  try {
    explore(*b.graph, *b.schedule, cfg);
    FAIL() << "computations == 0 was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("computations"), std::string::npos)
        << e.what();
  }
}

TEST(ExplorerTest, ExpiredPointDeadlineIsQuarantinedAsTimeout) {
  // A deadline that has expired before the first computation fails every
  // point with a TimeoutError, which quarantine records instead of
  // aborting — on the time-sliced path (streams == 1) and the bit-sliced
  // bundle path alike.
  for (std::size_t streams : {1u, 4u}) {
    ExplorerConfig cfg;
    cfg.max_clocks = 2;
    cfg.streams = streams;
    cfg.quarantine = true;
    cfg.point_timeout_s = 1e-9;
    const auto r = explore_small("facet", cfg);
    EXPECT_TRUE(r.points.empty()) << "streams=" << streams;
    ASSERT_EQ(r.failed_points.size(), num_configurations(cfg));
    for (const auto& f : r.failed_points) {
      EXPECT_NE(f.error.find("deadline"), std::string::npos) << f.error;
    }
  }
}

TEST(ExplorerTest, SlicedSweepIsJobsDeterministic) {
  // A multi-stream sweep must not depend on worker scheduling: any --jobs
  // value yields bit-identical points, including the spread statistics.
  ExplorerConfig serial;
  serial.streams = 8;
  serial.jobs = 1;
  ExplorerConfig parallel = serial;
  parallel.jobs = 4;
  const auto a = explore_small("hal", serial);
  const auto b = explore_small("hal", parallel);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].label, b.points[i].label);
    EXPECT_EQ(a.points[i].power.total, b.points[i].power.total);
    EXPECT_EQ(a.points[i].power_stddev, b.points[i].power_stddev);
    EXPECT_EQ(a.points[i].power_ci95, b.points[i].power_ci95);
    EXPECT_EQ(a.points[i].area.total, b.points[i].area.total);
  }
}

TEST(ExplorerTest, SlicedSweepReportsSpread) {
  ExplorerConfig cfg;
  cfg.streams = 16;
  const auto r = explore_small("biquad", cfg);
  ASSERT_FALSE(r.points.empty());
  for (const auto& p : r.points) {
    // Independent stimulus streams produce genuinely different activity, so
    // a real spread; ci95 is tied to stddev by the fixed-n formula.
    EXPECT_GT(p.power_stddev, 0.0) << p.label;
    EXPECT_NEAR(p.power_ci95, 1.96 * p.power_stddev / std::sqrt(16.0),
                1e-12 * p.power_stddev)
        << p.label;
    EXPECT_GT(p.power.total, 0.0) << p.label;
  }
}

TEST(ExplorerTest, EnumeratedConfigurationsHaveDistinctHashes) {
  // explore() evaluates every configuration it is given, so the built-in
  // enumeration must never list one design twice.
  for (int max_clocks = 1; max_clocks <= 16; ++max_clocks) {
    for (int flags = 0; flags < 8; ++flags) {
      ExplorerConfig cfg;
      cfg.max_clocks = max_clocks;
      cfg.include_conventional = (flags & 1) != 0;
      cfg.include_split = (flags & 2) != 0;
      cfg.include_dff_variant = (flags & 4) != 0;
      const auto configs = enumerate_configurations(cfg);
      std::map<std::uint64_t, std::string> seen;
      for (const auto& [opts, label] : configs) {
        const auto [it, fresh] = seen.emplace(config_hash(opts), label);
        EXPECT_TRUE(fresh) << "max_clocks " << max_clocks << " flags "
                           << flags << ": '" << label << "' repeats '"
                           << it->second << "'";
      }
      EXPECT_EQ(seen.size(), configs.size());
    }
  }
}

TEST(ExplorerTest, DffVariantIncludedOnDemand) {
  ExplorerConfig cfg;
  cfg.max_clocks = 2;
  cfg.include_dff_variant = true;
  const auto r = explore_small("facet", cfg);
  const bool any_dff = std::any_of(
      r.points.begin(), r.points.end(), [](const ExplorationPoint& p) {
        return p.label.find("dff") != std::string::npos;
      });
  EXPECT_TRUE(any_dff);
}

TEST(ReportTest, CsvHasHeaderAndRows) {
  const auto r = explore_small("facet");
  std::vector<power::ExperimentRecord> recs;
  for (const auto& p : r.points) {
    power::ExperimentRecord rec;
    rec.experiment = "explorer_facet";
    rec.design = p.label;
    rec.benchmark = "facet";
    rec.width = 4;
    rec.computations = 300;
    rec.power = p.power;
    rec.area = p.area;
    rec.stats = p.stats;
    recs.push_back(rec);
  }
  const std::string csv = power::to_csv(recs);
  // Header + one line per record.
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, static_cast<long>(recs.size()) + 1);
  EXPECT_NE(csv.find("power_total_mw"), std::string::npos);
  EXPECT_NE(csv.find("explorer_facet"), std::string::npos);
}

TEST(ReportTest, CsvEscapesCommas) {
  power::ExperimentRecord rec;
  rec.experiment = "e";
  rec.design = "a,b";
  rec.stats.alu_summary = "1(+), 2(*)";
  const std::string csv = power::to_csv({rec});
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"1(+), 2(*)\""), std::string::npos);
}

TEST(ReportTest, JsonIsStructurallySane) {
  power::ExperimentRecord rec;
  rec.experiment = "exp";
  rec.design = "3 Clocks";
  rec.benchmark = "hal";
  rec.power.total = 3.5;
  const std::string js = power::to_json({rec, rec});
  EXPECT_EQ(js.front(), '[');
  EXPECT_EQ(std::count(js.begin(), js.end(), '{'),
            std::count(js.begin(), js.end(), '}'));
  EXPECT_NE(js.find("\"power_mw\""), std::string::npos);
  EXPECT_NE(js.find("3.500000"), std::string::npos);
}

TEST(ReportTest, JsonEscapesSpecials) {
  power::ExperimentRecord rec;
  rec.design = "quote\" back\\slash\nnewline";
  const std::string js = power::to_json({rec});
  EXPECT_NE(js.find("quote\\\""), std::string::npos);
  EXPECT_NE(js.find("back\\\\slash"), std::string::npos);
  EXPECT_NE(js.find("\\n"), std::string::npos);
}

}  // namespace
}  // namespace mcrtl::core
