// Observability layer: span/counter collection, sink formats, the
// zero-output disabled path, and — most importantly — the determinism
// contract: collection must never perturb synthesis or exploration
// results.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "core/explorer.hpp"
#include "core/synthesizer.hpp"
#include "json_lite.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/thread_pool.hpp"

using namespace mcrtl;

namespace {

/// Every test starts from a clean, disabled registry and leaves it that way
/// (the registry is process-global).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::Registry::instance().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Registry::instance().reset();
  }
};

core::ExplorerConfig small_config(int jobs) {
  core::ExplorerConfig cfg;
  cfg.max_clocks = 3;
  cfg.computations = 120;
  cfg.jobs = jobs;
  return cfg;
}

void expect_identical(const core::ExplorationResult& a,
                      const core::ExplorationResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].label, b.points[i].label);
    EXPECT_EQ(a.points[i].pareto, b.points[i].pareto);
    EXPECT_EQ(a.points[i].power.total, b.points[i].power.total);
    EXPECT_EQ(a.points[i].area.total, b.points[i].area.total);
    EXPECT_EQ(a.points[i].stats.num_memory_cells,
              b.points[i].stats.num_memory_cells);
    EXPECT_EQ(a.points[i].hotspot, b.points[i].hotspot);
    EXPECT_EQ(a.points[i].hotspot_share, b.points[i].hotspot_share);
    EXPECT_EQ(a.points[i].crest, b.points[i].crest);
  }
}

}  // namespace

TEST_F(ObsTest, DisabledCountersAndGaugesAreIgnored) {
  ASSERT_FALSE(obs::enabled());
  obs::count("some.counter", 5);
  obs::set_gauge("some.gauge", 1.5);
  EXPECT_TRUE(obs::Registry::instance().counters().empty());
  EXPECT_TRUE(obs::Registry::instance().gauges().empty());

  obs::set_enabled(true);
  obs::count("some.counter", 5);
  obs::count("some.counter", 2);
  obs::set_gauge("some.gauge", 1.5);
  obs::set_gauge("some.gauge", 2.5);
  const auto counters = obs::Registry::instance().counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "some.counter");
  EXPECT_EQ(counters[0].second, 7u);
  const auto gauges = obs::Registry::instance().gauges();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges[0].second, 2.5);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  { obs::Span span("quiet"); }
  EXPECT_EQ(obs::Registry::instance().num_spans(), 0u);
  obs::set_enabled(true);
  { obs::Span span("loud"); }
  EXPECT_EQ(obs::Registry::instance().num_spans(), 1u);
}

// The full pipeline with collection off must leave the registry completely
// empty: no spans, no counters, no gauges — the disabled sink is a no-op,
// not a low-volume one.
TEST_F(ObsTest, DisabledPipelineLeavesRegistryEmpty) {
  const auto b = suite::by_name("facet", 4);
  const auto r = core::explore(*b.graph, *b.schedule, small_config(2));
  EXPECT_GT(r.points.size(), 0u);
  EXPECT_EQ(obs::Registry::instance().num_spans(), 0u);
  EXPECT_TRUE(obs::Registry::instance().counters().empty());
  EXPECT_TRUE(obs::Registry::instance().gauges().empty());
  EXPECT_TRUE(obs::Registry::instance().histograms().empty());
  EXPECT_TRUE(obs::Registry::instance().counter_tracks().empty());
  EXPECT_EQ(obs::Registry::instance().summary(), "");
}

TEST_F(ObsTest, SpanStatsAggregateByName) {
  obs::set_enabled(true);
  obs::Registry::instance().record_span({"phase.a", 0, 2'000'000, 0});
  obs::Registry::instance().record_span({"phase.a", 10, 4'000'000, 1});
  obs::Registry::instance().record_span({"phase.b", 20, 1'000'000, 0});
  const auto stats = obs::Registry::instance().span_stats();
  ASSERT_EQ(stats.size(), 2u);
  // Sorted heaviest-first: phase.a (6ms) before phase.b (1ms).
  EXPECT_EQ(stats[0].name, "phase.a");
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_DOUBLE_EQ(stats[0].total_ms, 6.0);
  EXPECT_DOUBLE_EQ(stats[0].min_ms, 2.0);
  EXPECT_DOUBLE_EQ(stats[0].max_ms, 4.0);
  EXPECT_EQ(stats[1].name, "phase.b");

  const auto lanes = obs::Registry::instance().lane_stats();
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes[0].lane, 0);
  EXPECT_EQ(lanes[0].spans, 2u);
  // phase.b [20ns, 1ms+20ns) lies inside phase.a [0, 2ms): busy time is
  // the union of the intervals, not the 3ms sum of the durations.
  EXPECT_DOUBLE_EQ(lanes[0].busy_ms, 2.0);
  EXPECT_EQ(lanes[1].lane, 1);
  EXPECT_DOUBLE_EQ(lanes[1].busy_ms, 4.0);

  const auto summary = obs::Registry::instance().summary();
  EXPECT_NE(summary.find("phase.a"), std::string::npos);
  EXPECT_NE(summary.find("worker-0"), std::string::npos);
}

// `mcrtl explore --jobs 2` with tracing reports explore.worker<k>.utilization
// as the worker lane's busy time over the explore wall clock. Nested spans
// (explore.point > sim.run > ...) must not be double-counted: every
// utilization stays <= 1.
TEST_F(ObsTest, WorkerUtilizationNeverExceedsOne) {
  if (ThreadPool::resolve_jobs(2) < 2) GTEST_SKIP() << "single-core host";
  obs::set_enabled(true);
  const auto b = suite::by_name("biquad", 4);
  const auto t0 = std::chrono::steady_clock::now();
  core::explore(*b.graph, *b.schedule, small_config(2));
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  std::size_t workers = 0;
  for (const auto& lane : obs::Registry::instance().lane_stats()) {
    if (lane.lane == 0) continue;
    ++workers;
    EXPECT_GT(lane.busy_ms, 0.0) << "worker-" << lane.lane - 1;
    EXPECT_LE(lane.busy_ms / elapsed_ms, 1.0) << "worker-" << lane.lane - 1;
  }
  EXPECT_GE(workers, 1u);
}

// An instrumented parallel exploration must produce valid Chrome
// trace-event JSON covering the pipeline phases, with per-worker lanes.
TEST_F(ObsTest, ChromeTraceCoversPipelinePhasesAndWorkerLanes) {
  obs::set_enabled(true);
  const auto b = suite::by_name("facet", 4);
  core::explore(*b.graph, *b.schedule, small_config(2));

  const auto json = obs::Registry::instance().chrome_trace_json();
  const auto root = jsonlite::parse(json);
  ASSERT_EQ(root.kind, jsonlite::Value::Kind::Object);
  const auto& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, jsonlite::Value::Kind::Array);

  std::set<std::string> names;
  std::set<double> span_lanes;
  std::set<std::string> lane_names;
  for (const auto& e : events.array) {
    const std::string ph = e.at("ph").str;
    if (ph == "M") {
      lane_names.insert(e.at("args").at("name").str);
      continue;
    }
    ASSERT_EQ(ph, "X");
    EXPECT_GE(e.at("dur").number, 0.0);
    EXPECT_GE(e.at("ts").number, 0.0);
    names.insert(e.at("name").str);
    span_lanes.insert(e.at("tid").number);
  }
  // Spans from >= 4 distinct pipeline phases.
  const std::set<std::string> pipeline{
      "core.synthesize",  "core.partition",    "alloc.integrated",
      "alloc.split",      "alloc.storage_binding", "alloc.fu_binding",
      "rtl.build_design", "sim.equivalence",   "sim.run",
      "explore.point",    "explore.sort",      "explore"};
  std::size_t covered = 0;
  for (const auto& n : names) covered += pipeline.count(n);
  EXPECT_GE(covered, 4u) << "phases seen: " << names.size();
  // Per-worker lanes: with jobs=2 every point runs on a pool worker, so
  // worker lanes (tid >= 1) must appear, named in the metadata. On a
  // single-core host resolve_jobs clamps to 1 and exploration runs
  // serially on the main lane instead.
  if (ThreadPool::resolve_jobs(2) >= 2) {
    EXPECT_TRUE(span_lanes.count(1.0) || span_lanes.count(2.0));
    EXPECT_TRUE(lane_names.count("worker-0"));
  } else {
    EXPECT_TRUE(span_lanes.count(0.0));
  }
}

TEST_F(ObsTest, MetricsJsonIsValidAndCarriesPipelineCounters) {
  obs::set_enabled(true);
  const auto b = suite::by_name("hal", 4);
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = 3;
  core::synthesize(*b.graph, *b.schedule, opts);

  const auto root = jsonlite::parse(obs::Registry::instance().metrics_json());
  const auto& counters = root.at("counters");
  ASSERT_EQ(counters.kind, jsonlite::Value::Kind::Object);
  EXPECT_TRUE(counters.has("alloc.transfer_variables"));
  EXPECT_TRUE(counters.has("alloc.left_edge_registers_merged"));
  EXPECT_TRUE(counters.has("rtl.nets"));
  EXPECT_TRUE(counters.has("rtl.mux_inputs"));
  EXPECT_GT(counters.at("rtl.nets").number, 0.0);
  const auto& spans = root.at("spans");
  EXPECT_TRUE(spans.has("core.synthesize"));
  EXPECT_TRUE(spans.has("rtl.build_design"));
}

// The determinism contract of ISSUE 2: results are bit-identical with
// tracing on vs. off, for serial and parallel runs alike, on each of the
// paper's four benchmarks.
TEST_F(ObsTest, TracingDoesNotPerturbExplorationResults) {
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    SCOPED_TRACE(name);
    const auto b = suite::by_name(name, 4);

    ASSERT_FALSE(obs::enabled());
    const auto off_serial =
        core::explore(*b.graph, *b.schedule, small_config(1));
    const auto off_parallel =
        core::explore(*b.graph, *b.schedule, small_config(4));

    obs::set_enabled(true);
    const auto on_serial =
        core::explore(*b.graph, *b.schedule, small_config(1));
    const auto on_parallel =
        core::explore(*b.graph, *b.schedule, small_config(4));
    obs::set_enabled(false);

    expect_identical(off_serial, off_parallel);
    expect_identical(off_serial, on_serial);
    expect_identical(off_serial, on_parallel);
  }
  EXPECT_GT(obs::Registry::instance().num_spans(), 0u);
}

// The per-partition heatmap must expose the paper's signature: storage of
// phase p only ever captures in steps of its own duty cycle — exactly one
// DPM's memory elements switch per master cycle.
TEST_F(ObsTest, HeatmapShowsOneActiveDpmPerStep) {
  const auto b = suite::by_name("hal", 4);
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);

  Rng rng(7);
  const auto stream =
      sim::uniform_stream(rng, b.graph->inputs().size(), 200, 4);
  sim::Simulator simulator(*syn.design);
  sim::PhaseHeatmap hm;
  simulator.set_heatmap(&hm);
  simulator.run(stream, b.graph->inputs(), b.graph->outputs());

  ASSERT_EQ(hm.num_phases, 3);
  ASSERT_EQ(hm.period, syn.design->clocks.period());
  std::uint64_t total = 0;
  for (int p = 1; p <= hm.num_phases; ++p) {
    for (int t = 1; t <= hm.period; ++t) {
      const auto toggles = hm.write_toggles[hm.at(p, t)];
      const auto clocks = hm.clock_events[hm.at(p, t)];
      total += toggles;
      if (syn.design->clocks.phase_of_step(t) != p) {
        EXPECT_EQ(toggles, 0u) << "phase " << p << " toggled in step " << t;
        EXPECT_EQ(clocks, 0u) << "phase " << p << " clocked in step " << t;
      }
    }
    EXPECT_GT(hm.phase_total(p), 0u) << "phase " << p << " never switched";
  }
  EXPECT_GT(total, 0u);
  // Heatmap collection is opt-in and independent of obs::enabled().
  EXPECT_EQ(obs::Registry::instance().num_spans(), 0u);

  const auto rendered = sim::render_heatmap(hm);
  EXPECT_NE(rendered.find("phi1"), std::string::npos);
  EXPECT_NE(rendered.find("phi3"), std::string::npos);
}

TEST_F(ObsTest, HistogramBucketsAndPercentiles) {
  // bucket_of: log2 buckets, b=0 holds everything below 1 (and NaN).
  EXPECT_EQ(obs::HistogramStats::bucket_of(0.0), 0);
  EXPECT_EQ(obs::HistogramStats::bucket_of(0.5), 0);
  EXPECT_EQ(obs::HistogramStats::bucket_of(1.0), 1);
  EXPECT_EQ(obs::HistogramStats::bucket_of(1.9), 1);
  EXPECT_EQ(obs::HistogramStats::bucket_of(2.0), 2);
  EXPECT_EQ(obs::HistogramStats::bucket_of(1024.0), 11);
  EXPECT_EQ(obs::HistogramStats::bucket_of(1e300), 63);  // clamped
  EXPECT_EQ(obs::HistogramStats::bucket_of(std::ldexp(1.0, 62) * 1.5), 63);
  EXPECT_EQ(obs::HistogramStats::bucket_of(std::ldexp(1.0, 61)), 62);
  EXPECT_EQ(obs::HistogramStats::bucket_of(
                std::numeric_limits<double>::infinity()),
            63);
  EXPECT_EQ(obs::HistogramStats::bucket_of(
                std::numeric_limits<double>::quiet_NaN()),
            0);

  obs::set_enabled(true);
  // 90 small values and 10 large ones: pct50 lands in the small bucket,
  // pct99 in the large one.
  for (int i = 0; i < 90; ++i) obs::observe("lat", 3.0);
  for (int i = 0; i < 10; ++i) obs::observe("lat", 1000.0);
  const auto hists = obs::Registry::instance().histograms();
  ASSERT_EQ(hists.size(), 1u);
  const auto& h = hists[0];
  EXPECT_EQ(h.name, "lat");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.min, 3.0);
  EXPECT_DOUBLE_EQ(h.max, 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), (90 * 3.0 + 10 * 1000.0) / 100.0);
  // Percentiles are bucket upper edges clamped to [min, max]: <= 2x over.
  EXPECT_GE(h.pct(0.50), 3.0);
  EXPECT_LE(h.pct(0.50), 2 * 3.0);
  EXPECT_GE(h.pct(0.99), 1000.0 / 2);
  EXPECT_LE(h.pct(0.99), 1000.0);
  EXPECT_LE(h.pct(0.50), h.pct(0.90));
  EXPECT_LE(h.pct(0.90), h.pct(0.99));

  // The summary table and metrics JSON both carry the histogram.
  EXPECT_NE(obs::Registry::instance().summary().find("lat"),
            std::string::npos);
  const auto root = jsonlite::parse(obs::Registry::instance().metrics_json());
  EXPECT_EQ(root.at("histograms").at("lat").at("count").number, 100);
}

TEST_F(ObsTest, ObserveManyMatchesRepeatedObserve) {
  obs::set_enabled(true);
  // Two batches, so the second starts from the first one's min/max/sum.
  obs::observe_many("a", {5.0, 1.0, 9.0});
  obs::observe_many("a", {700.0, 3.0});
  for (const double v : {5.0, 1.0, 9.0, 700.0, 3.0}) obs::observe("b", v);
  const auto hists = obs::Registry::instance().histograms();
  ASSERT_EQ(hists.size(), 2u);
  EXPECT_EQ(hists[0].count, 5u);
  EXPECT_EQ(hists[0].count, hists[1].count);
  EXPECT_EQ(hists[0].sum, hists[1].sum);
  EXPECT_EQ(hists[0].min, 1.0);
  EXPECT_EQ(hists[0].max, 700.0);
  EXPECT_EQ(hists[0].min, hists[1].min);
  EXPECT_EQ(hists[0].max, hists[1].max);
  EXPECT_EQ(hists[0].buckets, hists[1].buckets);
}

TEST_F(ObsTest, CounterTracksLandInChromeTrace) {
  obs::set_enabled(true);
  obs::Registry::instance().counter_track("power.clk1",
                                          {{0.0, 10.5}, {1.0, 0.0}});
  const auto tracks = obs::Registry::instance().counter_tracks();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].name, "power.clk1");
  ASSERT_EQ(tracks[0].samples.size(), 2u);
  EXPECT_DOUBLE_EQ(tracks[0].samples[0].second, 10.5);

  // Chrome trace: counter events ride on the separate "simulated time"
  // process as ph:"C" events, and the whole file stays valid JSON.
  const auto trace = obs::Registry::instance().chrome_trace_json();
  EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(trace.find("simulated time"), std::string::npos);
  EXPECT_NE(trace.find("power.clk1"), std::string::npos);
  EXPECT_NO_THROW(jsonlite::parse(trace));
}
