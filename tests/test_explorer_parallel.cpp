// The parallel explorer's determinism contract: explore() must return a
// bit-identical ExplorationResult for every jobs value, and a failure on a
// worker thread must surface as the same documented exception a serial run
// throws — never be swallowed by the pool.
#include <gtest/gtest.h>

#include <atomic>

#include "core/explorer.hpp"
#include "power/estimator.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mcrtl::core {
namespace {

ExplorerConfig base_config(int jobs) {
  ExplorerConfig cfg;
  cfg.max_clocks = 4;
  cfg.include_dff_variant = true;
  cfg.computations = 250;
  cfg.seed = 77;
  cfg.jobs = jobs;
  return cfg;
}

// Bit-identical comparison of everything a caller can observe, including
// the sorted order.
void expect_identical(const ExplorationResult& a, const ExplorationResult& b,
                      const char* what) {
  ASSERT_EQ(a.points.size(), b.points.size()) << what;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& p = a.points[i];
    const auto& q = b.points[i];
    EXPECT_EQ(p.label, q.label) << what << " point " << i;
    EXPECT_EQ(p.pareto, q.pareto) << what << " point " << i;
    // Exact equality on purpose: the contract is bit-identical, not close.
    EXPECT_EQ(p.power.total, q.power.total) << what << " point " << i;
    EXPECT_EQ(p.power.combinational, q.power.combinational)
        << what << " point " << i;
    EXPECT_EQ(p.power.storage, q.power.storage) << what << " point " << i;
    EXPECT_EQ(p.power.clock_tree, q.power.clock_tree)
        << what << " point " << i;
    EXPECT_EQ(p.area.total, q.area.total) << what << " point " << i;
    EXPECT_EQ(p.stats.num_memory_cells, q.stats.num_memory_cells)
        << what << " point " << i;
    EXPECT_EQ(p.stats.num_muxes, q.stats.num_muxes) << what << " point " << i;
    EXPECT_EQ(p.options.num_clocks, q.options.num_clocks)
        << what << " point " << i;
    EXPECT_EQ(p.options.use_latches, q.options.use_latches)
        << what << " point " << i;
    EXPECT_EQ(p.hotspot, q.hotspot) << what << " point " << i;
    EXPECT_EQ(p.hotspot_share, q.hotspot_share) << what << " point " << i;
    EXPECT_EQ(p.crest, q.crest) << what << " point " << i;
  }
}

TEST(ExplorerParallelTest, JobsCountDoesNotChangeTheResult) {
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    const auto serial = explore(*b.graph, *b.schedule, base_config(1));
    const auto two = explore(*b.graph, *b.schedule, base_config(2));
    const auto eight = explore(*b.graph, *b.schedule, base_config(8));
    expect_identical(serial, two, name);
    expect_identical(serial, eight, name);
  }
  // A Monte-Carlo bundle prepares its streams on the pool as well. Both
  // sizes count into vertical counters: 8 streams run time-sliced with
  // per-group probe rows, 64 in the lockstep layout with aggregate rows.
  const auto b = suite::by_name("hal", 4);
  for (const std::size_t streams : {8u, 64u}) {
    auto bundle_config = [&](int jobs) {
      ExplorerConfig cfg = base_config(jobs);
      cfg.streams = streams;
      return cfg;
    };
    const std::string what = "hal, " + std::to_string(streams) + " streams";
    const auto serial = explore(*b.graph, *b.schedule, bundle_config(1));
    for (const int jobs : {2, 8}) {
      const auto pooled = explore(*b.graph, *b.schedule, bundle_config(jobs));
      expect_identical(serial, pooled, what.c_str());
      ASSERT_EQ(serial.points.size(), pooled.points.size());
      for (std::size_t i = 0; i < serial.points.size(); ++i) {
        EXPECT_EQ(serial.points[i].power_stddev, pooled.points[i].power_stddev)
            << what << " jobs " << jobs << " point " << i;
        EXPECT_EQ(serial.points[i].power_ci95, pooled.points[i].power_ci95)
            << what << " jobs " << jobs << " point " << i;
      }
    }
  }
}

TEST(ExplorerParallelTest, AutoJobsMatchesSerial) {
  const auto b = suite::by_name("biquad", 4);
  const auto serial = explore(*b.graph, *b.schedule, base_config(1));
  const auto autod = explore(*b.graph, *b.schedule, base_config(0));
  expect_identical(serial, autod, "biquad auto-jobs");
}

TEST(ExplorerParallelTest, OnPointHookSeesEveryConfiguration) {
  const auto b = suite::by_name("facet", 4);
  auto cfg = base_config(4);
  std::atomic<std::size_t> seen{0};
  cfg.on_point = [&](const ExplorationPoint&) { seen += 1; };
  const auto r = explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(seen.load(), r.points.size());
}

TEST(ExplorerParallelTest, SinglePassExploreMatchesTwoPassReference) {
  // explore() simulates each point once, time-sliced on the bit-sliced
  // kernel, and feeds the equivalence check and the power model from the
  // same run. This differential pins the behaviour to the original recipe
  // on the scalar kernel: synthesize, simulate the whole stream, verify
  // against the interpreter, estimate power — every point value must be
  // bit-identical to the explored one.
  const auto b = suite::by_name("facet", 4);
  const auto cfg = base_config(1);
  const auto explored = explore(*b.graph, *b.schedule, cfg);

  Rng rng(cfg.seed);
  const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(),
                                          cfg.computations, b.graph->width());
  const auto tech = power::TechLibrary::cmos08();
  const auto configs = enumerate_configurations(cfg);
  ASSERT_EQ(configs.size(), explored.points.size());
  for (const auto& [opts, label] : configs) {
    const auto syn = synthesize(*b.graph, *b.schedule, opts);
    sim::Simulator simulator(*syn.design);
    const auto res = simulator.run(stream, b.graph->inputs(), b.graph->outputs());
    const auto rep = sim::check_outputs(*b.graph, stream, res.outputs,
                                        syn.design->style_name);
    ASSERT_TRUE(rep.equivalent) << label << ": " << rep.detail;
    const auto power =
        power::estimate_power(*syn.design, res.activity, tech, cfg.power_params);
    const auto area = power::estimate_area(*syn.design, tech);
    bool found = false;
    for (const auto& p : explored.points) {
      if (p.label != label) continue;
      found = true;
      EXPECT_EQ(p.power.total, power.total) << label;
      EXPECT_EQ(p.power.combinational, power.combinational) << label;
      EXPECT_EQ(p.power.storage, power.storage) << label;
      EXPECT_EQ(p.power.clock_tree, power.clock_tree) << label;
      EXPECT_EQ(p.area.total, area.total) << label;
    }
    EXPECT_TRUE(found) << label;
  }
}

TEST(ExplorerParallelTest, WorkerExceptionPropagatesOutOfExplore) {
  // A failing evaluation on a worker thread must abort explore() with the
  // original mcrtl::Error, exactly like the serial path — the pool is not
  // allowed to swallow it. The on_point hook shares the evaluation path's
  // exception handling, so throwing from it exercises the same channel an
  // equivalence mismatch would use.
  const auto b = suite::by_name("facet", 4);
  for (int jobs : {1, 2, 8}) {
    auto cfg = base_config(jobs);
    cfg.on_point = [](const ExplorationPoint& p) {
      if (p.options.style == DesignStyle::ConventionalGated) {
        throw Error("injected failure: " + p.label);
      }
    };
    try {
      explore(*b.graph, *b.schedule, cfg);
      FAIL() << "explore() should have propagated the worker exception, jobs="
             << jobs;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("injected failure"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ExplorerParallelTest, EarliestFailingConfigurationWins) {
  // When several workers fail, the reported error must be the earliest
  // configuration in enumeration order (what a serial run reports first) —
  // not whichever worker happened to finish last.
  const auto b = suite::by_name("facet", 4);
  auto cfg = base_config(8);
  cfg.on_point = [](const ExplorationPoint& p) {
    throw Error("failed: " + p.label);
  };
  try {
    explore(*b.graph, *b.schedule, cfg);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    // The first enumerated configuration is the non-gated conventional one.
    EXPECT_NE(std::string(e.what()).find("Non-Gated"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mcrtl::core
