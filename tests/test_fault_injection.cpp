// Fault-injection layer (util/fault_injection.hpp) and the explorer's
// fault-isolation machinery it exists to exercise.
//
// The contract under test, in order of importance:
//   1. Zero cost when disabled: a full pipeline run with injection off
//      leaves the Injector's registry completely empty (mirrors the obs::
//      contract).
//   2. Every registered site is actually reachable from the public API —
//      a site nobody hits is a robustness test that silently tests nothing.
//   3. Injected failures follow the real failure paths: retries recover
//      transient faults bit-identically, exhausted faults land in
//      ExplorationResult::failed_points under quarantine, and nothing ever
//      aborts the sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/explorer.hpp"
#include "suite/benchmarks.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

using namespace mcrtl;

namespace {

/// Every test starts from a clean, disabled injector and leaves it that way
/// (the injector is process-global).
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::set_enabled(false);
    fault::Injector::instance().reset();
  }
  void TearDown() override {
    fault::set_enabled(false);
    fault::Injector::instance().reset();
  }
};

core::ExplorerConfig small_config() {
  core::ExplorerConfig cfg;
  cfg.max_clocks = 3;
  cfg.computations = 120;
  cfg.jobs = 1;
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
  }
}

/// RAII temp file path (the journal tests need a writable scratch file).
struct TempPath {
  std::string path;
  explicit TempPath(const char* name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

}  // namespace

TEST_F(FaultInjectionTest, DisabledRunLeavesRegistryEmpty) {
  ASSERT_FALSE(fault::enabled());
  // Arming while disabled stages the spec but must not create hit entries.
  fault::Injector::instance().arm("sim.run", {});
  const auto b = suite::by_name("facet", 4);
  TempPath journal("fi_disabled.journal");
  auto cfg = small_config();
  cfg.checkpoint_file = journal.path;
  const auto r = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_FALSE(r.points.empty());
  ThreadPool pool(2);
  pool.parallel_for_index(4, [](std::size_t) {});
  EXPECT_TRUE(fault::Injector::instance().sites().empty());
}

TEST_F(FaultInjectionTest, EverySiteIsReachable) {
  fault::set_enabled(true);  // observe-only: no site is armed to fail
  const auto b = suite::by_name("facet", 4);
  TempPath journal("fi_reach.journal");
  auto cfg = small_config();
  cfg.include_split = true;  // covers alloc.split alongside alloc.integrated
  cfg.checkpoint_file = journal.path;
  core::explore(*b.graph, *b.schedule, cfg);
  // explore() never builds a pool for jobs = 1; drive the site directly
  // (ThreadPool's serial fallbacks skip the task wrapper, so this needs
  // real workers and more than one task).
  ThreadPool pool(2);
  pool.parallel_for_index(4, [](std::size_t) {});
  auto& inj = fault::Injector::instance();
  for (const char* site : fault::Injector::known_sites()) {
    EXPECT_GT(inj.hits(site), 0u) << "unreached injection site: " << site;
  }
}

TEST_F(FaultInjectionTest, TransientFaultRetriesToIdenticalResult) {
  const auto b = suite::by_name("facet", 4);
  const auto baseline = core::explore(*b.graph, *b.schedule, small_config());

  fault::set_enabled(true);
  // One transient failure at each pipeline stage; two retries available.
  for (const char* site : {"explore.point", "sim.run", "rtl.build"}) {
    fault::Injector::instance().reset();
    fault::ArmSpec spec;
    spec.mode = fault::ArmSpec::Mode::FirstK;
    spec.k = 1;
    fault::Injector::instance().arm(site, spec);
    auto cfg = small_config();
    cfg.max_retries = 2;
    const auto r = core::explore(*b.graph, *b.schedule, cfg);
    EXPECT_TRUE(r.failed_points.empty()) << site;
    expect_identical(baseline, r);
  }
}

TEST_F(FaultInjectionTest, ExhaustedFaultIsQuarantinedNotFatal) {
  const auto b = suite::by_name("facet", 4);
  const std::size_t total = core::num_configurations(small_config());
  fault::set_enabled(true);
  for (const char* site :
       {"explore.point", "sim.run", "rtl.build", "alloc.integrated"}) {
    fault::Injector::instance().reset();
    fault::ArmSpec spec;
    spec.mode = fault::ArmSpec::Mode::Always;
    fault::Injector::instance().arm(site, spec);
    auto cfg = small_config();
    cfg.max_retries = 1;
    cfg.quarantine = true;
    core::ExplorationResult r;
    ASSERT_NO_THROW(r = core::explore(*b.graph, *b.schedule, cfg)) << site;
    EXPECT_FALSE(r.failed_points.empty()) << site;
    EXPECT_EQ(r.points.size() + r.failed_points.size(), total) << site;
    for (const auto& f : r.failed_points) {
      EXPECT_EQ(f.attempts, 2) << site;
      EXPECT_NE(f.error.find("injected fault"), std::string::npos) << site;
    }
  }
}

TEST_F(FaultInjectionTest, WithoutQuarantineTheFaultPropagates) {
  const auto b = suite::by_name("facet", 4);
  fault::set_enabled(true);
  fault::ArmSpec spec;
  spec.mode = fault::ArmSpec::Mode::Always;
  fault::Injector::instance().arm("explore.point", spec);
  EXPECT_THROW(core::explore(*b.graph, *b.schedule, small_config()),
               fault::InjectedFault);
}

TEST_F(FaultInjectionTest, MatchFilterQuarantinesOnlyThatConfiguration) {
  const auto b = suite::by_name("facet", 4);
  const auto baseline = core::explore(*b.graph, *b.schedule, small_config());

  fault::set_enabled(true);
  const std::string victim = "2 clk / split / latch";
  ASSERT_TRUE(
      fault::arm_from_spec("explore.point:always:match=" + victim));
  auto cfg = small_config();
  cfg.quarantine = true;
  const auto r = core::explore(*b.graph, *b.schedule, cfg);
  ASSERT_EQ(r.failed_points.size(), 1u);
  EXPECT_EQ(r.failed_points[0].label, victim);
  ASSERT_EQ(r.points.size(), baseline.points.size() - 1);
  // Every surviving point matches the baseline measurement exactly.
  for (const auto& p : r.points) {
    const auto it = std::find_if(
        baseline.points.begin(), baseline.points.end(),
        [&](const core::ExplorationPoint& q) { return q.label == p.label; });
    ASSERT_NE(it, baseline.points.end()) << p.label;
    EXPECT_EQ(it->power.total, p.power.total) << p.label;
    EXPECT_EQ(it->area.total, p.area.total) << p.label;
  }
}

TEST_F(FaultInjectionTest, PoolTaskFaultDegradesToInlineCompletion) {
  const auto b = suite::by_name("facet", 4);
  const auto baseline = core::explore(*b.graph, *b.schedule, small_config());

  fault::set_enabled(true);
  fault::ArmSpec spec;
  spec.mode = fault::ArmSpec::Mode::Always;
  fault::Injector::instance().arm("pool.task", spec);
  auto cfg = small_config();
  cfg.jobs = 8;  // clamped to the core count; serial on a 1-core host
  cfg.quarantine = true;
  // A task-level fault means the evaluation never ran — it is *not* a bad
  // design point, so explore() re-runs the un-executed slots inline and
  // the sweep still produces the complete, identical result.
  const auto r = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_TRUE(r.failed_points.empty());
  expect_identical(baseline, r);
}

TEST_F(FaultInjectionTest, PoolTaskFaultInTheStreamPreambleDegradesInline) {
  // A Monte-Carlo sweep prepares its streams (stimulus, golden outputs) as
  // pool tasks before the points. A task the pool never ran must be
  // prepared inline, like a point, and the sweep must match a serial one.
  const auto b = suite::by_name("facet", 4);
  auto base = small_config();
  base.streams = 8;
  const auto baseline = core::explore(*b.graph, *b.schedule, base);

  fault::set_enabled(true);
  fault::ArmSpec spec;
  spec.mode = fault::ArmSpec::Mode::Always;
  fault::Injector::instance().arm("pool.task", spec);
  auto cfg = base;
  cfg.jobs = 4;  // clamped to the core count; serial on a 1-core host
  cfg.quarantine = true;
  const auto r = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_TRUE(r.failed_points.empty());
  expect_identical(baseline, r);
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    EXPECT_EQ(baseline.points[i].power_stddev, r.points[i].power_stddev);
    EXPECT_EQ(baseline.points[i].power_ci95, r.points[i].power_ci95);
  }
}

TEST_F(FaultInjectionTest, ProbabilityModeIsDeterministic) {
  const auto b = suite::by_name("facet", 4);
  fault::set_enabled(true);
  auto run = [&] {
    fault::Injector::instance().reset();
    EXPECT_TRUE(fault::arm_from_spec("explore.point:p:0.5:42"));
    auto cfg = small_config();
    cfg.quarantine = true;
    return core::explore(*b.graph, *b.schedule, cfg);
  };
  core::ExplorationResult a, b1;
  { SCOPED_TRACE("first"); a = run(); }
  { SCOPED_TRACE("second"); b1 = run(); }
  ASSERT_EQ(a.failed_points.size(), b1.failed_points.size());
  for (std::size_t i = 0; i < a.failed_points.size(); ++i) {
    EXPECT_EQ(a.failed_points[i].label, b1.failed_points[i].label);
  }
}

TEST_F(FaultInjectionTest, ArmFromSpecParsesAndValidates) {
  EXPECT_TRUE(fault::arm_from_spec("sim.run:always"));
  EXPECT_TRUE(fault::arm_from_spec("rtl.build:first:3"));
  EXPECT_TRUE(fault::arm_from_spec("journal.append:p:0.25"));
  EXPECT_TRUE(fault::arm_from_spec("journal.load:p:0.25:7"));
  EXPECT_TRUE(fault::arm_from_spec("explore.point:observe"));
  EXPECT_TRUE(fault::arm_from_spec("explore.point:always:match=2 clk"));

  EXPECT_FALSE(fault::arm_from_spec(""));
  EXPECT_FALSE(fault::arm_from_spec("sim.run"));
  EXPECT_FALSE(fault::arm_from_spec("no.such.site:always"));
  EXPECT_FALSE(fault::arm_from_spec("sim.run:bogus"));
  EXPECT_FALSE(fault::arm_from_spec("sim.run:first:notanumber"));
  EXPECT_FALSE(fault::arm_from_spec("sim.run:p:1.5"));
}

TEST_F(FaultInjectionTest, HitCountsAndResetBehave) {
  fault::set_enabled(true);
  fault::inject("sim.run", "detail");
  fault::inject("sim.run");
  fault::inject("rtl.build");
  auto& inj = fault::Injector::instance();
  EXPECT_EQ(inj.hits("sim.run"), 2u);
  EXPECT_EQ(inj.hits("rtl.build"), 1u);
  EXPECT_EQ(inj.hits("never.hit"), 0u);
  EXPECT_EQ(inj.sites().size(), 2u);
  inj.reset();
  EXPECT_TRUE(inj.sites().empty());
  EXPECT_EQ(inj.hits("sim.run"), 0u);
}
