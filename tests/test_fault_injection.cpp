// Fault-injection layer (util/fault_injection.hpp) and the explorer's
// fault-isolation machinery it exists to exercise.
//
// The contract under test, in order of importance:
//   1. Zero cost when disabled: a full pipeline run with injection off
//      leaves the Injector's registry completely empty (mirrors the obs::
//      contract).
//   2. Every registered site is actually reachable from the public API —
//      a site nobody hits is a robustness test that silently tests nothing.
//   3. Injected failures follow the real failure paths: a failing point
//      lands in ExplorationResult::failed_points under quarantine, journal
//      I/O faults cost the journal but never the sweep's result, and
//      nothing ever aborts the sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/explorer.hpp"
#include "suite/benchmarks.hpp"
#include "util/fault_injection.hpp"

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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

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
  auto& inj = fault::Injector::instance();
  for (const char* site : fault::Injector::known_sites()) {
    EXPECT_GT(inj.hits(site), 0u) << "unreached injection site: " << site;
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
    cfg.quarantine = true;
    core::ExplorationResult r;
    ASSERT_NO_THROW(r = core::explore(*b.graph, *b.schedule, cfg)) << site;
    EXPECT_FALSE(r.failed_points.empty()) << site;
    EXPECT_EQ(r.points.size() + r.failed_points.size(), total) << site;
    for (const auto& f : r.failed_points) {
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

TEST_F(FaultInjectionTest, JournalFaultsCostTheJournalNeverTheResult) {
  const auto b = suite::by_name("facet", 4);
  const auto baseline = core::explore(*b.graph, *b.schedule, small_config());
  auto& inj = fault::Injector::instance();
  auto sweep = [&](const std::string& journal, const char* spec) {
    inj.reset();
    fault::set_enabled(spec != nullptr);
    if (spec) {
      EXPECT_TRUE(fault::arm_from_spec(spec)) << spec;
    }
    auto cfg = small_config();
    cfg.checkpoint_file = journal;
    const auto r = core::explore(*b.graph, *b.schedule, cfg);
    expect_identical(baseline, r);
    return r;
  };
  {
    // One failed write is absorbed by the append's own retry: every point
    // still reaches the journal.
    SCOPED_TRACE("journal.append:first:1");
    TempPath journal("fi_append_once.journal");
    EXPECT_EQ(sweep(journal.path, "journal.append:first:1").replayed_points,
              0u);
    EXPECT_EQ(inj.hits("journal.append"), baseline.points.size() + 1);
    EXPECT_EQ(sweep(journal.path, nullptr).replayed_points,
              baseline.points.size());
  }
  {
    // A write that fails on the retry too stops journaling for the rest of
    // the sweep, which still completes: the re-run has nothing to replay.
    SCOPED_TRACE("journal.append:always");
    TempPath journal("fi_append_always.journal");
    sweep(journal.path, "journal.append:always");
    EXPECT_EQ(inj.hits("journal.append"), 2u);
    EXPECT_EQ(sweep(journal.path, nullptr).replayed_points, 0u);
  }
  {
    // An unreadable journal falls back to a fresh sweep, even when the
    // file on disk is valid. That sweep journals nothing: the file keeps
    // its bytes, and the next run replays every point from it.
    SCOPED_TRACE("journal.load:always");
    TempPath journal("fi_load_always.journal");
    sweep(journal.path, nullptr);
    const std::string before = slurp(journal.path);
    EXPECT_EQ(sweep(journal.path, "journal.load:always").replayed_points, 0u);
    EXPECT_EQ(inj.hits("journal.load"), 1u);
    EXPECT_EQ(slurp(journal.path), before);
    EXPECT_EQ(sweep(journal.path, nullptr).replayed_points,
              baseline.points.size());
  }
}

TEST_F(FaultInjectionTest, ArmFromSpecParsesAndValidates) {
  EXPECT_TRUE(fault::arm_from_spec("sim.run:always"));
  EXPECT_TRUE(fault::arm_from_spec("rtl.build:first:3"));
  EXPECT_TRUE(fault::arm_from_spec("journal.append:first:18446744073709551615"));
  EXPECT_TRUE(fault::arm_from_spec("journal.load:first:1:match=x"));
  EXPECT_TRUE(fault::arm_from_spec("explore.point:observe"));
  EXPECT_TRUE(fault::arm_from_spec("explore.point:always:match=2 clk"));

  EXPECT_FALSE(fault::arm_from_spec(""));
  EXPECT_FALSE(fault::arm_from_spec("sim.run"));
  EXPECT_FALSE(fault::arm_from_spec("no.such.site:always"));
  EXPECT_FALSE(fault::arm_from_spec("sim.run:bogus"));
  EXPECT_FALSE(fault::arm_from_spec("sim.run:first:notanumber"));
  EXPECT_FALSE(fault::arm_from_spec("sim.run:first:3x"));
  EXPECT_FALSE(fault::arm_from_spec("sim.run:first:-1"));
  EXPECT_FALSE(fault::arm_from_spec("sim.run:first:0"));
  EXPECT_FALSE(fault::arm_from_spec("sim.run:first:18446744073709551616"));
  EXPECT_FALSE(fault::arm_from_spec("sim.run:first:"));
  EXPECT_FALSE(fault::arm_from_spec("sim.run:p:0.5"));
  EXPECT_FALSE(fault::arm_from_spec("pool.task:always"));
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
