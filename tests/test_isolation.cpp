// Tests for hold-mode operand isolation (§2.2 "extra logic to isolate
// ALUs" realized as per-operand holding latches).
#include <gtest/gtest.h>

#include "core/measure.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"

namespace mcrtl {
namespace {

TEST(IsolationTest, PreservesFunctionAcrossStylesAndBenchmarks) {
  for (const char* name : {"facet", "hal", "biquad", "ewf"}) {
    for (int n : {1, 3}) {
      const auto b = suite::by_name(name, 8);
      core::SynthesisOptions opts;
      opts.style = n == 1 ? core::DesignStyle::ConventionalGated
                          : core::DesignStyle::MultiClock;
      opts.num_clocks = n;
      opts.operand_isolation = true;
      const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
      Rng rng(3);
      const auto stream =
          sim::uniform_stream(rng, b.graph->inputs().size(), 100, 8);
      EXPECT_NO_THROW(core::measure(*syn.design, *b.graph,
                                    core::make_stimulus(*b.graph, {stream}),
                                    power::TechLibrary::cmos08()))
          << name << " n=" << n;
    }
  }
}

TEST(IsolationTest, CreatesIsoGatesAndEnableSignals) {
  const auto b = suite::hal(8);
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::ConventionalGated;
  opts.operand_isolation = true;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  int gates = 0, alus = 0;
  for (const auto& c : syn.design->netlist.components()) {
    gates += c.kind == rtl::CompKind::IsoGate ? 1 : 0;
    alus += c.kind == rtl::CompKind::Alu ? 1 : 0;
  }
  EXPECT_GT(gates, 0);
  EXPECT_LE(gates, 2 * alus);
  EXPECT_NE(syn.design->style_name.find("Isolation"), std::string::npos);
}

TEST(IsolationTest, NoGatesWithoutTheOption) {
  const auto b = suite::hal(8);
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::ConventionalGated;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  for (const auto& c : syn.design->netlist.components()) {
    EXPECT_NE(c.kind, rtl::CompKind::IsoGate);
  }
}

TEST(IsolationTest, ShieldsIdleAluInputsFromUpstreamToggles) {
  // Measure toggles on ALU *data input nets* with vs without isolation:
  // the shielded version must see no more transitions (the iso stage holds
  // during off-duty steps).
  const auto b = suite::ewf(8);
  auto alu_input_toggles = [&](bool iso) {
    core::SynthesisOptions opts;
    opts.style = core::DesignStyle::ConventionalGated;
    opts.operand_isolation = iso;
    const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
    Rng rng(5);
    const auto stream =
        sim::uniform_stream(rng, b.graph->inputs().size(), 300, 8);
    sim::Simulator s(*syn.design);
    const auto res = s.run(stream, b.graph->inputs(), b.graph->outputs());
    std::uint64_t t = 0;
    for (const auto& c : syn.design->netlist.components()) {
      if (c.kind != rtl::CompKind::Alu) continue;
      for (rtl::NetId in : c.inputs) t += res.activity.net_toggles[in.index()];
    }
    return t;
  };
  EXPECT_LT(alu_input_toggles(true), alu_input_toggles(false));
}

TEST(IsolationTest, TimingSafetyStillHolds) {
  const auto b = suite::biquad(8);
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = 3;
  opts.operand_isolation = true;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  syn.design->netlist.validate();
}

}  // namespace
}  // namespace mcrtl
