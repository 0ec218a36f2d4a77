// Tests for the tri-state bus interconnect style.
#include <gtest/gtest.h>

#include "core/measure.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"

namespace mcrtl {
namespace {

core::Synthesized make_bus(const suite::Benchmark& b, int clocks) {
  core::SynthesisOptions opts;
  opts.style = clocks == 1 ? core::DesignStyle::ConventionalGated
                           : core::DesignStyle::MultiClock;
  opts.num_clocks = clocks;
  opts.interconnect = rtl::BuildOptions::Interconnect::TristateBus;
  return core::synthesize(*b.graph, *b.schedule, opts);
}

TEST(BusTest, ReplacesAllMuxes) {
  const auto b = suite::hal(8);
  const auto syn = make_bus(b, 2);
  int buses = 0, muxes = 0;
  for (const auto& c : syn.design->netlist.components()) {
    buses += c.kind == rtl::CompKind::Bus ? 1 : 0;
    muxes += c.kind == rtl::CompKind::Mux ? 1 : 0;
  }
  EXPECT_GT(buses, 0);
  EXPECT_EQ(muxes, 0);
  EXPECT_NE(syn.design->style_name.find("(Bus)"), std::string::npos);
}

TEST(BusTest, FunctionallyEquivalentOnAllBenchmarks) {
  for (const auto& name : suite::all_names()) {
    for (int n : {1, 3}) {
      const auto b = suite::by_name(name, 8);
      const auto syn = make_bus(b, n);
      Rng rng(5);
      const auto stream =
          sim::uniform_stream(rng, b.graph->inputs().size(), 60, 8);
      EXPECT_NO_THROW(core::measure(*syn.design, *b.graph,
                                    core::make_stimulus(*b.graph, {stream}),
                                    power::TechLibrary::cmos08()))
          << name << " n=" << n;
    }
  }
}

TEST(BusTest, BusLineCapGrowsWithFanIn) {
  const auto tech = power::TechLibrary::cmos08();
  rtl::Netlist nl("t");
  const auto src = nl.add_component(rtl::CompKind::InputPort, "i", 4);
  const auto bus2 = nl.add_component(rtl::CompKind::Bus, "b2", 4);
  const auto bus4 = nl.add_component(rtl::CompKind::Bus, "b4", 4);
  for (int i = 0; i < 2; ++i) nl.connect_input(bus2, nl.comp(src).output);
  for (int i = 0; i < 4; ++i) nl.connect_input(bus4, nl.comp(src).output);
  EXPECT_LT(tech.output_cap(nl.comp(bus2)), tech.output_cap(nl.comp(bus4)));
}

TEST(BusTest, TimingSafetyAndDrcHold) {
  const auto b = suite::biquad(8);
  const auto syn = make_bus(b, 3);
  EXPECT_NO_THROW(syn.design->netlist.validate());
}

TEST(BusTest, StatsUnaffectedByInterconnectStyle) {
  // The binding (and so the table statistics) is interconnect-agnostic;
  // only the electrical realization changes.
  const auto b = suite::facet(8);
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto mux = core::synthesize(*b.graph, *b.schedule, opts);
  opts.interconnect = rtl::BuildOptions::Interconnect::TristateBus;
  const auto bus = core::synthesize(*b.graph, *b.schedule, opts);
  EXPECT_EQ(mux.design->stats.num_mux_inputs, bus.design->stats.num_mux_inputs);
  EXPECT_EQ(mux.design->stats.num_memory_cells,
            bus.design->stats.num_memory_cells);
  EXPECT_EQ(mux.design->stats.alu_summary, bus.design->stats.alu_summary);
}

}  // namespace
}  // namespace mcrtl
