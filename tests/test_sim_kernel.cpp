// The event-driven settle kernel's correctness spine: it must produce
// bit-identical Activity, outputs and PhaseHeatmap records, power-probe
// waveforms and per-step net values (what a StepObserver sees) to the
// retained oblivious reference kernel (Simulator::Mode::Oblivious) on every
// design —
// the clock-management *and* the kernel machinery are only allowed to change
// how fast things are computed, never what is counted. Covered here across
// all four paper benchmarks x design styles x clock counts, plus randomized
// graphs from the fuzz generator, plus the work-accounting invariants the
// perf-smoke CI guard relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "core/synthesizer.hpp"
#include "dfg/random_graph.hpp"
#include "hand_built.hpp"
#include "power/attribution.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace mcrtl::sim {
namespace {

using core::AllocMethod;
using core::DesignStyle;

struct StyleCase {
  std::string label;
  core::SynthesisOptions opts;
};

std::vector<StyleCase> kernel_styles() {
  std::vector<StyleCase> out;
  {
    StyleCase s{"conv_nongated", {}};
    s.opts.style = DesignStyle::ConventionalNonGated;
    out.push_back(s);
  }
  {
    StyleCase s{"conv_gated", {}};
    s.opts.style = DesignStyle::ConventionalGated;
    out.push_back(s);
  }
  for (int n : {1, 2, 3, 4}) {
    StyleCase s{"multi_int_latch_n" + std::to_string(n), {}};
    s.opts.style = DesignStyle::MultiClock;
    s.opts.num_clocks = n;
    out.push_back(s);
  }
  for (int n : {2, 3}) {
    StyleCase s{"multi_split_latch_n" + std::to_string(n), {}};
    s.opts.style = DesignStyle::MultiClock;
    s.opts.num_clocks = n;
    s.opts.method = AllocMethod::Split;
    out.push_back(s);
  }
  for (int n : {2, 4}) {
    StyleCase s{"multi_int_dff_n" + std::to_string(n), {}};
    s.opts.style = DesignStyle::MultiClock;
    s.opts.num_clocks = n;
    s.opts.use_latches = false;
    out.push_back(s);
  }
  {
    StyleCase s{"multi_int_isolation_n2", {}};
    s.opts.style = DesignStyle::MultiClock;
    s.opts.num_clocks = 2;
    s.opts.operand_isolation = true;
    out.push_back(s);
  }
  return out;
}

void expect_identical_activity(const Activity& a, const Activity& b,
                               const std::string& what) {
  EXPECT_EQ(a.net_toggles, b.net_toggles) << what;
  EXPECT_EQ(a.storage_clock_events, b.storage_clock_events) << what;
  EXPECT_EQ(a.storage_write_toggles, b.storage_write_toggles) << what;
  EXPECT_EQ(a.phase_pulses, b.phase_pulses) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.computations, b.computations) << what;
}

/// The bits of every whole-design per-step energy of `probe`, then the
/// bits of its crest factor.
std::vector<std::uint64_t> waveform_bits(const PowerProbe& probe) {
  std::vector<std::uint64_t> bits;
  auto add = [&](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    bits.push_back(b);
  };
  for (std::size_t st = 0; st < probe.steps(); ++st) {
    for (int d = 0; d <= probe.num_domains(); ++d) add(probe.step_fj(st, d));
    add(probe.step_total_fj(st));
  }
  add(probe.crest());
  return bits;
}

/// What a StepObserver saw: each step's number followed by every net value.
struct ObservedSteps {
  std::vector<std::uint64_t> values;
  Simulator::StepObserver observer() {
    return [this](std::uint64_t step, const std::vector<std::uint64_t>& nets) {
      values.push_back(step);
      values.insert(values.end(), nets.begin(), nets.end());
    };
  }
};

/// Simulate `design` with both kernels over `stream` and assert every
/// observable record is bit-identical: outputs, Activity, heatmap, the
/// power probe's waveform and crest, and the observer's per-step net
/// values. Also asserts the work accounting: the event-driven kernel never
/// evaluates more components than the oblivious one would over the same
/// settle() calls.
void differential_check(const rtl::Design& design, const dfg::Graph& graph,
                        const InputStream& stream, const std::string& what) {
  Simulator ev(design);  // EventDriven is the default
  Simulator ob(design, Simulator::Mode::Oblivious);
  ASSERT_EQ(ev.mode(), Simulator::Mode::EventDriven);
  PhaseHeatmap hm_ev, hm_ob;
  ev.set_heatmap(&hm_ev);
  ob.set_heatmap(&hm_ob);
  const power::Attribution attr(design, power::TechLibrary::cmos08());
  PowerProbe probe_ev(attr.energy_model()), probe_ob(attr.energy_model());
  ev.set_power_probe(&probe_ev);
  ob.set_power_probe(&probe_ob);
  ObservedSteps steps_ev, steps_ob;
  ev.set_observer(steps_ev.observer());
  ob.set_observer(steps_ob.observer());
  const auto in = graph.inputs();
  const auto out = graph.outputs();
  const SimResult rev = ev.run(stream, in, out);
  const SimResult rob = ob.run(stream, in, out);

  EXPECT_EQ(rev.outputs, rob.outputs) << what;
  expect_identical_activity(rev.activity, rob.activity, what);
  EXPECT_EQ(hm_ev.num_phases, hm_ob.num_phases) << what;
  EXPECT_EQ(hm_ev.period, hm_ob.period) << what;
  EXPECT_EQ(hm_ev.write_toggles, hm_ob.write_toggles) << what;
  EXPECT_EQ(hm_ev.clock_events, hm_ob.clock_events) << what;
  EXPECT_EQ(probe_ev.steps(), rev.activity.steps) << what;
  EXPECT_TRUE(waveform_bits(probe_ev) == waveform_bits(probe_ob))
      << what << ": probe waveform or crest differs";
  EXPECT_EQ(steps_ev.values.size(),
            rev.activity.steps * (design.netlist.num_nets() + 1))
      << what;
  const auto diverged = std::mismatch(steps_ev.values.begin(),
                                      steps_ev.values.end(),
                                      steps_ob.values.begin(),
                                      steps_ob.values.end());
  EXPECT_TRUE(diverged.first == steps_ev.values.end() &&
              diverged.second == steps_ob.values.end())
      << what << ": observed net values differ at entry "
      << (diverged.first - steps_ev.values.begin());

  const auto& sev = ev.kernel_stats();
  const auto& sob = ob.kernel_stats();
  EXPECT_EQ(sev.settles, sob.settles) << what;
  EXPECT_EQ(sob.evals, sob.oblivious_evals) << what;
  EXPECT_EQ(sev.oblivious_evals, sob.oblivious_evals) << what;
  EXPECT_LE(sev.evals, sev.oblivious_evals) << what;
}

TEST(SimKernelTest, EventDrivenMatchesObliviousOnAllSuiteBenchmarks) {
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    for (const auto& style : kernel_styles()) {
      const auto syn = core::synthesize(*b.graph, *b.schedule, style.opts);
      Rng rng(101);
      const auto stream =
          uniform_stream(rng, b.graph->inputs().size(), 60, 4);
      differential_check(*syn.design, *b.graph, stream,
                         std::string(name) + "/" + style.label);
    }
  }
}

TEST(SimKernelTest, EventDrivenMatchesObliviousOnFuzzGraphs) {
  for (std::uint64_t seed : {4101u, 4102u, 4103u, 4104u, 4105u, 4106u}) {
    Rng grng(seed);
    dfg::RandomGraphConfig gcfg;
    gcfg.num_inputs = 2 + static_cast<unsigned>(grng.next_below(4));
    gcfg.num_nodes = 8 + static_cast<unsigned>(grng.next_below(16));
    gcfg.width = 4 + static_cast<unsigned>(grng.next_below(13));
    const dfg::Graph g = dfg::random_graph(grng, gcfg);
    const dfg::Schedule s = dfg::schedule_asap(g);
    for (const auto& style : kernel_styles()) {
      const auto syn = core::synthesize(g, s, style.opts);
      Rng srng(seed * 0x9E3779B97F4A7C15ull + 7);
      const auto stream =
          uniform_stream(srng, g.inputs().size(), 30, gcfg.width);
      std::ostringstream what;
      what << "graph_seed=" << seed << " " << style.label;
      differential_check(*syn.design, g, stream, what.str());
    }
  }
}

TEST(SimKernelTest, EventDrivenSkipsWorkOnMultiClockDesigns) {
  // The sparsity argument made quantitative: with n non-overlapping clocks
  // only ~1/n of the datapath sees new values per master cycle, so the
  // event-driven kernel must actually evaluate strictly fewer components
  // than the oblivious sweep on every n >= 2 configuration.
  const auto b = suite::by_name("hal", 4);
  for (int n : {2, 3, 4}) {
    core::SynthesisOptions opts;
    opts.style = DesignStyle::MultiClock;
    opts.num_clocks = n;
    const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
    Simulator ev(*syn.design);
    Rng rng(55);
    const auto stream = uniform_stream(rng, b.graph->inputs().size(), 40, 4);
    ev.run(stream, b.graph->inputs(), b.graph->outputs());
    const auto& st = ev.kernel_stats();
    EXPECT_LT(st.evals, st.oblivious_evals) << "n=" << n;
  }
}

TEST(SimKernelTest, RepeatedRunsOnOneSimulatorStayIdentical) {
  // run() may be called repeatedly on one Simulator (net/storage state
  // persists); the event kernel's worklist must reset cleanly via the
  // full-dirty preamble so a second run still matches the oblivious
  // kernel's second run.
  const auto b = suite::by_name("facet", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Simulator ev(*syn.design);
  Simulator ob(*syn.design, Simulator::Mode::Oblivious);
  Rng r1(9), r2(9);
  const auto s1 = uniform_stream(r1, b.graph->inputs().size(), 25, 4);
  const auto s2 = uniform_stream(r2, b.graph->inputs().size(), 25, 4);
  for (int round = 0; round < 2; ++round) {
    const auto rev = ev.run(s1, b.graph->inputs(), b.graph->outputs());
    const auto rob = ob.run(s2, b.graph->inputs(), b.graph->outputs());
    EXPECT_EQ(rev.outputs, rob.outputs) << "round " << round;
    expect_identical_activity(rev.activity, rob.activity,
                              "round " + std::to_string(round));
  }
}

TEST(SimKernelTest, ObliviousOrdersADatapathDrivenSelectBeforeItsMux) {
  // A mux whose select comes from a comparator: the reference kernel must
  // evaluate the comparator first, or it settles the mux on a stale select
  // and counts a spurious wave the event-driven kernel never sees.
  const fixtures::SelectOrderMux fx;
  const rtl::Design& d = *fx.design;
  EXPECT_EQ(d.tables.comb_order, (std::vector<rtl::CompId>{fx.cmp, fx.mux}));
  Rng rng(17);
  const auto stream = uniform_stream(rng, 2, 50, 4);
  const std::vector<dfg::ValueId> in{fx.a_value, fx.b_value};
  const std::vector<dfg::ValueId> out{fx.out_value};
  Simulator ev(d);
  Simulator ob(d, Simulator::Mode::Oblivious);
  const SimResult rev = ev.run(stream, in, out);
  const SimResult rob = ob.run(stream, in, out);
  EXPECT_EQ(rev.outputs, rob.outputs);
  expect_identical_activity(rev.activity, rob.activity, "select order");
  // The bit-sliced kernel blends the data-driven select per lane.
  Simulator bs(d, Simulator::Mode::BitSliced);
  const auto rbs = bs.run_sliced({stream}, in, out);
  EXPECT_EQ(rbs[0].outputs, rev.outputs);
  expect_identical_activity(rbs[0].activity, rev.activity, "sliced");
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto a = stream[i][0], b = stream[i][1];
    ASSERT_EQ(rev.outputs[i][0], to_signed(a, 4) < to_signed(b, 4) ? b : a)
        << "computation " << i;
  }
}

}  // namespace
}  // namespace mcrtl::sim
