// Unit tests for the phase-accurate simulator: activity accounting, clock
// gating semantics, stimulus generators, VCD tracing.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/measure.hpp"
#include "obs/obs.hpp"
#include "util/bits.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "sim/vcd.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "word_tables.hpp"

namespace mcrtl::sim {
namespace {

using core::DesignStyle;
using core::Synthesized;

Synthesized make(const suite::Benchmark& b, DesignStyle style, int clocks = 1) {
  core::SynthesisOptions opts;
  opts.style = style;
  opts.num_clocks = clocks;
  return core::synthesize(*b.graph, *b.schedule, opts);
}

SimResult simulate(const suite::Benchmark& b, const rtl::Design& d,
                   const InputStream& stream) {
  Simulator s(d);
  return s.run(stream, b.graph->inputs(), b.graph->outputs());
}

TEST(SimulatorTest, StepAccountingMatchesPeriod) {
  const auto b = suite::motivating(8);
  const auto syn = make(b, DesignStyle::ConventionalGated);
  Rng rng(1);
  const auto stream = uniform_stream(rng, b.graph->inputs().size(), 10, 8);
  const auto res = simulate(b, *syn.design, stream);
  EXPECT_EQ(res.activity.computations, 10u);
  EXPECT_EQ(res.activity.steps,
            static_cast<std::uint64_t>(syn.design->clocks.period()) * 10);
  EXPECT_EQ(res.outputs.size(), 10u);
}

TEST(SimulatorTest, PhasePulsesPartitionMasterCycles) {
  const auto b = suite::motivating(8);
  for (int n = 1; n <= 3; ++n) {
    const auto syn = make(b, DesignStyle::MultiClock, n);
    Rng rng(2);
    const auto stream = uniform_stream(rng, b.graph->inputs().size(), 8, 8);
    const auto res = simulate(b, *syn.design, stream);
    std::uint64_t total = 0;
    for (int p = 1; p <= n; ++p) {
      total += res.activity.phase_pulses[static_cast<std::size_t>(p)];
    }
    // Exactly one phase pulses per master cycle.
    EXPECT_EQ(total, res.activity.steps) << "n=" << n;
    if (n > 1) {
      // Phases share the wheel evenly (period is a multiple of n).
      for (int p = 2; p <= n; ++p) {
        EXPECT_EQ(res.activity.phase_pulses[static_cast<std::size_t>(p)],
                  res.activity.phase_pulses[1]);
      }
    }
  }
}

TEST(SimulatorTest, NonGatedClockEventsEveryCycle) {
  const auto b = suite::motivating(8);
  const auto syn = make(b, DesignStyle::ConventionalNonGated);
  Rng rng(3);
  const auto stream = uniform_stream(rng, b.graph->inputs().size(), 6, 8);
  const auto res = simulate(b, *syn.design, stream);
  for (const auto& c : syn.design->netlist.components()) {
    if (!rtl::is_storage(c.kind)) continue;
    EXPECT_EQ(res.activity.storage_clock_events[c.id.index()], res.activity.steps)
        << c.name;
  }
}

TEST(SimulatorTest, GatedClockEventsOnlyWhenLoading) {
  const auto b = suite::motivating(8);
  const auto gated = make(b, DesignStyle::ConventionalGated);
  const auto nongated = make(b, DesignStyle::ConventionalNonGated);
  Rng rng(4);
  const auto stream = uniform_stream(rng, b.graph->inputs().size(), 6, 8);
  const auto rg = simulate(b, *gated.design, stream);
  const auto rn = simulate(b, *nongated.design, stream);
  std::uint64_t gated_events = 0, nongated_events = 0;
  for (const auto& e : rg.activity.storage_clock_events) gated_events += e;
  for (const auto& e : rn.activity.storage_clock_events) nongated_events += e;
  EXPECT_LT(gated_events, nongated_events);
  EXPECT_GT(gated_events, 0u);
}

TEST(SimulatorTest, ConstantInputsQuietTheDatapath) {
  const auto b = suite::motivating(8);
  const auto syn = make(b, DesignStyle::ConventionalGated);
  Rng rng(5);
  const auto noisy = uniform_stream(rng, b.graph->inputs().size(), 50, 8);
  Rng rng2(5);
  const auto quiet = constant_stream(rng2, b.graph->inputs().size(), 50, 8);
  const auto rn = simulate(b, *syn.design, noisy);
  const auto rq = simulate(b, *syn.design, quiet);
  std::uint64_t tn = 0, tq = 0;
  for (const auto& t : rn.activity.net_toggles) tn += t;
  for (const auto& t : rq.activity.net_toggles) tq += t;
  // Resource sharing keeps intra-computation switching alive even with
  // constant inputs (the shared ALU still computes different ops each
  // step), but the data-dependent component must vanish:
  EXPECT_LT(tq, tn);
  // ... and every computation is identical.
  for (std::size_t i = 1; i < rq.outputs.size(); ++i) {
    EXPECT_EQ(fixtures::row(rq.outputs, i), fixtures::row(rq.outputs, 0));
  }
}

TEST(SimulatorTest, MultiClockStorageOnlyClocksInOwnPhase) {
  const auto b = suite::hal(8);
  const auto syn = make(b, DesignStyle::MultiClock, 3);
  Rng rng(6);
  const auto stream = uniform_stream(rng, b.graph->inputs().size(), 12, 8);
  const auto res = simulate(b, *syn.design, stream);
  for (const auto& c : syn.design->netlist.components()) {
    if (!rtl::is_storage(c.kind)) continue;
    // Gated multi-clock storage: events bounded by its phase's pulses.
    EXPECT_LE(res.activity.storage_clock_events[c.id.index()],
              res.activity.phase_pulses[static_cast<std::size_t>(c.clock_phase)])
        << c.name;
  }
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  const auto b = suite::facet(8);
  const auto syn = make(b, DesignStyle::MultiClock, 2);
  Rng rng(7);
  const auto stream = uniform_stream(rng, b.graph->inputs().size(), 20, 8);
  const auto r1 = simulate(b, *syn.design, stream);
  const auto r2 = simulate(b, *syn.design, stream);
  EXPECT_EQ(r1.activity.net_toggles, r2.activity.net_toggles);
  EXPECT_EQ(r1.outputs, r2.outputs);
}

TEST(SimulatorTest, PrecomputedGoldenOutputsGiveTheSameReport) {
  // check_outputs against golden_outputs() must report exactly what the
  // stream overload reports: every computation compared, same first
  // mismatch, same text.
  const auto b = suite::hal(4);
  const auto syn = make(b, DesignStyle::MultiClock, 3);
  Rng rng(17);
  const auto stream = uniform_stream(rng, b.graph->inputs().size(), 40, 4);
  auto outputs = simulate(b, *syn.design, stream).outputs;
  const GoldenOutputs golden = golden_outputs(*b.graph, stream);
  ASSERT_EQ(golden.size(), stream.size());
  const auto ok = check_outputs(*b.graph, golden, outputs, "s");
  EXPECT_TRUE(ok.equivalent);
  EXPECT_EQ(ok.computations_checked, stream.size());

  outputs[23].back() ^= 1;
  const auto via_stream = check_outputs(*b.graph, stream, outputs, "s");
  const auto via_golden = check_outputs(*b.graph, golden, outputs, "s");
  EXPECT_FALSE(via_golden.equivalent);
  EXPECT_EQ(via_golden.first_mismatch, 23u);
  EXPECT_EQ(via_golden.computations_checked, 24u);
  EXPECT_EQ(via_golden.detail, via_stream.detail);
  EXPECT_EQ(via_golden.first_mismatch, via_stream.first_mismatch);
  EXPECT_NE(via_golden.detail.find("computation 23, output '"),
            std::string::npos)
      << via_golden.detail;
}

TEST(SimulatorTest, GoldenOutputsMatchTheInterpreterRun) {
  // golden_outputs() evaluates through the interpreter's allocation-free
  // path; every stored value must equal the graph-walking run().
  for (const auto& name : suite::all_names()) {
    const auto b = suite::by_name(name, 4);
    Rng rng(23);
    const auto stream = uniform_stream(rng, b.graph->inputs().size(), 50, 4);
    const GoldenOutputs golden = golden_outputs(*b.graph, stream);
    ASSERT_EQ(golden.words(), b.graph->outputs().size()) << name;
    ASSERT_EQ(golden.values().size(), stream.size() * golden.words()) << name;
    const dfg::Interpreter interp(*b.graph);
    for (std::size_t c = 0; c < stream.size(); ++c) {
      EXPECT_EQ(fixtures::row(golden, c),
                interp.run(fixtures::row(stream, c)).outputs)
          << name << " " << c;
    }
  }
}

TEST(SimulatorTest, FillGoldenOutputsRejectsMisSizedStorage) {
  const auto b = suite::hal(4);
  Rng rng(3);
  const auto stream = uniform_stream(rng, b.graph->inputs().size(), 10, 4);
  const dfg::Interpreter interp(*b.graph);
  GoldenOutputs short_rows(9, interp.num_outputs());
  EXPECT_THROW(fill_golden_outputs(interp, stream, short_rows), Error);
  GoldenOutputs wrong_width(10, interp.num_outputs() + 1);
  EXPECT_THROW(fill_golden_outputs(interp, stream, wrong_width), Error);
}

// ---- stream shape: checked once, at the entry point ----------------------

TEST(StreamShapeTest, RunRejectsWrongWidthBeforeSimulating) {
  const auto b = suite::hal(4);
  const auto syn = make(b, DesignStyle::MultiClock, 2);
  const std::size_t inputs = b.graph->inputs().size();
  Rng rng(31);
  for (std::size_t width : {inputs - 1, inputs + 1}) {
    const auto stream = uniform_stream(rng, width, 10, 4);
    Simulator sim(*syn.design);
    PhaseHeatmap hm;
    sim.set_heatmap(&hm);
    fixtures::expect_width_error(
        [&] { sim.run(stream, b.graph->inputs(), b.graph->outputs()); },
        inputs, width);
    EXPECT_EQ(sim.kernel_stats().settles, 0u);
    EXPECT_EQ(sim.kernel_stats().evals, 0u);
    EXPECT_TRUE(hm.write_toggles.empty());
  }
}

TEST(StreamShapeTest, FillGoldenOutputsRejectsWrongWidthBeforeEvaluating) {
  const auto b = suite::hal(4);
  const std::size_t inputs = b.graph->inputs().size();
  const dfg::Interpreter interp(*b.graph);
  Rng rng(32);
  const auto stream = uniform_stream(rng, inputs + 1, 10, 4);
  GoldenOutputs golden(stream.size(), interp.num_outputs());
  std::ranges::fill(golden.values(), 0xA5u);
  fixtures::expect_width_error(
      [&] { fill_golden_outputs(interp, stream, golden); }, inputs,
      inputs + 1);
  for (auto w : golden.values()) EXPECT_EQ(w, 0xA5u);
}

TEST(StreamShapeTest, MakeStimulusRejectsWrongWidthBeforeEvaluating) {
  // The bad stream comes second: no golden model may run on the first.
  const auto b = suite::hal(4);
  const std::size_t inputs = b.graph->inputs().size();
  Rng rng(33);
  std::vector<InputStream> streams;
  streams.push_back(uniform_stream(rng, inputs, 10, 4));
  streams.push_back(uniform_stream(rng, inputs - 1, 10, 4));
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  fixtures::expect_width_error(
      [&] { core::make_stimulus(*b.graph, std::move(streams)); }, inputs,
      inputs - 1);
  obs::set_enabled(false);
  EXPECT_EQ(obs::Registry::instance().num_spans(), 0u);
  obs::Registry::instance().reset();
}

TEST(StimulusTest, UniformShapeAndDeterminism) {
  Rng a(9), b(9);
  const auto s1 = uniform_stream(a, 3, 10, 8);
  const auto s2 = uniform_stream(b, 3, 10, 8);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 10u);
  EXPECT_EQ(s1[0].size(), 3u);
  for (auto w : s1.values()) EXPECT_LE(w, 0xFFu);
}

TEST(StimulusTest, FilledStreamsMatchUniformStreams) {
  // The explorer allocates each bundle stream up front and fills it from
  // stream_seeds()[s]; that must reproduce uniform_streams() word for word.
  const auto bundle = uniform_streams(11, 5, 3, 40, 6);
  const auto seeds = stream_seeds(11, 5);
  ASSERT_EQ(seeds.size(), bundle.size());
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    InputStream filled(40, 3);
    std::ranges::fill(filled.values(), ~0ull);
    Rng rng(seeds[s]);
    fill_uniform(rng, filled, 6);
    EXPECT_EQ(filled, bundle[s]) << "stream " << s;
  }
}

TEST(StimulusTest, StreamSeedIsTheSeedAloneOrItsBundleSeed) {
  // One stream is drawn from the seed itself (the paper protocol's
  // Rng(seed)); stream s of a bundle from stream_seeds()[s], whatever the
  // bundle size.
  for (std::uint64_t seed : {0ull, 1996ull, ~0ull}) {
    EXPECT_EQ(stream_seed(seed, 1, 0), seed);
    for (std::size_t streams : {2u, 5u, 64u}) {
      const auto seeds = stream_seeds(seed, streams);
      for (std::size_t s = 0; s < streams; ++s) {
        EXPECT_EQ(stream_seed(seed, streams, s), seeds[s])
            << "seed " << seed << " stream " << s << "/" << streams;
      }
    }
  }
}

TEST(StimulusTest, CorrelatedZeroFlipIsConstant) {
  Rng rng(10);
  const auto s = correlated_stream(rng, 2, 12, 8, 0.0);
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_EQ(fixtures::row(s, i), fixtures::row(s, 0));
  }
}

TEST(StimulusTest, CorrelatedLowFlipTogglesLessThanUniform) {
  auto toggles = [](const InputStream& s) {
    std::uint64_t t = 0;
    for (std::size_t i = 1; i < s.size(); ++i) {
      for (std::size_t k = 0; k < s[i].size(); ++k) {
        t += mcrtl::hamming(s[i][k], s[i - 1][k]);
      }
    }
    return t;
  };
  Rng r1(11), r2(11);
  const auto low = correlated_stream(r1, 2, 200, 8, 0.1);
  const auto uni = uniform_stream(r2, 2, 200, 8);
  EXPECT_LT(toggles(low), toggles(uni));
}

TEST(StimulusTest, RampIsDeterministic) {
  const auto s = ramp_stream(2, 5, 8);
  EXPECT_EQ(s[3][0], 3u);
  EXPECT_EQ(s[3][1], 6u);
}

TEST(EquivalenceTest, DetectsBrokenDesign) {
  // Sabotage: swap the function set of an ALU after synthesis; the checker
  // must flag a mismatch, and measure() must refuse to report the design.
  const auto b = suite::motivating(8);
  auto syn = make(b, DesignStyle::ConventionalGated);
  for (auto& c : const_cast<std::vector<rtl::Component>&>(
           syn.design->netlist.components())) {
    if (c.kind == rtl::CompKind::Alu) {
      for (auto& f : c.funcs) {
        f = f == dfg::Op::Add ? dfg::Op::Sub : dfg::Op::Add;
      }
      break;
    }
  }
  Rng rng(12);
  const auto stream = uniform_stream(rng, b.graph->inputs().size(), 30, 8);
  const auto rep = check_outputs(*b.graph, stream,
                                 simulate(b, *syn.design, stream).outputs,
                                 syn.design->style_name);
  EXPECT_FALSE(rep.equivalent);
  EXPECT_FALSE(rep.detail.empty());
  try {
    core::measure(*syn.design, *b.graph,
                  core::make_stimulus(*b.graph, {stream}),
                  power::TechLibrary::cmos08());
    ADD_FAILURE() << "measure() reported a non-equivalent design";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "non-equivalent design: " + rep.detail);
  }
}

// ---- mismatch reports on the flat tables ----------------------------------

/// The row-wise scan check_outputs() ran before the tables were flat: the
/// first (computation, output) that differs, and how many computations it
/// looked at.
struct RowScan {
  bool equivalent = true;
  std::size_t first_mismatch = 0;
  std::size_t computations_checked = 0;
};
RowScan row_scan(const WordTable& golden, const WordTable& rtl) {
  RowScan r;
  for (std::size_t c = 0; c < rtl.size(); ++c) {
    const auto expect = fixtures::row(golden, c);
    const auto got = fixtures::row(rtl, c);
    for (std::size_t o = 0; o < got.size(); ++o) {
      if (expect[o] != got[o]) {
        r.equivalent = false;
        r.first_mismatch = c;
        r.computations_checked = c + 1;
        return r;
      }
    }
  }
  r.computations_checked = rtl.size();
  return r;
}

TEST(EquivalenceTest, FlatCheckReportsWhatTheRowScanReports) {
  const auto b = suite::hal(4);
  const auto syn = make(b, DesignStyle::MultiClock, 3);
  Rng rng(41);
  const auto stream = uniform_stream(rng, b.graph->inputs().size(), 40, 4);
  const auto outputs = simulate(b, *syn.design, stream).outputs;
  const GoldenOutputs golden = golden_outputs(*b.graph, stream);
  const std::size_t last_c = outputs.size() - 1;
  const std::size_t last_o = outputs.words() - 1;
  // (computation, output) pairs to flip, alone and together.
  const std::vector<std::vector<std::pair<std::size_t, std::size_t>>> cases =
      {{},
       {{0, 0}},
       {{0, last_o}},
       {{17, 1}},
       {{last_c, 0}},
       {{last_c, last_o}},
       {{30, last_o}, {12, 0}},
       {{5, 0}, {5, last_o}, {last_c, last_o}}};
  for (const auto& flips : cases) {
    WordTable rtl = outputs;
    for (const auto& [c, o] : flips) rtl[c][o] ^= 1;
    const auto rep = check_outputs(*b.graph, golden, rtl, "s");
    const RowScan ref = row_scan(golden, rtl);
    EXPECT_EQ(rep.equivalent, ref.equivalent) << flips.size();
    EXPECT_EQ(rep.computations_checked, ref.computations_checked);
    if (!ref.equivalent) {
      EXPECT_EQ(rep.first_mismatch, ref.first_mismatch);
    }
  }
}

TEST(EquivalenceTest, MeasureNamesTheMismatchingStreamWordForWord) {
  // Flip the golden word of stream 3's last computation, last output in a
  // 4-stream bundle: measure() must refuse the design with the text the
  // row-wise checker always gave.
  const auto b = suite::hal(4);
  const auto syn = make(b, DesignStyle::MultiClock, 2);
  const auto streams =
      uniform_streams(7, 4, b.graph->inputs().size(), 50, b.graph->width());
  auto stim = core::make_stimulus(*b.graph, streams);
  auto& golden = stim.golden[3];
  const std::size_t c = golden.size() - 1;
  const std::size_t o = golden.words() - 1;
  const std::uint64_t rtl = golden[c][o];
  golden[c][o] ^= 1;
  const std::string expected = str_format(
      "non-equivalent design (stream 3): computation %zu, output '%s': "
      "golden=%llu rtl=%llu (style '%s')",
      c, b.graph->value(b.graph->outputs()[o]).name.c_str(),
      static_cast<unsigned long long>(golden[c][o]),
      static_cast<unsigned long long>(rtl), syn.design->style_name.c_str());
  try {
    core::measure(*syn.design, *b.graph, stim, power::TechLibrary::cmos08());
    ADD_FAILURE() << "measure() reported a non-equivalent design";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(VcdTest, ProducesWellFormedHeaderAndChanges) {
  const auto b = suite::motivating(8);
  const auto syn = make(b, DesignStyle::MultiClock, 2);
  VcdTracer tracer(*syn.design);
  Simulator s(*syn.design);
  s.set_observer([&](std::uint64_t step, const std::vector<std::uint64_t>& nets) {
    tracer.record(step, nets);
  });
  Rng rng(13);
  const auto stream = uniform_stream(rng, b.graph->inputs().size(), 3, 8);
  s.run(stream, b.graph->inputs(), b.graph->outputs());
  const std::string vcd = tracer.render();
  EXPECT_NE(vcd.find("$timescale"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(vcd.find("#1"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire"), std::string::npos);
}

}  // namespace
}  // namespace mcrtl::sim
