// Correctness spine of the bit-sliced Monte-Carlo kernel: a run_sliced()
// over N streams must be indistinguishable, stream by stream, from N
// independent EventDriven runs — outputs and the full Activity record, bit
// for bit. Covered across the four paper benchmarks x
// design styles x clock counts, fuzz graphs (including partial bundles and
// full-width 64-bit datapaths), lane-permutation invariance of the
// aggregates, the statistical summary layer, and per-stream functional
// equivalence against the DFG golden model.
//
// The time-sliced mode (run_time_sliced: one stream cut into 64 chunks)
// is held to the scalar run() itself: outputs, the full Activity and the
// power probe's waveform and crest, bit for bit, over every suite
// behaviour x width x design style x stream length, plus fuzz graphs, a
// design the static warm-up check must reject, deadlines and an empty
// stream. The bit-sliced kernel takes no step observer or heatmap; both are
// rejected before anything is simulated.
// Its bundle form (S streams x floor(64/S) chunks) is held the same way to
// a lockstep run_sliced() of the bundle — per-stream records and the
// aggregate waveform — and, under a computation budget, to budgeted run()s.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "core/record.hpp"
#include "core/synthesizer.hpp"
#include "dfg/random_graph.hpp"
#include "hand_built.hpp"
#include "obs/obs.hpp"
#include "power/attribution.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "word_tables.hpp"

namespace mcrtl::sim {
namespace {

using core::AllocMethod;
using core::DesignStyle;

struct StyleCase {
  std::string label;
  core::SynthesisOptions opts;
};

// Same grid as test_sim_kernel.cpp: both scalar styles plus multi-clock
// n_clocks 1..4 across allocation methods, storage kinds and isolation.
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

/// Run the bundle through one BitSliced pass and every stream through its
/// own fresh EventDriven simulator; assert per-stream bit-identity of
/// outputs and Activity.
void differential_check_sliced(const rtl::Design& design,
                               const dfg::Graph& graph,
                               const std::vector<InputStream>& streams,
                               const std::string& what) {
  const auto in = graph.inputs();
  const auto out = graph.outputs();

  Simulator sliced(design, Simulator::Mode::BitSliced);
  const auto results = sliced.run_sliced(streams, in, out);
  ASSERT_EQ(results.size(), streams.size()) << what;

  for (std::size_t s = 0; s < streams.size(); ++s) {
    Simulator ev(design);  // fresh per stream: independent-run semantics
    const SimResult ref = ev.run(streams[s], in, out);
    std::ostringstream tag;
    tag << what << " stream=" << s << "/" << streams.size();
    EXPECT_EQ(results[s].outputs, ref.outputs) << tag.str();
    expect_identical_activity(results[s].activity, ref.activity, tag.str());
  }
}

TEST(SimSlicedTest, MatchesEventDrivenPerStreamOnAllSuiteBenchmarks) {
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    const auto streams = uniform_streams(
        202, Simulator::kMaxStreams, b.graph->inputs().size(), 12, 4);
    for (const auto& style : kernel_styles()) {
      const auto syn = core::synthesize(*b.graph, *b.schedule, style.opts);
      differential_check_sliced(*syn.design, *b.graph, streams,
                                std::string(name) + "/" + style.label);
    }
  }
}

TEST(SimSlicedTest, MatchesEventDrivenOnFuzzGraphs) {
  // Partial bundles (1, 7, 33 streams) exercise the inactive-lane masking;
  // seed 4203 forces a full 64-bit datapath so every plane of every net is
  // live and the Mul/Div/Shl scalar-fallback path runs at full width.
  const struct {
    std::uint64_t seed;
    std::size_t streams;
    unsigned width;  // 0 = derive from seed as the fuzz generator does
  } cases[] = {
      {4201, 64, 0}, {4202, 33, 0}, {4203, 64, 64}, {4204, 7, 0}, {4205, 1, 0}};
  for (const auto& tc : cases) {
    Rng grng(tc.seed);
    dfg::RandomGraphConfig gcfg;
    gcfg.num_inputs = 2 + static_cast<unsigned>(grng.next_below(4));
    gcfg.num_nodes = 8 + static_cast<unsigned>(grng.next_below(16));
    gcfg.width =
        tc.width != 0 ? tc.width : 4 + static_cast<unsigned>(grng.next_below(13));
    const dfg::Graph g = dfg::random_graph(grng, gcfg);
    const dfg::Schedule s = dfg::schedule_asap(g);
    const auto streams = uniform_streams(tc.seed * 31 + 5, tc.streams,
                                         g.inputs().size(), 10, gcfg.width);
    for (const auto& style : kernel_styles()) {
      const auto syn = core::synthesize(g, s, style.opts);
      std::ostringstream what;
      what << "graph_seed=" << tc.seed << " streams=" << tc.streams << " "
           << style.label;
      differential_check_sliced(*syn.design, g, streams, what.str());
    }
  }
}

TEST(SimSlicedTest, RepeatedRunsOnOneSimulatorStayIdentical) {
  // Plane state persists across run_sliced() calls exactly as net_value_
  // persists across run() calls; a second bundle on the same simulator must
  // still match second runs on per-stream EventDriven simulators.
  const auto b = suite::by_name("facet", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto in = b.graph->inputs();
  const auto out = b.graph->outputs();
  const auto s1 = uniform_streams(7, 16, in.size(), 15, 4);
  const auto s2 = uniform_streams(8, 16, in.size(), 15, 4);

  Simulator sliced(*syn.design, Simulator::Mode::BitSliced);
  const auto r1 = sliced.run_sliced(s1, in, out);
  const auto r2 = sliced.run_sliced(s2, in, out);
  for (std::size_t s = 0; s < 16; ++s) {
    Simulator ev(*syn.design);
    const auto ref1 = ev.run(s1[s], in, out);
    const auto ref2 = ev.run(s2[s], in, out);
    const std::string tag = "stream " + std::to_string(s);
    EXPECT_EQ(r1[s].outputs, ref1.outputs) << tag;
    EXPECT_EQ(r2[s].outputs, ref2.outputs) << tag;
    expect_identical_activity(r1[s].activity, ref1.activity, tag + " round 1");
    expect_identical_activity(r2[s].activity, ref2.activity, tag + " round 2");
  }
}

TEST(SimSlicedTest, LanePermutationInvariance) {
  // Shuffling the stream order must permute the per-stream records the same
  // way and leave every aggregate bit-identical: summed activities are
  // integer sums, and sample_stats() accumulates in sorted order.
  const auto b = suite::by_name("hal", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto in = b.graph->inputs();
  const auto out = b.graph->outputs();
  auto streams = uniform_streams(99, 24, in.size(), 20, 4);

  std::vector<std::size_t> perm(streams.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng prng(123);
  prng.shuffle(perm);
  std::vector<InputStream> shuffled(streams.size());
  for (std::size_t i = 0; i < perm.size(); ++i) shuffled[i] = streams[perm[i]];

  Simulator sim_a(*syn.design, Simulator::Mode::BitSliced);
  Simulator sim_b(*syn.design, Simulator::Mode::BitSliced);
  const auto ra = sim_a.run_sliced(streams, in, out);
  const auto rb = sim_b.run_sliced(shuffled, in, out);

  std::vector<Activity> acts_a, acts_b;
  std::vector<double> rates_a, rates_b;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    // Per-stream records follow their stream through the permutation.
    EXPECT_EQ(rb[i].outputs, ra[perm[i]].outputs) << "slot " << i;
    expect_identical_activity(rb[i].activity, ra[perm[i]].activity,
                              "slot " + std::to_string(i));
    acts_a.push_back(ra[i].activity);
    acts_b.push_back(rb[i].activity);
    rates_a.push_back(ra[i].activity.net_rate(0));
    rates_b.push_back(rb[i].activity.net_rate(0));
  }
  // Aggregates are order-free.
  expect_identical_activity(sum_activities(acts_a), sum_activities(acts_b),
                            "summed bundle");
  const SampleStats st_a = sample_stats(rates_a);
  const SampleStats st_b = sample_stats(rates_b);
  EXPECT_EQ(st_a.mean, st_b.mean);
  EXPECT_EQ(st_a.stddev, st_b.stddev);
  EXPECT_EQ(st_a.ci95, st_b.ci95);
}

TEST(SimSlicedTest, CheckOutputsPassesPerStream) {
  // Equivalence against the DFG golden model holds for every lane of the
  // bundle, not just in aggregate.
  const auto b = suite::by_name("biquad", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto in = b.graph->inputs();
  const auto out = b.graph->outputs();
  const auto streams = uniform_streams(314, 32, in.size(), 25, 4);
  Simulator sliced(*syn.design, Simulator::Mode::BitSliced);
  const auto results = sliced.run_sliced(streams, in, out);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const auto rep =
        check_outputs(*b.graph, streams[s], results[s].outputs, "sliced");
    EXPECT_TRUE(rep.equivalent)
        << "stream " << s << ": " << rep.detail;
  }
}

TEST(SimSlicedTest, StreamBundleIsSeedDeterministic) {
  const auto a = uniform_streams(42, 64, 3, 10, 16);
  const auto b = uniform_streams(42, 64, 3, 10, 16);
  EXPECT_EQ(a, b);
  // Stream s depends only on its own derived seed: a narrower bundle from
  // the same base seed is a prefix of the wider one.
  const auto c = uniform_streams(42, 8, 3, 10, 16);
  for (std::size_t s = 0; s < c.size(); ++s) EXPECT_EQ(c[s], a[s]);
  // And a different base seed moves every stream.
  const auto d = uniform_streams(43, 64, 3, 10, 16);
  EXPECT_NE(a, d);
}

TEST(SimSlicedTest, SampleStatsMatchesScalarReferenceToTheUlp) {
  // The production implementation must agree exactly with an independent
  // direct transcription of the definition over the same sorted order.
  Rng rng(77);
  for (std::size_t n : {1u, 2u, 3u, 17u, 64u}) {
    std::vector<double> values(n);
    for (auto& v : values) {
      v = rng.next_double() * 12.5;
    }
    const SampleStats st = sample_stats(values);
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (double v : sorted) sum += v;
    const double mean = sum / static_cast<double>(n);
    EXPECT_EQ(st.n, n);
    EXPECT_EQ(st.mean, mean);
    if (n < 2) {
      EXPECT_EQ(st.stddev, 0.0);
      EXPECT_EQ(st.ci95, 0.0);
      continue;
    }
    double ss = 0.0;
    for (double v : sorted) ss += (v - mean) * (v - mean);
    const double stddev = std::sqrt(ss / static_cast<double>(n - 1));
    EXPECT_EQ(st.stddev, stddev);
    EXPECT_EQ(st.ci95, 1.96 * stddev / std::sqrt(static_cast<double>(n)));
  }
  EXPECT_EQ(sample_stats({}).n, 0u);
  EXPECT_EQ(sample_stats({}).mean, 0.0);
}

TEST(SimSlicedTest, RejectsUnsupportedConfigurations) {
  const auto b = suite::by_name("facet", 4);
  core::SynthesisOptions opts;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto in = b.graph->inputs();
  const auto out = b.graph->outputs();
  Simulator sliced(*syn.design, Simulator::Mode::BitSliced);
  const auto streams = uniform_streams(1, 2, in.size(), 4, 4);
  // Scalar entry point is off-limits in sliced mode and vice versa.
  EXPECT_THROW(sliced.run(streams[0], in, out), Error);
  Simulator ev(*syn.design);
  EXPECT_THROW(ev.run_sliced(streams, in, out), Error);
  // Ragged bundles are rejected.
  auto ragged = streams;
  ragged[1] = fixtures::prefix(ragged[1], ragged[1].size() - 1);
  EXPECT_THROW(sliced.run_sliced(ragged, in, out), Error);
  EXPECT_THROW(sliced.run_sliced({}, in, out), Error);
}

// ---- time slicing: one stream, 64 chunks, bit-identical to run() --------

/// Obs counters of `fn`'s run (the registry is reset around it).
template <typename Fn>
std::map<std::string, std::uint64_t> counters_of(Fn&& fn) {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  fn();
  obs::set_enabled(false);
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [k, v] : obs::Registry::instance().counters()) {
    counters[k] = v;
  }
  obs::Registry::instance().reset();
  return counters;
}


std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Every style the explorer can produce at this width: both conventional
/// baselines and multi-clock n = 1..4 x {integrated, split} x {latch, DFF}
/// x operand isolation off/on (split only for n > 1, as enumerated).
std::vector<StyleCase> time_sliced_styles() {
  std::vector<StyleCase> out;
  for (bool iso : {false, true}) {
    const std::string suffix = iso ? "_iso" : "";
    StyleCase ng{"conv_nongated" + suffix, {}};
    ng.opts.style = DesignStyle::ConventionalNonGated;
    ng.opts.operand_isolation = iso;
    out.push_back(ng);
    StyleCase g{"conv_gated" + suffix, {}};
    g.opts.style = DesignStyle::ConventionalGated;
    g.opts.operand_isolation = iso;
    out.push_back(g);
    for (int n = 1; n <= 4; ++n) {
      for (AllocMethod m : {AllocMethod::Integrated, AllocMethod::Split}) {
        if (m == AllocMethod::Split && n == 1) continue;
        for (bool latches : {true, false}) {
          StyleCase s{"multi_n" + std::to_string(n) +
                          (m == AllocMethod::Split ? "_split" : "_int") +
                          (latches ? "_latch" : "_dff") + suffix,
                      {}};
          s.opts.style = DesignStyle::MultiClock;
          s.opts.num_clocks = n;
          s.opts.method = m;
          s.opts.use_latches = latches;
          s.opts.operand_isolation = iso;
          out.push_back(s);
        }
      }
    }
  }
  return out;
}

/// Every per-domain waveform entry, the folded profile, step_energies()
/// and crest() of `got` and `ref` agree bit for bit.
void expect_identical_waveforms(const PowerProbe& got, const PowerProbe& ref,
                                const std::string& what) {
  EXPECT_EQ(got.steps(), ref.steps()) << what;
  if (got.steps() == ref.steps()) {
    bool same = true;
    for (std::size_t st = 0; st < ref.steps() && same; ++st) {
      for (int d = 0; d <= ref.num_domains(); ++d) {
        if (bits_of(got.step_fj(st, d)) != bits_of(ref.step_fj(st, d))) {
          ADD_FAILURE() << what << ": waveform differs at step " << st
                        << " domain " << d;
          same = false;
          break;
        }
      }
    }
    for (int d = 0; d <= ref.num_domains(); ++d) {
      for (int t = 1; t <= ref.period(); ++t) {
        EXPECT_EQ(bits_of(got.profile_fj(d, t)), bits_of(ref.profile_fj(d, t)))
            << what << " profile d=" << d << " t=" << t;
      }
    }
  }
  const auto got_e = got.step_energies();
  const auto ref_e = ref.step_energies();
  EXPECT_TRUE(std::equal(got_e.begin(), got_e.end(), ref_e.begin(),
                         ref_e.end(),
                         [](double a, double b) {
                           return bits_of(a) == bits_of(b);
                         }))
      << what << ": step_energies differ";
  EXPECT_EQ(bits_of(got.crest()), bits_of(ref.crest())) << what;
}

/// run_time_sliced() of one stream on a BitSliced simulator against run()
/// on a fresh EventDriven one, both with a power probe attached: outputs,
/// Activity, every per-domain waveform entry, step_energies() and crest()
/// must agree bit for bit. Returns whether the design took the time-sliced
/// path.
bool differential_check_time_sliced(const rtl::Design& design,
                                    const dfg::Graph& graph,
                                    const InputStream& stream,
                                    const std::string& what) {
  const auto in = graph.inputs();
  const auto out = graph.outputs();
  const power::Attribution attr(design, power::TechLibrary::cmos08());

  Simulator ev(design);
  PowerProbe ev_probe(attr.energy_model());
  ev.set_power_probe(&ev_probe);
  const SimResult ref = ev.run(stream, in, out);

  Simulator ts(design, Simulator::Mode::BitSliced);
  PowerProbe ts_probe(attr.energy_model());
  ts.set_power_probe(&ts_probe);
  const auto got = ts.run_time_sliced({&stream, 1}, in, out);

  EXPECT_EQ(got.size(), 1u) << what;
  EXPECT_EQ(got.front().outputs, ref.outputs) << what;
  expect_identical_activity(got.front().activity, ref.activity, what);
  expect_identical_waveforms(ts_probe, ev_probe, what);
  return ts.time_sliceable();
}

const std::size_t kSliceLengths[] = {1, 2, 63, 64, 65, 127};

TEST(TimeSlicedTest, MatchesScalarRunOnEverySuiteConfiguration) {
  // The static warm-up check must pass on every design the explorer can
  // produce — otherwise the sweep would silently fall back to scalar.
  for (const std::string& name : suite::all_names()) {
    for (unsigned width : {4u, 8u}) {
      const auto b = suite::by_name(name, width);
      Rng rng(core::record::fnv1a64(name) + width);
      const auto stream = uniform_stream(rng, b.graph->inputs().size(), 127,
                                         width);
      for (const auto& style : time_sliced_styles()) {
        const auto syn = core::synthesize(*b.graph, *b.schedule, style.opts);
        const std::string tag =
            name + "/w" + std::to_string(width) + "/" + style.label;
        for (std::size_t n : kSliceLengths) {
          const InputStream prefix = fixtures::prefix(stream, n);
          EXPECT_TRUE(differential_check_time_sliced(
              *syn.design, *b.graph, prefix,
              tag + " N=" + std::to_string(n)))
              << tag << ": static warm-up check rejected a suite design";
        }
      }
    }
  }
}

TEST(TimeSlicedTest, MatchesScalarRunOnLongStreams) {
  // The sweep's own depth: 2000 computations, 32 per lane over 63 lanes
  // with a right-aligned short last lane.
  for (const std::string& name : suite::all_names()) {
    const auto b = suite::by_name(name, 4);
    Rng rng(core::record::fnv1a64(name));
    const auto stream =
        uniform_stream(rng, b.graph->inputs().size(), 2000, 4);
    for (const auto& style : time_sliced_styles()) {
      if (style.opts.operand_isolation) continue;
      const auto syn = core::synthesize(*b.graph, *b.schedule, style.opts);
      EXPECT_TRUE(differential_check_time_sliced(
          *syn.design, *b.graph, stream, name + "/" + style.label + " N=2000"));
    }
  }
}

TEST(TimeSlicedTest, MatchesScalarRunOnFuzzGraphs) {
  for (std::uint64_t seed : {5101, 5102, 5103, 5104}) {
    Rng grng(seed);
    dfg::RandomGraphConfig gcfg;
    gcfg.num_inputs = 2 + static_cast<unsigned>(grng.next_below(4));
    gcfg.num_nodes = 8 + static_cast<unsigned>(grng.next_below(16));
    gcfg.width =
        seed == 5104 ? 64 : 4 + static_cast<unsigned>(grng.next_below(13));
    const dfg::Graph g = dfg::random_graph(grng, gcfg);
    const dfg::Schedule s = dfg::schedule_asap(g);
    Rng srng(seed * 7 + 1);
    const auto stream =
        uniform_stream(srng, g.inputs().size(), 130, gcfg.width);
    for (const auto& style : kernel_styles()) {
      const auto syn = core::synthesize(g, s, style.opts);
      for (std::size_t n : {1, 64, 65, 130}) {
        const InputStream prefix = fixtures::prefix(stream, n);
        std::ostringstream what;
        what << "graph_seed=" << seed << " " << style.label << " N=" << n;
        differential_check_time_sliced(*syn.design, g, prefix, what.str());
      }
    }
  }
}

TEST(TimeSlicedTest, RepeatedCallsStartFromReset) {
  const auto b = suite::by_name("hal", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto in = b.graph->inputs();
  const auto out = b.graph->outputs();
  Rng rng(11);
  const auto s1 = uniform_stream(rng, in.size(), 300, 4);
  const auto s2 = uniform_stream(rng, in.size(), 90, 4);
  Simulator ts(*syn.design, Simulator::Mode::BitSliced);
  ts.run_time_sliced({&s1, 1}, in, out);
  const auto again = ts.run_time_sliced({&s2, 1}, in, out);
  Simulator fresh(*syn.design);
  const SimResult ref = fresh.run(s2, in, out);
  EXPECT_EQ(again.front().outputs, ref.outputs);
  expect_identical_activity(again.front().activity, ref.activity,
                            "second call");
}

using fixtures::TwoPeriodChain;

TEST(TimeSlicedTest, StaticCheckRejectsATwoPeriodChainAndFallsBack) {
  // A design the static check rejects runs its one stream in the lockstep
  // layout (one lane), still bit-identical to run().
  TwoPeriodChain chain;
  const rtl::Design& d = *chain.design;
  Simulator ts(d, Simulator::Mode::BitSliced);
  EXPECT_FALSE(ts.time_sliceable());
  Rng rng(3);
  const auto stream = uniform_stream(rng, 1, 200, 4);
  const std::vector<dfg::ValueId> in{chain.in_value};
  const std::vector<dfg::ValueId> out{chain.out_value};
  std::vector<SimResult> got;
  const auto counters =
      counters_of([&] { got = ts.run_time_sliced({&stream, 1}, in, out); });
  EXPECT_EQ(counters.at("sim.time_sliced.fallbacks"), 1u);
  EXPECT_EQ(counters.at("sim.time_sliced.lanes"), 1u);
  Simulator ev(d);
  const SimResult ref = ev.run(stream, in, out);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.front().outputs, ref.outputs);
  expect_identical_activity(got.front().activity, ref.activity, "fallback");
  // Not vacuous: the chain really reaches two computations back, so a
  // one-computation warm-up would have been wrong.
  ASSERT_GE(ref.outputs.size(), 3u);
  EXPECT_EQ(ref.outputs[2][0], truncate(stream[1][0], 4));
}

TEST(TimeSlicedTest, ExpiredDeadlineTimesOutOnBothPaths) {
  const auto b = suite::by_name("facet", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  Rng rng(5);
  const auto stream = uniform_stream(rng, b.graph->inputs().size(), 100, 4);
  const auto expired =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  Simulator ts(*syn.design, Simulator::Mode::BitSliced);
  ASSERT_TRUE(ts.time_sliceable());
  ts.set_deadline(expired);
  EXPECT_THROW(ts.run_time_sliced({&stream, 1}, b.graph->inputs(),
                                  b.graph->outputs()),
               TimeoutError);

  TwoPeriodChain chain;
  Simulator fb(*chain.design, Simulator::Mode::BitSliced);
  ASSERT_FALSE(fb.time_sliceable());
  fb.set_deadline(expired);
  const auto chain_stream = uniform_stream(rng, 1, 10, 4);
  EXPECT_THROW(fb.run_time_sliced({&chain_stream, 1}, {chain.in_value},
                                  {chain.out_value}),
               TimeoutError);
}

TEST(TimeSlicedTest, EmptyStreamGivesTheScalarResult) {
  // No computation to slice: one stream or a bundle of empty streams gets
  // run()'s result — no samples, an all-zero Activity, an empty waveform.
  const auto b = suite::by_name("hal", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto in = b.graph->inputs();
  const auto out = b.graph->outputs();
  const power::Attribution attr(*syn.design, power::TechLibrary::cmos08());
  const std::vector<InputStream> empty(2, InputStream(0, in.size()));
  Simulator ev(*syn.design);
  PowerProbe ev_probe(attr.energy_model());
  ev.set_power_probe(&ev_probe);
  const SimResult ref = ev.run(empty[0], in, out);
  EXPECT_EQ(ref.outputs.size(), 0u);
  EXPECT_EQ(ref.activity.computations, 0u);
  for (std::size_t S : {1u, 2u}) {
    const std::string tag = "S=" + std::to_string(S);
    Simulator ts(*syn.design, Simulator::Mode::BitSliced);
    PowerProbe ts_probe(attr.energy_model());
    ts.set_power_probe(&ts_probe);
    const auto got = ts.run_time_sliced({empty.data(), S}, in, out);
    ASSERT_EQ(got.size(), S) << tag;
    for (const SimResult& r : got) {
      EXPECT_EQ(r.outputs, ref.outputs) << tag;
      expect_identical_activity(r.activity, ref.activity, tag);
    }
    expect_identical_waveforms(ts_probe, ev_probe, tag);
  }
}

TEST(TimeSlicedTest, BitSlicedRunsRejectAnObserverOrHeatmapBeforeSimulating) {
  // The bit-sliced kernel keeps no scalar net values to observe and counts
  // no heatmap: a hook attached to it fails the run up front, on both
  // entry points and for one stream or a bundle.
  const auto b = suite::by_name("hal", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto in = b.graph->inputs();
  const auto out = b.graph->outputs();
  const auto streams = uniform_streams(17, 2, in.size(), 100, 4);
  for (const bool observer : {true, false}) {
    for (const bool lockstep : {true, false}) {
      for (std::size_t S : {1u, 2u}) {
        const std::string tag = std::string(observer ? "observer" : "heatmap") +
                                (lockstep ? " run_sliced" : " run_time_sliced") +
                                " S=" + std::to_string(S);
        Simulator sim(*syn.design, Simulator::Mode::BitSliced);
        std::size_t steps = 0;
        PhaseHeatmap hm;
        if (observer) {
          sim.set_observer(
              [&](std::uint64_t, const std::vector<std::uint64_t>&) { ++steps; });
        } else {
          sim.set_heatmap(&hm);
        }
        const std::vector<InputStream> bundle(streams.begin(),
                                              streams.begin() + S);
        const auto counters = counters_of([&] {
          try {
            if (lockstep) {
              sim.run_sliced(bundle, in, out);
            } else {
              sim.run_time_sliced(bundle, in, out);
            }
            ADD_FAILURE() << tag << ": the hook was accepted";
          } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("observer or heatmap"),
                      std::string::npos)
                << tag << ": " << e.what();
          }
        });
        EXPECT_EQ(sim.kernel_stats().settles, 0u) << tag;
        EXPECT_EQ(steps, 0u) << tag;
        EXPECT_TRUE(hm.write_toggles.empty()) << tag;
        EXPECT_EQ(counters.count("sim.sliced.runs"), 0u) << tag;
        EXPECT_EQ(counters.count("sim.time_sliced.runs"), 0u) << tag;
      }
    }
  }
}

// ---- time-sliced bundles: S streams x floor(64/S) chunks -----------------

/// The bundle run_time_sliced() against a lockstep run_sliced() of the same
/// streams on a fresh simulator, both with a power probe attached:
/// per-stream outputs and Activity, and the aggregate waveform, bit for
/// bit.
void differential_check_bundle(const rtl::Design& design,
                               const dfg::Graph& graph,
                               const std::vector<InputStream>& streams,
                               const std::string& what) {
  const auto in = graph.inputs();
  const auto out = graph.outputs();
  const power::Attribution attr(design, power::TechLibrary::cmos08());

  Simulator ls(design, Simulator::Mode::BitSliced);
  PowerProbe ls_probe(attr.energy_model());
  ls.set_power_probe(&ls_probe);
  const auto ref = ls.run_sliced(streams, in, out);

  Simulator ts(design, Simulator::Mode::BitSliced);
  PowerProbe ts_probe(attr.energy_model());
  ts.set_power_probe(&ts_probe);
  const auto got = ts.run_time_sliced(streams, in, out);

  ASSERT_EQ(got.size(), streams.size()) << what;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const std::string tag = what + " stream=" + std::to_string(s);
    EXPECT_EQ(got[s].outputs, ref[s].outputs) << tag;
    expect_identical_activity(got[s].activity, ref[s].activity, tag);
  }
  expect_identical_waveforms(ts_probe, ls_probe, what);
}

// 4 and 5 straddle the largest bundle that counts plain per-stream totals.
const std::size_t kBundleSizes[] = {2, 3, 4, 5, 6, 8, 16, 32, 33, 64};

TEST(TimeSlicedBundleTest, MatchesLockstepOnEverySuiteConfiguration) {
  // Every suite behaviour x width x bundle size x length; the design
  // styles rotate across the grid so each (behaviour, width, S) cell sees
  // three of them and every style is covered many times over.
  const auto styles = time_sliced_styles();
  std::size_t cell = 0;
  for (const std::string& name : suite::all_names()) {
    for (unsigned width : {4u, 8u}) {
      const auto b = suite::by_name(name, width);
      for (std::size_t S : kBundleSizes) {
        const auto streams =
            uniform_streams(core::record::fnv1a64(name) + width * 64 + S, S,
                            b.graph->inputs().size(), 127, width);
        for (std::size_t k = cell++ % 11; k < styles.size(); k += 11) {
          const auto syn =
              core::synthesize(*b.graph, *b.schedule, styles[k].opts);
          const std::string tag = name + "/w" + std::to_string(width) + "/" +
                                  styles[k].label + " S=" + std::to_string(S);
          for (std::size_t n : kSliceLengths) {
            std::vector<InputStream> prefix;
            for (const auto& st : streams) {
              prefix.push_back(fixtures::prefix(st, n));
            }
            differential_check_bundle(*syn.design, *b.graph, prefix,
                                      tag + " N=" + std::to_string(n));
          }
        }
      }
    }
  }
}

TEST(TimeSlicedBundleTest, MatchesLockstepOnFuzzGraphs) {
  for (std::uint64_t seed : {5201, 5202, 5203}) {
    Rng grng(seed);
    dfg::RandomGraphConfig gcfg;
    gcfg.num_inputs = 2 + static_cast<unsigned>(grng.next_below(4));
    gcfg.num_nodes = 8 + static_cast<unsigned>(grng.next_below(16));
    gcfg.width =
        seed == 5203 ? 64 : 4 + static_cast<unsigned>(grng.next_below(13));
    const dfg::Graph g = dfg::random_graph(grng, gcfg);
    const dfg::Schedule s = dfg::schedule_asap(g);
    for (std::size_t S : {2u, 5u, 16u}) {
      const auto streams = uniform_streams(seed * 7 + S, S, g.inputs().size(),
                                           130, gcfg.width);
      for (const auto& style : kernel_styles()) {
        const auto syn = core::synthesize(g, s, style.opts);
        std::ostringstream what;
        what << "graph_seed=" << seed << " " << style.label << " S=" << S;
        differential_check_bundle(*syn.design, g, streams, what.str());
      }
    }
  }
}

/// A random graph of `nodes` 64-bit operations over four inputs and its
/// ASAP schedule.
struct WideFuzz {
  dfg::Graph graph;
  dfg::Schedule sched;
  WideFuzz(std::uint64_t seed, unsigned nodes)
      : graph([&] {
          Rng grng(seed);
          dfg::RandomGraphConfig gcfg;
          gcfg.num_inputs = 4;
          gcfg.num_nodes = nodes;
          gcfg.width = 64;
          return dfg::random_graph(grng, gcfg);
        }()),
        sched(dfg::schedule_asap(graph)) {}
};

/// A lower bound on the most toggles one data energy class of `probe`
/// takes in one step of a scalar run of `stream`: the bits that differ
/// between consecutive step ends.
std::uint64_t max_class_step_count(const rtl::Design& design,
                                   const dfg::Graph& graph,
                                   const InputStream& stream,
                                   const PowerProbe& probe) {
  Simulator ev(design);
  std::vector<std::uint64_t> prev;
  std::uint64_t most = 0;
  ev.set_observer([&](std::uint64_t, const std::vector<std::uint64_t>& nets) {
    if (!prev.empty()) {
      std::vector<std::uint64_t> per_class(probe.num_classes(), 0);
      for (std::size_t i = 0; i < nets.size(); ++i) {
        per_class[probe.net_class(i)] += hamming(prev[i], nets[i]);
      }
      for (std::size_t c = probe.num_controller_classes(); c < per_class.size();
           ++c) {
        most = std::max(most, per_class[c]);
      }
    }
    prev = nets;
  });
  ev.run(stream, graph.inputs(), graph.outputs());
  return most;
}

TEST(TimeSlicedTest, ClassCountsAbove255PerLaneStayExact) {
  // 24 random 64-bit operations under one gated clock: a data class takes
  // more than 255 toggles in one step of one lane, past a byte of counter.
  const WideFuzz f(5302, 24);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::ConventionalGated;
  const auto syn = core::synthesize(f.graph, f.sched, opts);
  const power::Attribution attr(*syn.design, power::TechLibrary::cmos08());
  const PowerProbe probe(attr.energy_model());
  Rng rng(5302);
  const auto stream = uniform_stream(rng, f.graph.inputs().size(), 130, 64);
  ASSERT_GT(max_class_step_count(*syn.design, f.graph, stream, probe), 255u);
  EXPECT_TRUE(differential_check_time_sliced(*syn.design, f.graph, stream,
                                             "gated, 64-bit"));
  // S = 2 folds lane pairs before it unpacks; 3 and 4 sum lanes after.
  for (std::size_t S : {2u, 3u, 4u}) {
    differential_check_bundle(
        *syn.design, f.graph,
        uniform_streams(5301 + S, S, f.graph.inputs().size(), 130, 64),
        "gated, 64-bit, S=" + std::to_string(S));
  }
}

TEST(TimeSlicedTest, MoreThan64EnergyClassesStayExact) {
  // 60 random 64-bit operations under three clocks: more energy classes
  // than one 64-bit word of the touched-class set holds.
  const WideFuzz f(5301, 60);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = core::synthesize(f.graph, f.sched, opts);
  const power::Attribution attr(*syn.design, power::TechLibrary::cmos08());
  ASSERT_GT(PowerProbe(attr.energy_model()).num_classes(), 64u);
  Rng rng(5301);
  const auto stream = uniform_stream(rng, f.graph.inputs().size(), 130, 64);
  EXPECT_TRUE(differential_check_time_sliced(*syn.design, f.graph, stream,
                                             "3 clocks, 64-bit"));
  for (std::size_t S : {2u, 3u, 4u}) {
    differential_check_bundle(
        *syn.design, f.graph,
        uniform_streams(5302 + S, S, f.graph.inputs().size(), 130, 64),
        "3 clocks, 64-bit, S=" + std::to_string(S));
  }
}

TEST(TimeSlicedBundleTest, TakesTheBundlePathOnSuiteDesigns) {
  const auto b = suite::by_name("biquad", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto streams =
      uniform_streams(8, 2, b.graph->inputs().size(), 256, 4);
  const auto counters = counters_of([&] {
    Simulator ts(*syn.design, Simulator::Mode::BitSliced);
    ts.run_time_sliced(streams, b.graph->inputs(), b.graph->outputs());
  });
  EXPECT_EQ(counters.at("sim.time_sliced.bundle_runs"), 1u);
  EXPECT_EQ(counters.at("sim.time_sliced.bundle_streams"), 2u);
  EXPECT_EQ(counters.at("sim.time_sliced.lanes"), 64u);
  EXPECT_EQ(counters.count("sim.time_sliced.fallbacks"), 0u);
  EXPECT_EQ(counters.count("sim.sliced.runs"), 0u);
}

TEST(TimeSlicedBundleTest, SmallBundlesCountPlainPerStreamTotals) {
  // Up to four streams, each counter holds one plain total per stream;
  // larger bundles and the lockstep pass keep per-lane vertical counters.
  // Four is the measured crossover (DESIGN.md §7).
  constexpr std::size_t kMaxTotalsStreams = 4;
  const auto b = suite::by_name("hal", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto in = b.graph->inputs();
  const auto out = b.graph->outputs();
  const power::Attribution attr(*syn.design, power::TechLibrary::cmos08());
  auto totals_runs = [&](std::size_t S) {
    const auto streams = uniform_streams(60 + S, S, in.size(), 100, 4);
    Simulator ts(*syn.design, Simulator::Mode::BitSliced);
    PowerProbe probe(attr.energy_model());
    ts.set_power_probe(&probe);
    const auto counters =
        counters_of([&] { ts.run_time_sliced(streams, in, out); });
    const auto it = counters.find("sim.time_sliced.stream_totals");
    return it == counters.end() ? 0 : it->second;
  };
  for (std::size_t S = 2; S <= kMaxTotalsStreams; ++S) {
    EXPECT_EQ(totals_runs(S), 1u) << "S=" << S;
  }
  EXPECT_EQ(totals_runs(kMaxTotalsStreams + 1), 0u);
  EXPECT_EQ(totals_runs(Simulator::kMaxStreams), 0u);
  const auto streams = uniform_streams(61, 2, in.size(), 100, 4);
  const auto lockstep = counters_of([&] {
    Simulator ls(*syn.design, Simulator::Mode::BitSliced);
    ls.run_sliced(streams, in, out);
  });
  EXPECT_EQ(lockstep.count("sim.time_sliced.stream_totals"), 0u);
}

TEST(TimeSlicedBundleTest, BudgetMatchesBudgetedScalarRun) {
  // A budget truncates the lane layout, not the stream: the last boundary
  // still presents computation n's inputs, so the result equals a budgeted
  // run() — for one stream (waveform included) and for a bundle.
  const auto b = suite::by_name("hal", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto in = b.graph->inputs();
  const auto out = b.graph->outputs();
  const power::Attribution attr(*syn.design, power::TechLibrary::cmos08());
  const auto streams = uniform_streams(21, 3, in.size(), 150, 4);
  for (std::size_t n : {1, 8, 63, 64, 65, 150, 400}) {
    const std::string tag = "budget=" + std::to_string(n);
    Simulator ev(*syn.design);
    PowerProbe ev_probe(attr.energy_model());
    ev.set_power_probe(&ev_probe);
    ev.set_computation_budget(n);
    const SimResult ref = ev.run(streams[0], in, out);

    Simulator ts(*syn.design, Simulator::Mode::BitSliced);
    PowerProbe ts_probe(attr.energy_model());
    ts.set_power_probe(&ts_probe);
    ts.set_computation_budget(n);
    std::vector<SimResult> one;
    const auto counters = counters_of(
        [&] { one = ts.run_time_sliced({&streams[0], 1}, in, out); });
    ASSERT_EQ(one.size(), 1u) << tag;
    const SimResult& got = one.front();
    EXPECT_EQ(got.outputs, ref.outputs) << tag;
    expect_identical_activity(got.activity, ref.activity, tag);
    expect_identical_waveforms(ts_probe, ev_probe, tag);
    EXPECT_EQ(counters.count("sim.time_sliced.fallbacks"), 0u) << tag;
    EXPECT_EQ(counters.at("sim.time_sliced.budgeted_runs"), 1u) << tag;

    Simulator tb(*syn.design, Simulator::Mode::BitSliced);
    tb.set_computation_budget(n);
    const auto bundle = tb.run_time_sliced(streams, in, out);
    ASSERT_EQ(bundle.size(), streams.size());
    for (std::size_t s = 0; s < streams.size(); ++s) {
      Simulator one(*syn.design);
      one.set_computation_budget(n);
      const SimResult r = one.run(streams[s], in, out);
      EXPECT_EQ(bundle[s].outputs, r.outputs) << tag << " stream " << s;
      expect_identical_activity(bundle[s].activity, r.activity,
                                tag + " stream " + std::to_string(s));
    }
  }
}

TEST(TimeSlicedBundleTest, NonSliceableDesignRunsLockstep) {
  TwoPeriodChain chain;
  const rtl::Design& d = *chain.design;
  const std::vector<dfg::ValueId> in{chain.in_value};
  const std::vector<dfg::ValueId> out{chain.out_value};
  for (std::size_t S : {2u, 4u, 8u}) {
    const auto streams = uniform_streams(40 + S, S, 1, 200, 4);
    Simulator ls(d, Simulator::Mode::BitSliced);
    const auto ref = ls.run_sliced(streams, in, out);
    Simulator ts(d, Simulator::Mode::BitSliced);
    std::vector<SimResult> got;
    const auto counters =
        counters_of([&] { got = ts.run_time_sliced(streams, in, out); });
    EXPECT_EQ(counters.at("sim.time_sliced.fallbacks"), 1u);
    EXPECT_EQ(counters.at("sim.time_sliced.lanes"), S);
    ASSERT_EQ(got.size(), S);
    for (std::size_t s = 0; s < S; ++s) {
      const std::string tag =
          "S=" + std::to_string(S) + " stream=" + std::to_string(s);
      EXPECT_EQ(got[s].outputs, ref[s].outputs) << tag;
      expect_identical_activity(got[s].activity, ref[s].activity, tag);
    }
  }
}

TEST(TimeSlicedBundleTest, ExpiredDeadlineTimesOut) {
  const auto b = suite::by_name("facet", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  const auto streams = uniform_streams(5, 4, b.graph->inputs().size(), 100, 4);
  Simulator ts(*syn.design, Simulator::Mode::BitSliced);
  ASSERT_TRUE(ts.time_sliceable());
  ts.set_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  EXPECT_THROW(
      ts.run_time_sliced(streams, b.graph->inputs(), b.graph->outputs()),
      TimeoutError);
}

TEST(TimeSlicedBundleTest, RejectsBadBundles) {
  const auto b = suite::by_name("facet", 4);
  const auto syn = core::synthesize(*b.graph, *b.schedule, {});
  const auto in = b.graph->inputs();
  const auto out = b.graph->outputs();
  Simulator ts(*syn.design, Simulator::Mode::BitSliced);
  EXPECT_THROW(ts.run_time_sliced(std::vector<InputStream>{}, in, out), Error);
  auto ragged = uniform_streams(1, 2, in.size(), 10, 4);
  ragged[1] = fixtures::prefix(ragged[1], 9);
  EXPECT_THROW(ts.run_time_sliced(ragged, in, out), Error);
  Simulator ev(*syn.design);
  EXPECT_THROW(ev.run_time_sliced(uniform_streams(1, 2, in.size(), 10, 4), in,
                                  out),
               Error);
}

// ---- vertical counters: per-bit small counters, flushed every 15 writes ---

/// An energy model in which every net, storage element and phase is its
/// own domain at 1 fJ per event, so a probe row holds each item's integer
/// count of the step and rows add exactly across streams. Controller and
/// constant nets form controller classes when `controller_classes`, else
/// (net_controller empty) every net is a data class.
EnergyModel counting_model(const rtl::Design& design, bool controller_classes) {
  const rtl::Netlist& nl = design.netlist;
  const auto phases = static_cast<std::size_t>(design.clocks.num_phases());
  const std::size_t nets = nl.num_nets();
  const std::size_t comps = nl.num_components();
  EnergyModel m;
  m.num_domains = static_cast<int>(phases + nets + comps);
  m.period = design.clocks.period();
  m.net_fj.assign(nets, 1.0);
  m.storage_clock_fj.assign(comps, 1.0);
  for (std::size_t i = 0; i < nets; ++i) {
    m.net_domain.push_back(static_cast<std::uint32_t>(phases + 1 + i));
  }
  for (std::size_t i = 0; i < comps; ++i) {
    m.storage_domain.push_back(
        static_cast<std::uint32_t>(phases + 1 + nets + i));
  }
  m.phase_pulse_fj.assign(static_cast<std::size_t>(m.num_domains) + 1, 0.0);
  std::fill_n(m.phase_pulse_fj.begin() + 1, phases, 1.0);
  if (controller_classes) {
    m.net_controller.assign(nets, 0);
    for (const auto& c : nl.components()) {
      if (c.kind == rtl::CompKind::ControlSource ||
          c.kind == rtl::CompKind::Constant) {
        m.net_controller[c.output.index()] = 1;
      }
    }
  }
  return m;
}

/// Every stream of `streams` on its own Oblivious simulator, and the bundle
/// through run_time_sliced() and the lockstep run_sliced(), all with a
/// probe on the counting model: each stream's outputs and Activity, and
/// every row of the bundle's probe (the streams' rows summed), bit for
/// bit.
void check_vertical_counters(const rtl::Design& design, const dfg::Graph& graph,
                             const std::vector<InputStream>& streams,
                             bool controller_classes, const std::string& what) {
  const auto in = graph.inputs();
  const auto out = graph.outputs();
  const EnergyModel model = counting_model(design, controller_classes);
  std::vector<SimResult> refs;
  std::vector<double> rows;  // steps x (n+1) domains, summed over streams
  const auto domains = static_cast<std::size_t>(model.num_domains) + 1;
  for (const auto& stream : streams) {
    Simulator ob(design, Simulator::Mode::Oblivious);
    PowerProbe probe(model);
    ob.set_power_probe(&probe);
    refs.push_back(ob.run(stream, in, out));
    rows.resize(probe.steps() * domains, 0.0);
    for (std::size_t st = 0; st < probe.steps(); ++st) {
      for (std::size_t d = 0; d < domains; ++d) {
        rows[st * domains + d] += probe.step_fj(st, static_cast<int>(d));
      }
    }
  }
  for (const bool lockstep : {false, true}) {
    const std::string tag = what + (lockstep ? " run_sliced" : " time-sliced");
    Simulator sim(design, Simulator::Mode::BitSliced);
    PowerProbe probe(model);
    sim.set_power_probe(&probe);
    const auto got = lockstep ? sim.run_sliced(streams, in, out)
                              : sim.run_time_sliced(streams, in, out);
    ASSERT_EQ(got.size(), streams.size()) << tag;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::string st = tag + " stream=" + std::to_string(s);
      EXPECT_EQ(got[s].outputs, refs[s].outputs) << st;
      expect_identical_activity(got[s].activity, refs[s].activity, st);
    }
    ASSERT_EQ(probe.steps() * domains, rows.size()) << tag;
    std::size_t differ = 0;
    for (std::size_t st = 0; st < probe.steps(); ++st) {
      for (std::size_t d = 0; d < domains; ++d) {
        differ += bits_of(probe.step_fj(st, static_cast<int>(d))) !=
                  bits_of(rows[st * domains + d]);
      }
    }
    EXPECT_EQ(differ, 0u) << tag << ": probe rows differ from the summed "
                                    "Oblivious rows";
  }
}

/// Bundles past the plain-totals limit (S = 6: ten groups of per-group
/// rows; 33 and 64: the lockstep layout) over stream lengths whose nets end
/// the pass with 0..14 unflushed writes — N = 1 flushes nothing before the
/// results — on a 4-bit suite design and a 64-bit fuzz design.
void check_vertical_counter_grid(bool controller_classes) {
  const auto b = suite::by_name("hal", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto hal = core::synthesize(*b.graph, *b.schedule, opts);
  const WideFuzz f(5401, 12);
  core::SynthesisOptions wide_opts;
  wide_opts.style = DesignStyle::MultiClock;
  wide_opts.num_clocks = 2;
  const auto wide = core::synthesize(f.graph, f.sched, wide_opts);
  const struct {
    const char* name;
    const rtl::Design& design;
    const dfg::Graph& graph;
    unsigned width;
  } designs[] = {{"hal/w4", *hal.design, *b.graph, 4},
                 {"fuzz/w64", *wide.design, f.graph, 64}};
  for (const auto& d : designs) {
    for (std::size_t S : {6u, 33u, 64u}) {
      for (std::size_t n : {1u, 23u, 61u}) {
        const auto streams = uniform_streams(5400 + S * 131 + n, S,
                                             d.graph.inputs().size(), n,
                                             d.width);
        const auto counters = counters_of([&] {
          check_vertical_counters(d.design, d.graph, streams,
                                  controller_classes,
                                  std::string(d.name) + " S=" +
                                      std::to_string(S) +
                                      " N=" + std::to_string(n));
        });
        EXPECT_GT(counters.at("sim.sliced.counter_flushes"), 0u)
            << d.name << " S=" << S << " N=" << n;
      }
    }
  }
}

TEST(VerticalCounterTest, BundlesMatchObliviousRunsRowForRow) {
  check_vertical_counter_grid(true);
}

TEST(VerticalCounterTest, DataClassLinesMatchObliviousRunsRowForRow) {
  // No net_controller: every controller line is a data class, counted into
  // the probe per write while its Activity still comes from the schedule.
  check_vertical_counter_grid(false);
}

TEST(VerticalCounterTest, ShortPassFlushesEachCountedNetOnce) {
  // One computation writes a net at most twice per step, fewer than 15
  // times in all: no net flushes before the results, which flush each net
  // a counted write reached — every datapath net that toggled (controller
  // lines are counted from the schedule) — exactly once.
  const auto b = suite::by_name("facet", 4);
  core::SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
  ASSERT_LT(2 * syn.design->clocks.period(), 15);
  const auto streams = uniform_streams(77, 8, b.graph->inputs().size(), 1, 4);
  std::vector<SimResult> got;
  const auto counters = counters_of([&] {
    Simulator ls(*syn.design, Simulator::Mode::BitSliced);
    got = ls.run_sliced(streams, b.graph->inputs(), b.graph->outputs());
  });
  const rtl::Netlist& nl = syn.design->netlist;
  std::uint64_t toggled = 0;
  for (const auto& net : nl.nets()) {
    const auto kind = nl.comp(net.driver).kind;
    if (kind == rtl::CompKind::ControlSource) continue;
    std::uint64_t total = 0;
    for (const auto& r : got) total += r.activity.net_toggles[net.id.index()];
    toggled += total != 0 ? 1 : 0;
  }
  EXPECT_GT(toggled, 0u);
  EXPECT_EQ(counters.at("sim.sliced.counter_flushes"), toggled);
}

// ---- stream shape: checked once, at the entry point ----------------------

/// A 4-stream bundle for `b` whose stream 2 is `width` inputs wide.
std::vector<InputStream> bundle_with_bad_stream(const suite::Benchmark& b,
                                                std::size_t width) {
  auto streams = uniform_streams(3, 4, b.graph->inputs().size(), 20, 4);
  Rng rng(4);
  streams[2] = uniform_stream(rng, width, 20, 4);
  return streams;
}

TEST(StreamShapeTest, RunSlicedRejectsWrongWidthBeforeSimulating) {
  const auto b = suite::by_name("hal", 4);
  const auto syn = core::synthesize(*b.graph, *b.schedule, {});
  const std::size_t inputs = b.graph->inputs().size();
  for (std::size_t width : {inputs - 1, inputs + 1}) {
    const auto streams = bundle_with_bad_stream(b, width);
    Simulator sim(*syn.design, Simulator::Mode::BitSliced);
    fixtures::expect_width_error(
        [&] { sim.run_sliced(streams, b.graph->inputs(), b.graph->outputs()); },
        inputs, width);
    EXPECT_EQ(sim.kernel_stats().settles, 0u);
    EXPECT_EQ(sim.kernel_stats().evals, 0u);
  }
}

TEST(StreamShapeTest, RunTimeSlicedRejectsWrongWidthBeforeSimulating) {
  const auto b = suite::by_name("hal", 4);
  const auto syn = core::synthesize(*b.graph, *b.schedule, {});
  const std::size_t inputs = b.graph->inputs().size();
  Rng rng(5);
  for (std::size_t width : {inputs - 1, inputs + 1}) {
    const auto stream = uniform_stream(rng, width, 200, 4);
    Simulator sim(*syn.design, Simulator::Mode::BitSliced);
    ASSERT_TRUE(sim.time_sliceable());
    const auto counters = counters_of([&] {
      fixtures::expect_width_error(
          [&] {
            sim.run_time_sliced({&stream, 1}, b.graph->inputs(),
                                b.graph->outputs());
          },
          inputs, width);
    });
    EXPECT_EQ(sim.kernel_stats().settles, 0u);
    EXPECT_EQ(sim.kernel_stats().evals, 0u);
    // Neither the sliced pass nor the static check's lockstep choice ran.
    EXPECT_EQ(counters.count("sim.time_sliced.runs"), 0u);
    EXPECT_EQ(counters.count("sim.time_sliced.fallbacks"), 0u);
  }
}

TEST(StreamShapeTest, RunTimeSlicedBundleRejectsWrongWidthBeforeSimulating) {
  const auto b = suite::by_name("hal", 4);
  const auto syn = core::synthesize(*b.graph, *b.schedule, {});
  const std::size_t inputs = b.graph->inputs().size();
  for (std::size_t width : {inputs - 1, inputs + 1}) {
    const auto streams = bundle_with_bad_stream(b, width);
    Simulator sim(*syn.design, Simulator::Mode::BitSliced);
    const auto counters = counters_of([&] {
      fixtures::expect_width_error(
          [&] {
            sim.run_time_sliced(streams, b.graph->inputs(),
                                b.graph->outputs());
          },
          inputs, width);
    });
    EXPECT_EQ(sim.kernel_stats().settles, 0u);
    EXPECT_EQ(sim.kernel_stats().evals, 0u);
    EXPECT_EQ(counters.count("sim.time_sliced.runs"), 0u);
  }
}

}  // namespace
}  // namespace mcrtl::sim
