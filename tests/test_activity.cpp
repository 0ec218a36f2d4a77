// Unit tests for the profile-guided activity-aware register binding.
#include <gtest/gtest.h>

#include "alloc/activity.hpp"
#include "core/measure.hpp"
#include "dfg/random_graph.hpp"
#include "dfg/schedule.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"

namespace mcrtl::alloc {
namespace {

using dfg::Graph;
using dfg::Op;
using dfg::Schedule;
using dfg::ValueId;

TEST(ActivityProfileTest, ConstantValueHasDegenerateBits) {
  Graph g("c", 8);
  const ValueId a = g.add_input("a");
  const ValueId zero = g.add_constant(0);
  const ValueId anded = g.add_op(Op::And, a, zero, "anded");  // always 0
  g.mark_output(anded);
  Rng rng(1);
  const dfg::Schedule s = dfg::schedule_asap(g);
  (void)s;
  const auto profile = ActivityProfile::measure(g, 200, rng);
  for (unsigned b = 0; b < 8; ++b) {
    EXPECT_EQ(profile.bit_probability(anded, b), 0.0);
  }
}

TEST(ActivityProfileTest, UniformInputNearHalf) {
  Graph g("u", 8);
  const ValueId a = g.add_input("a");
  g.mark_output(g.add_unary(Op::Pass, a));
  Rng rng(2);
  const auto profile = ActivityProfile::measure(g, 4000, rng);
  for (unsigned b = 0; b < 8; ++b) {
    EXPECT_NEAR(profile.bit_probability(a, b), 0.5, 0.05);
  }
}

TEST(ActivityProfileTest, ExpectedHammingIdenticalDistributionsIsPositive) {
  // Expected Hamming between independent uniform draws of w bits is w/2.
  Graph g("h", 8);
  const ValueId a = g.add_input("a");
  const ValueId b = g.add_input("b");
  g.mark_output(g.add_op(Op::Add, a, b));
  Rng rng(3);
  const auto profile = ActivityProfile::measure(g, 4000, rng);
  EXPECT_NEAR(profile.expected_hamming(a, b), 4.0, 0.3);
}

TEST(ActivityProfileTest, SimilarValuesCheaperThanDissimilar) {
  Graph g("sim", 8);
  const ValueId a = g.add_input("a");
  const ValueId low = g.add_constant(3);
  const ValueId hi = g.add_constant(-16);  // 0xF0: disjoint bit pattern
  const ValueId va = g.add_op(Op::And, a, low, "va");   // bits 0..1 only
  const ValueId vb = g.add_op(Op::And, a, low, "vb");   // same distribution
  const ValueId vc = g.add_op(Op::Or, a, hi, "vc");     // bits 4..7 forced 1
  g.mark_output(va);
  g.mark_output(vb);
  g.mark_output(vc);
  Rng rng(4);
  const auto profile = ActivityProfile::measure(g, 2000, rng);
  EXPECT_LT(profile.expected_hamming(va, vb), profile.expected_hamming(va, vc));
}

TEST(ActivityBindingTest, PacksValidly) {
  Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    dfg::RandomGraphConfig cfg;
    cfg.num_nodes = 20;
    const Graph g = dfg::random_graph(rng, cfg);
    const Schedule s = dfg::schedule_asap(g);
    const LifetimeAnalysis lts(s);
    Rng prng(6);
    const auto profile = ActivityProfile::measure(g, 200, prng);

    Binding b(s, lts, 1);
    ActivityBindingOptions opts;
    allocate_storage_activity_aware(b, profile, opts);
    FuBindingOptions fu;
    allocate_func_units_greedy(b, fu);
    EXPECT_NO_THROW(b.finalize());  // validates lifetime compatibility
  }
}

TEST(ActivityBindingTest, AllowExtraNeverBelowBestFit) {
  Rng rng(7);
  dfg::RandomGraphConfig cfg;
  cfg.num_nodes = 24;
  const Graph g = dfg::random_graph(rng, cfg);
  const Schedule s = dfg::schedule_asap(g);
  const LifetimeAnalysis lts(s);
  Rng prng(8);
  const auto profile = ActivityProfile::measure(g, 200, prng);

  auto count = [&](bool allow_extra) {
    Binding b(s, lts, 1);
    ActivityBindingOptions opts;
    opts.allow_extra = allow_extra;
    allocate_storage_activity_aware(b, profile, opts);
    return b.storage().size();
  };
  EXPECT_GE(count(true), count(false));
}

TEST(ActivityBindingTest, EndToEndEquivalence) {
  // The extension must never change functional behaviour.
  for (const char* name : {"facet", "hal", "biquad"}) {
    const auto b = suite::by_name(name, 8);
    core::SynthesisOptions opts;
    opts.style = core::DesignStyle::MultiClock;
    opts.num_clocks = 3;
    opts.storage_binding = core::StorageBinding::ActivityAware;
    const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
    Rng rng(9);
    const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(), 80, 8);
    EXPECT_NO_THROW(core::measure(*syn.design, *b.graph,
                                  core::make_stimulus(*b.graph, {stream}),
                                  power::TechLibrary::cmos08()))
        << name;
  }
}

TEST(ActivityBindingTest, ReducesStorageWriteTogglesOnCorrelatedValues) {
  // A behaviour with two "families" of values (low-bits-only and
  // high-bits-only): activity-aware packing should cut write toggles
  // measurably vs left-edge on the same schedule.
  Graph g("fam", 8);
  const ValueId x = g.add_input("x");
  const ValueId lo_mask = g.add_constant(0x0F, "lomask");
  const ValueId hi_mask = g.add_constant(-16, "himask");  // 0xF0
  ValueId lo = g.add_op(Op::And, x, lo_mask, "lo0");
  ValueId hi = g.add_op(Op::Or, x, hi_mask, "hi0");
  for (int i = 1; i < 4; ++i) {
    lo = g.add_op(Op::And, lo, lo_mask, "lo" + std::to_string(i));
    hi = g.add_op(Op::Or, hi, hi_mask, "hi" + std::to_string(i));
  }
  g.mark_output(lo);
  g.mark_output(hi);
  const Schedule s = dfg::schedule_asap(g);

  auto toggles = [&](core::StorageBinding binding) {
    core::SynthesisOptions opts;
    opts.style = core::DesignStyle::MultiClock;
    opts.num_clocks = 1;
    opts.storage_binding = binding;
    const auto syn = core::synthesize(g, s, opts);
    Rng rng(11);
    const auto stream = sim::uniform_stream(rng, 1, 600, 8);
    sim::Simulator simulator(*syn.design);
    const auto res = simulator.run(stream, g.inputs(), g.outputs());
    std::uint64_t t = 0;
    for (const auto& w : res.activity.storage_write_toggles) t += w;
    return t;
  };
  EXPECT_LE(toggles(core::StorageBinding::ActivityAware),
            toggles(core::StorageBinding::LeftEdge));
}

}  // namespace
}  // namespace mcrtl::alloc
