// Unit tests for the benchmark suite: structure, schedules, op mixes.
#include <gtest/gtest.h>

#include <map>

#include "dfg/interpreter.hpp"
#include "suite/benchmarks.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mcrtl::suite {
namespace {

TEST(SuiteTest, AllBenchmarksValidate) {
  for (const auto& name : all_names()) {
    const Benchmark b = by_name(name, 8);
    EXPECT_NO_THROW(b.graph->validate()) << name;
    EXPECT_NO_THROW(b.schedule->validate()) << name;
    EXPECT_EQ(b.name, name);
    EXPECT_FALSE(b.description.empty());
  }
}

TEST(SuiteTest, PaperTablesBelongToTheFourPaperBenchmarks) {
  const std::map<std::string, std::string> tables{{"facet", "Table 1: "},
                                                  {"hal", "Table 2: "},
                                                  {"biquad", "Table 3: "},
                                                  {"bandpass", "Table 4: "}};
  for (const auto& name : all_names()) {
    const Benchmark b = by_name(name);
    const auto it = tables.find(name);
    ASSERT_EQ(b.paper.has_value(), it != tables.end()) << name;
    if (!b.paper) continue;
    EXPECT_EQ(b.paper->title.rfind(it->second, 0), 0u) << b.paper->title;
  }
}

TEST(SuiteTest, UnknownNameThrows) {
  EXPECT_THROW(by_name("nope"), Error);
}

TEST(SuiteTest, WidthPropagates) {
  for (unsigned w : {4u, 8u, 16u}) {
    EXPECT_EQ(hal(w).graph->width(), w);
  }
}

TEST(SuiteTest, MotivatingMatchesPaperFigure1) {
  const Benchmark b = motivating(4);
  EXPECT_EQ(b.graph->num_nodes(), 6u);
  EXPECT_EQ(b.schedule->num_steps(), 5);
  // The paper's schedule: N1@1, N2@2, N3,N4@3, N5@4, N6@5.
  EXPECT_EQ(b.schedule->nodes_in_step(3).size(), 2u);
  EXPECT_EQ(b.schedule->nodes_in_step(1).size(), 1u);
  // Only (+,-) operations.
  for (const auto& n : b.graph->nodes()) {
    EXPECT_TRUE(n.op == dfg::Op::Add || n.op == dfg::Op::Sub);
  }
}

TEST(SuiteTest, HalHasClassicOpMix) {
  const Benchmark b = hal(8);
  std::map<dfg::Op, int> mix;
  for (const auto& n : b.graph->nodes()) ++mix[n.op];
  EXPECT_EQ(mix[dfg::Op::Mul], 6);
  EXPECT_EQ(mix[dfg::Op::Add], 2);
  EXPECT_EQ(mix[dfg::Op::Sub], 2);
  EXPECT_EQ(mix[dfg::Op::Lt], 1);
  // Classic 2-multiplier schedule: never more than 2 muls per step.
  for (int t = 1; t <= b.schedule->num_steps(); ++t) {
    int muls = 0;
    for (auto nid : b.schedule->nodes_in_step(t)) {
      muls += b.graph->node(nid).op == dfg::Op::Mul ? 1 : 0;
    }
    EXPECT_LE(muls, 2);
  }
}

TEST(SuiteTest, FacetCoversTable1Ops) {
  const Benchmark b = facet(4);
  std::map<dfg::Op, int> mix;
  for (const auto& n : b.graph->nodes()) ++mix[n.op];
  for (dfg::Op op : {dfg::Op::Add, dfg::Op::Sub, dfg::Op::Mul, dfg::Op::Div,
                     dfg::Op::And, dfg::Op::Or}) {
    EXPECT_GE(mix[op], 1) << dfg::op_name(op);
  }
}

TEST(SuiteTest, BandpassScheduleIsMultiplierSerial) {
  const Benchmark b = bandpass(4);
  for (int t = 1; t <= b.schedule->num_steps(); ++t) {
    int muls = 0;
    for (auto nid : b.schedule->nodes_in_step(t)) {
      muls += b.graph->node(nid).op == dfg::Op::Mul ? 1 : 0;
    }
    EXPECT_LE(muls, 1);
  }
}

TEST(SuiteTest, EwfIsAddDominated) {
  const Benchmark b = ewf(8);
  std::map<dfg::Op, int> mix;
  for (const auto& n : b.graph->nodes()) ++mix[n.op];
  EXPECT_GT(mix[dfg::Op::Add], 2 * mix[dfg::Op::Mul]);
  EXPECT_EQ(mix[dfg::Op::Mul], 8);
}

TEST(SuiteTest, BiquadComputesExpectedFilter) {
  // Cross-check the biquad DFG against a direct C++ transcription of the
  // two-section filter at width 16 (no overflow for small inputs).
  const Benchmark b = biquad(16);
  dfg::Interpreter interp(*b.graph);
  // Inputs in declaration order: x, w11, w12, w21, w22.
  const std::int64_t x = 5, w11 = 2, w12 = 1, w21 = 3, w22 = 2;
  const auto r = interp.run({static_cast<std::uint64_t>(x),
                             static_cast<std::uint64_t>(w11),
                             static_cast<std::uint64_t>(w12),
                             static_cast<std::uint64_t>(w21),
                             static_cast<std::uint64_t>(w22)});
  const std::int64_t w1n = (x - 3 * w11) - (-2 * w12);
  const std::int64_t y1 = (1 * w1n + 2 * w11) + 1 * w12;
  const std::int64_t w2n = (y1 - 2 * w21) - (-1 * w22);
  const std::int64_t y2 = (2 * w2n + 2 * w21) + 1 * w22;
  // Graph::outputs() returns values in mark order: y2, w1n, w2n.
  EXPECT_EQ(static_cast<std::int64_t>(r.outputs[0]), y2);
  EXPECT_EQ(static_cast<std::int64_t>(r.outputs[1]), w1n);
  EXPECT_EQ(static_cast<std::int64_t>(r.outputs[2]), w2n);
}

TEST(SuiteTest, HalComputesEulerStep) {
  const Benchmark b = hal(16);
  dfg::Interpreter interp(*b.graph);
  // x=1, y=2, u=3, dx=1, a=10.
  const auto r = interp.run({1, 2, 3, 1, 10});
  // u1 = (u - 3x*(u*dx)) - 3y*dx = (3 - 3*3) - 6 = -12
  // x1 = 2, y1 = y + u*dx = 5, c = x1 < a = 1.
  EXPECT_EQ(mcrtl::to_signed(r.outputs[0], 16), -12);
  EXPECT_EQ(r.outputs[1], 2u);
  EXPECT_EQ(r.outputs[2], 5u);
  EXPECT_EQ(r.outputs[3], 1u);
}

TEST(SuiteTest, Dct4ComputesButterfly) {
  const Benchmark b = dct4(16);
  dfg::Interpreter interp(*b.graph);
  const std::int64_t x0 = 5, x1 = 3, x2 = -2, x3 = 1;
  const auto r = interp.run({static_cast<std::uint64_t>(x0),
                             static_cast<std::uint64_t>(x1),
                             mcrtl::from_signed(x2, 16),
                             static_cast<std::uint64_t>(x3)});
  const std::int64_t s0 = x0 + x3, s1 = x1 + x2, d0 = x0 - x3, d1 = x1 - x2;
  EXPECT_EQ(mcrtl::to_signed(r.outputs[0], 16), 3 * (s0 + s1));      // X0
  EXPECT_EQ(mcrtl::to_signed(r.outputs[1], 16), 4 * d0 + 2 * d1);    // X1
  EXPECT_EQ(mcrtl::to_signed(r.outputs[2], 16), 3 * (s0 - s1));      // X2
  EXPECT_EQ(mcrtl::to_signed(r.outputs[3], 16), 2 * d0 - 4 * d1);    // X3
}

TEST(SuiteTest, DeterministicConstruction) {
  for (const auto& name : all_names()) {
    const Benchmark a = by_name(name, 8);
    const Benchmark b = by_name(name, 8);
    ASSERT_EQ(a.graph->num_nodes(), b.graph->num_nodes()) << name;
    for (std::size_t i = 0; i < a.graph->num_nodes(); ++i) {
      const auto id = dfg::NodeId(static_cast<std::uint32_t>(i));
      EXPECT_EQ(a.schedule->step(id), b.schedule->step(id)) << name;
    }
  }
}

}  // namespace
}  // namespace mcrtl::suite
