// Unit tests for the .dfg textual interchange format.
#include <gtest/gtest.h>

#include "dfg/interpreter.hpp"
#include "dfg/random_graph.hpp"
#include "dfg/textio.hpp"
#include "util/error.hpp"

namespace mcrtl::dfg {
namespace {

constexpr const char* kSample = R"(
# complex multiply: re = ar*br - ai*bi
graph cmul width 8
input ar
input ai
input br
input bi
const two = 2
node m1 = mul ar br @ 1
node m2 = mul ai bi @ 1
node re = sub m1 m2 @ 2
node sc = mul re two @ 3
output re
output sc
)";

TEST(TextIoTest, ParsesSample) {
  const ParsedDfg p = parse_dfg(kSample);
  ASSERT_TRUE(p.graph);
  ASSERT_TRUE(p.schedule);
  EXPECT_EQ(p.graph->name(), "cmul");
  EXPECT_EQ(p.graph->width(), 8u);
  EXPECT_EQ(p.graph->num_nodes(), 4u);
  EXPECT_EQ(p.graph->inputs().size(), 4u);
  EXPECT_EQ(p.graph->outputs().size(), 2u);
  EXPECT_EQ(p.schedule->num_steps(), 3);
}

TEST(TextIoTest, ParsedGraphComputes) {
  const ParsedDfg p = parse_dfg(kSample);
  Interpreter interp(*p.graph);
  // ar=3, ai=2, br=4, bi=1 -> re = 12-2 = 10, sc = 20.
  const auto r = interp.run({3, 2, 4, 1});
  EXPECT_EQ(r.outputs[0], 10u);
  EXPECT_EQ(r.outputs[1], 20u);
}

TEST(TextIoTest, ScheduleOptional) {
  const ParsedDfg p = parse_dfg(
      "graph g width 4\ninput a\nnode n = neg a\noutput n\n");
  EXPECT_TRUE(p.graph);
  EXPECT_FALSE(p.schedule);  // no @ step annotation
}

TEST(TextIoTest, ErrorsCarryLineNumbers) {
  try {
    parse_dfg("graph g width 4\ninput a\nnode x = bogus a\noutput x\n");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(TextIoTest, RejectsDuplicateNames) {
  EXPECT_THROW(parse_dfg("graph g width 4\ninput a\ninput a\n"), Error);
}

TEST(TextIoTest, RejectsUnknownOperand) {
  EXPECT_THROW(
      parse_dfg("graph g width 4\ninput a\nnode n = add a ghost\noutput n\n"),
      Error);
}

TEST(TextIoTest, RejectsArityMismatch) {
  EXPECT_THROW(parse_dfg("graph g width 4\ninput a\nnode n = add a\noutput n\n"),
               Error);
}

TEST(TextIoTest, RejectsMissingHeader) {
  EXPECT_THROW(parse_dfg("input a\n"), Error);
}

TEST(TextIoTest, RejectsBadWidth) {
  EXPECT_THROW(parse_dfg("graph g width 99\n"), Error);
  EXPECT_THROW(parse_dfg("graph g width 0\n"), Error);
}

TEST(TextIoTest, RejectsUnknownOutput) {
  EXPECT_THROW(parse_dfg("graph g width 4\ninput a\nnode n = neg a\noutput zz\n"),
               Error);
}

/// The parse error `text` raises; empty if it parses.
std::string parse_error(const std::string& text) {
  try {
    parse_dfg(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(TextIoTest, UnknownOutputCarriesItsLineNumber) {
  const std::string err =
      parse_error("graph g width 4\ninput a\noutput zz\nnode n = neg a\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("'zz'"), std::string::npos) << err;
}

TEST(TextIoTest, RejectsTrailingCharactersInNumbers) {
  for (const char* text : {"graph g width 8x\n", "graph g width 4.0\n",
                           "graph g width +\n"}) {
    const std::string err = parse_error(text);
    EXPECT_NE(err.find("line 1"), std::string::npos) << text << ": " << err;
  }
  const std::string err =
      parse_error("graph g width 4\ninput a\nnode n = neg a @ 1x\noutput n\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("'1x'"), std::string::npos) << err;
  EXPECT_NE(parse_error("graph g width 4\nconst c = 0x1g\n").find("line 2"),
            std::string::npos);
}

TEST(TextIoTest, RejectsOutOfRangeNumbers) {
  // A step that would wrap a 32-bit int (to about 1.4e9) must not reach the
  // synthesizer, and neither may any step past the documented bound.
  for (const std::string& step :
       {std::string("9999999995"), std::string("2147483648"),
        std::string("-1"), std::string("0"),
        std::to_string(kMaxDfgStep + 1)}) {
    const std::string err = parse_error(
        "graph g width 4\ninput a\nnode n = neg a @ " + step + "\noutput n\n");
    EXPECT_NE(err.find("line 3"), std::string::npos) << step << ": " << err;
  }
  EXPECT_EQ(parse_error("graph g width 4\ninput a\nnode n = neg a @ " +
                        std::to_string(kMaxDfgStep) + "\noutput n\n"),
            "");
  EXPECT_NE(parse_error("graph g width 99999999999\n").find("line 1"),
            std::string::npos);
  EXPECT_NE(parse_error("graph g width 4\nconst c = 99999999999999999999\n")
                .find("line 2"),
            std::string::npos);
}

TEST(TextIoTest, RejectsPrecedenceViolatingSchedule) {
  EXPECT_THROW(parse_dfg("graph g width 4\ninput a\nnode n1 = neg a @ 2\n"
                         "node n2 = neg n1 @ 1\noutput n2\n"),
               Error);
}

TEST(TextIoTest, NegativeAndHexConstants) {
  const ParsedDfg p = parse_dfg(
      "graph g width 8\ninput a\nconst m = -3\nconst h = 0x0a\n"
      "node n = add a m\nnode o = add n h\noutput o\n");
  Interpreter interp(*p.graph);
  EXPECT_EQ(interp.run({5}).outputs[0], 12u);  // 5-3+10
}

TEST(TextIoTest, RoundTripPreservesStructureAndFunction) {
  Rng rng(88);
  for (int trial = 0; trial < 10; ++trial) {
    RandomGraphConfig cfg;
    cfg.num_nodes = 18;
    const Graph g = random_graph(rng, cfg);
    const Schedule s = schedule_asap(g);
    const std::string text = serialize_dfg(g, &s);
    const ParsedDfg p = parse_dfg(text);
    ASSERT_TRUE(p.schedule);
    ASSERT_EQ(p.graph->num_nodes(), g.num_nodes());
    EXPECT_EQ(p.graph->inputs().size(), g.inputs().size());
    EXPECT_EQ(p.graph->outputs().size(), g.outputs().size());

    // Same function: run both on the same inputs.
    Interpreter i1(g), i2(*p.graph);
    for (int k = 0; k < 10; ++k) {
      InputVector in;
      for (std::size_t j = 0; j < g.inputs().size(); ++j) {
        in.push_back(rng.next_bits(8));
      }
      EXPECT_EQ(i1.run(in).outputs, i2.run(in).outputs);
    }
    // Same schedule lengths.
    EXPECT_EQ(p.schedule->num_steps(), s.num_steps());
  }
}

TEST(TextIoTest, SerializeWithoutSchedule) {
  Rng rng(89);
  RandomGraphConfig cfg;
  cfg.num_nodes = 8;
  const Graph g = random_graph(rng, cfg);
  const std::string text = serialize_dfg(g);
  EXPECT_EQ(text.find("@"), std::string::npos);
  const ParsedDfg p = parse_dfg(text);
  EXPECT_FALSE(p.schedule);
}

}  // namespace
}  // namespace mcrtl::dfg
