// Unit tests for op evaluation semantics and the DFG golden-model
// interpreter.
#include <gtest/gtest.h>

#include "dfg/interpreter.hpp"
#include "dfg/random_graph.hpp"
#include "suite/benchmarks.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace mcrtl::dfg {
namespace {

TEST(OpTest, ArityAndCommutativity) {
  EXPECT_EQ(op_arity(Op::Add), 2u);
  EXPECT_EQ(op_arity(Op::Not), 1u);
  EXPECT_EQ(op_arity(Op::Pass), 1u);
  EXPECT_TRUE(op_commutative(Op::Add));
  EXPECT_TRUE(op_commutative(Op::Mul));
  EXPECT_FALSE(op_commutative(Op::Sub));
  EXPECT_FALSE(op_commutative(Op::Shl));
}

TEST(OpTest, ParseRoundTrip) {
  for (unsigned i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_EQ(parse_op(op_name(op)), op);
    EXPECT_EQ(parse_op(op_symbol(op)), op);
  }
  EXPECT_THROW(parse_op("bogus"), Error);
}

TEST(OpEvalTest, ArithmeticWraps) {
  EXPECT_EQ(eval_op(Op::Add, 0xF, 1, 4), 0u);
  EXPECT_EQ(eval_op(Op::Sub, 0, 1, 4), 0xFu);
  EXPECT_EQ(eval_op(Op::Mul, 5, 5, 4), 9u);  // 25 mod 16
}

TEST(OpEvalTest, DivisionByZeroPinned) {
  EXPECT_EQ(eval_op(Op::Div, 7, 0, 4), 0xFu);
  EXPECT_EQ(eval_op(Op::Mod, 7, 0, 4), 7u);
  EXPECT_EQ(eval_op(Op::Div, 12, 3, 4), 4u);
}

TEST(OpEvalTest, SignedComparisons) {
  // 0xF is -1 in 4-bit two's complement.
  EXPECT_EQ(eval_op(Op::Lt, 0xF, 1, 4), 1u);
  EXPECT_EQ(eval_op(Op::Gt, 0xF, 1, 4), 0u);
  EXPECT_EQ(eval_op(Op::Ge, 3, 3, 4), 1u);
  EXPECT_EQ(eval_op(Op::Le, 3, 3, 4), 1u);
  EXPECT_EQ(eval_op(Op::Eq, 9, 9, 4), 1u);
  EXPECT_EQ(eval_op(Op::Ne, 9, 8, 4), 1u);
}

TEST(OpEvalTest, MinMaxAreSigned) {
  EXPECT_EQ(eval_op(Op::Min, 0xF, 1, 4), 0xFu);  // -1 < 1
  EXPECT_EQ(eval_op(Op::Max, 0xF, 1, 4), 1u);
}

TEST(OpEvalTest, LogicOps) {
  EXPECT_EQ(eval_op(Op::And, 0b1100, 0b1010, 4), 0b1000u);
  EXPECT_EQ(eval_op(Op::Or, 0b1100, 0b1010, 4), 0b1110u);
  EXPECT_EQ(eval_op(Op::Xor, 0b1100, 0b1010, 4), 0b0110u);
  EXPECT_EQ(eval_op(Op::Not, 0b1100, 0, 4), 0b0011u);
}

TEST(OpEvalTest, ShiftsBoundedByWidth) {
  EXPECT_EQ(eval_op(Op::Shl, 1, 3, 4), 8u);
  // The shift amount is the truncated operand bounded by width: 200 -> 8
  // (low 4 bits) -> 8 % 5 = 3.
  EXPECT_EQ(eval_op(Op::Shl, 1, 200, 4), 8u);
  EXPECT_EQ(eval_op(Op::Shr, 8, 3, 4), 1u);
  EXPECT_EQ(eval_op(Op::Shl, 5, 4, 4), 0u);  // full-width shift clears
}

TEST(OpEvalTest, PassAndNeg) {
  EXPECT_EQ(eval_op(Op::Pass, 11, 99, 4), 11u);
  EXPECT_EQ(eval_op(Op::Neg, 1, 0, 4), 0xFu);
  EXPECT_EQ(eval_op(Op::Neg, 0, 0, 4), 0u);
}

TEST(OpEvalTest, ResultsAlwaysTruncated) {
  Rng rng(2);
  for (unsigned i = 0; i < kNumOps; ++i) {
    for (int trial = 0; trial < 50; ++trial) {
      const unsigned w = 1 + static_cast<unsigned>(rng.next_below(16));
      const auto r = eval_op(static_cast<Op>(i), rng.next(), rng.next(), w);
      EXPECT_EQ(r, truncate(r, w));
    }
  }
}

TEST(InterpreterTest, EvaluatesChain) {
  Graph g("t", 8);
  const ValueId a = g.add_input("a");
  const ValueId b = g.add_input("b");
  const ValueId c = g.add_constant(10);
  const ValueId s = g.add_op(Op::Add, a, b);
  const ValueId m = g.add_op(Op::Mul, s, c);
  g.mark_output(m);

  Interpreter interp(g);
  const auto r = interp.run({3, 4});
  EXPECT_EQ(r.outputs.size(), 1u);
  EXPECT_EQ(r.outputs[0], 70u);
  EXPECT_EQ(r.values[s.index()], 7u);
}

TEST(InterpreterTest, InputsAreTruncated) {
  Graph g("t", 4);
  const ValueId a = g.add_input("a");
  g.mark_output(g.add_unary(Op::Pass, a));
  Interpreter interp(g);
  EXPECT_EQ(interp.run({0x1F}).outputs[0], 0xFu);
}

TEST(InterpreterTest, NegativeConstantsEncoded) {
  Graph g("t", 4);
  const ValueId a = g.add_input("a");
  const ValueId c = g.add_constant(-2);
  g.mark_output(g.add_op(Op::Add, a, c));
  Interpreter interp(g);
  EXPECT_EQ(interp.run({5}).outputs[0], 3u);
}

TEST(InterpreterTest, RejectsWrongInputCount) {
  Graph g("t", 8);
  const ValueId a = g.add_input("a");
  g.mark_output(g.add_unary(Op::Pass, a));
  Interpreter interp(g);
  EXPECT_THROW(interp.run({1, 2}), Error);
}

// Interpreter::eval() against run() on every vector of `stream`, through one
// reused scratch: same outputs, computation by computation.
void expect_eval_matches_run(const Graph& g,
                             const std::vector<InputVector>& stream,
                             const std::string& what) {
  const Interpreter interp(g);
  auto scratch = interp.scratch();
  std::vector<std::uint64_t> out(interp.num_outputs());
  ASSERT_EQ(out.size(), g.outputs().size()) << what;
  for (std::size_t c = 0; c < stream.size(); ++c) {
    interp.eval(stream[c], scratch, out);
    ASSERT_EQ(out, interp.run(stream[c]).outputs)
        << what << ", computation " << c;
  }
}

TEST(InterpreterTest, EvalMatchesRunOnEverySuiteBehaviour) {
  Rng rng(15);
  for (const auto& name : suite::all_names()) {
    for (const unsigned width : {4u, 8u}) {
      const auto b = suite::by_name(name, width);
      std::vector<InputVector> stream(300);
      for (auto& v : stream) {
        // Full 64-bit words: eval() must truncate inputs as run() does.
        for (std::size_t k = 0; k < b.graph->inputs().size(); ++k) {
          v.push_back(rng.next());
        }
      }
      expect_eval_matches_run(*b.graph, stream,
                              name + " width " + std::to_string(width));
    }
  }
}

TEST(InterpreterTest, EvalMatchesRunOnRandomGraphsAtEdgeWidths) {
  // Every op, with operands drawn so that shifts by amounts >= width and
  // division/modulo by zero happen often; the counts below prove they did.
  Rng rng(1996);
  RandomGraphConfig cfg;
  cfg.num_inputs = 3;
  cfg.num_nodes = 24;
  cfg.const_prob = 0.25;
  for (unsigned i = 0; i < kNumOps; ++i) cfg.op_pool.push_back(static_cast<Op>(i));
  for (const unsigned width : {1u, 7u, 32u, 63u, 64u}) {
    cfg.width = width;
    std::size_t wide_shifts = 0, zero_divisors = 0;
    for (int trial = 0; trial < 25; ++trial) {
      const Graph g = random_graph(rng, cfg);
      std::vector<InputVector> stream(40);
      for (auto& v : stream) {
        for (std::size_t k = 0; k < g.inputs().size(); ++k) {
          switch (rng.next_below(3)) {
            case 0: v.push_back(rng.next()); break;
            case 1: v.push_back(0); break;
            default: v.push_back(width + rng.next_below(3)); break;
          }
        }
      }
      const std::string what =
          "width " + std::to_string(width) + " trial " + std::to_string(trial);
      expect_eval_matches_run(g, stream, what);
      const Interpreter interp(g);
      for (const auto& in : stream) {
        const auto values = interp.run(in).values;
        for (const Node& n : g.nodes()) {
          if (n.inputs.size() < 2) continue;
          const std::uint64_t b = values[n.inputs[1].index()];
          if ((n.op == Op::Shl || n.op == Op::Shr) && b >= width) ++wide_shifts;
          if ((n.op == Op::Div || n.op == Op::Mod) && b == 0) ++zero_divisors;
        }
      }
    }
    EXPECT_GT(wide_shifts, 0u) << "width " << width;
    EXPECT_GT(zero_divisors, 0u) << "width " << width;
  }
}

TEST(InterpreterTest, EvalRejectsWrongInputCountAndBufferSizes) {
  Graph g("t", 8);
  const ValueId a = g.add_input("a");
  g.mark_output(g.add_unary(Op::Pass, a));
  const Interpreter interp(g);
  auto scratch = interp.scratch();
  std::vector<std::uint64_t> out(1);
  EXPECT_THROW(interp.eval(InputVector{1, 2}, scratch, out), Error);
  EXPECT_THROW(interp.eval(InputVector{}, scratch, out), Error);
  std::vector<std::uint64_t> no_out;
  EXPECT_THROW(interp.eval(InputVector{1}, scratch, no_out), Error);
  std::vector<std::uint64_t> short_scratch;
  EXPECT_THROW(interp.eval(InputVector{1}, short_scratch, out), Error);
  interp.eval(InputVector{0x1F5}, scratch, out);
  EXPECT_EQ(out[0], 0xF5u);
}

TEST(InterpreterTest, StreamMatchesIndividualRuns) {
  Rng rng(6);
  RandomGraphConfig cfg;
  cfg.num_nodes = 15;
  const Graph g = random_graph(rng, cfg);
  Interpreter interp(g);

  std::vector<InputVector> stream;
  for (int i = 0; i < 20; ++i) {
    InputVector v;
    for (std::size_t k = 0; k < g.inputs().size(); ++k) v.push_back(rng.next_bits(8));
    stream.push_back(v);
  }
  // Computations are independent: running the stream in order on one
  // interpreter gives what a fresh interpreter gives for each one alone.
  std::vector<EvalResult> rs;
  for (const auto& in : stream) rs.push_back(interp.run(in));
  ASSERT_EQ(rs.size(), stream.size());
  for (std::size_t i = stream.size(); i-- > 0;) {
    EXPECT_EQ(rs[i].outputs, Interpreter(g).run(stream[i]).outputs);
  }
}

}  // namespace
}  // namespace mcrtl::dfg
