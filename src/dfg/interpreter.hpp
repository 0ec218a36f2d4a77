// Golden-model execution of a DFG.
//
// The interpreter evaluates the behaviour directly on integer words, giving
// the reference results every synthesized datapath must match. The
// equivalence checker in src/sim compares RTL simulation outputs against
// this model over long random input streams.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dfg/graph.hpp"

namespace mcrtl::dfg {

/// Input binding for one computation: one word per primary input, in the
/// order returned by Graph::inputs().
using InputVector = std::vector<std::uint64_t>;

/// Result of one computation.
struct EvalResult {
  /// Every value in the graph, indexed by ValueId.
  std::vector<std::uint64_t> values;
  /// Primary outputs in Graph::outputs() order.
  std::vector<std::uint64_t> outputs;
};

/// Evaluates computations of one Graph.
///
/// run() walks the graph and returns every value. eval() applies the same
/// scalar eval_op() calls in the same order from a flat program built once
/// at construction, into caller-owned scratch, and allocates nothing; it is
/// the golden model's hot path (sim::golden_outputs). Both are const, so
/// one Interpreter serves any number of threads, each with its own scratch.
class Interpreter {
 public:
  explicit Interpreter(const Graph& g);

  /// Evaluate one full computation.
  EvalResult run(const InputVector& inputs) const;

  /// Scratch for eval(): one word per value, constants already in place.
  std::vector<std::uint64_t> scratch() const { return init_; }

  /// Evaluate one computation into `scratch` (from scratch(), reusable
  /// across calls) and write its primary outputs, in Graph::outputs()
  /// order, to `out`. Throws mcrtl::Error on a wrong input count or
  /// mis-sized buffers.
  void eval(std::span<const std::uint64_t> inputs,
            std::span<std::uint64_t> scratch,
            std::span<std::uint64_t> out) const;

  /// Words eval() reads per computation (Graph::inputs().size()).
  std::size_t num_inputs() const { return input_slots_.size(); }
  /// Words eval() writes per computation (Graph::outputs().size()).
  std::size_t num_outputs() const { return output_slots_.size(); }

 private:
  /// One node of the flat program: slots[out] = eval_op(op, slots[a],
  /// slots[b]). A unary node reads its operand as `b` too (eval_op ignores
  /// b for unary ops).
  struct Step {
    Op op;
    std::uint32_t a, b, out;
  };

  const Graph* graph_;
  std::vector<NodeId> order_;  // cached topological order
  std::vector<Step> program_;  // order_, flattened to value slots
  std::vector<std::uint32_t> input_slots_;   // Graph::inputs() order
  std::vector<std::uint32_t> output_slots_;  // Graph::outputs() order
  std::vector<std::uint64_t> init_;          // constants pre-filled
};

}  // namespace mcrtl::dfg
