// Functional equivalence checking: synthesized RTL vs. the DFG golden model.
//
// Every design style (conventional, gated, 1/2/3-clock) must compute exactly
// the behaviour of the source DFG; the clock-management machinery is only
// allowed to change *when* things switch, never *what* is computed. The
// checker compares every computation's sampled outputs of a simulation run
// against the interpreter.
//
// check_outputs() takes *already sampled* outputs, so the caller that
// simulates (core::measure) runs the RTL simulation once and feeds both the
// checker and the power model from the same SimResult. A caller checking
// many designs against one stream (the explorer, `mcrtl table`) runs the
// interpreter once with golden_outputs() and compares every design against
// that.
//
// Stream, samples and golden outputs are all flat WordTables, so the check
// of an equivalent design is one comparison of two word blocks; only a
// mismatch walks the rows to name its first computation and output.
#pragma once

#include <string>

#include "dfg/interpreter.hpp"
#include "sim/simulator.hpp"

namespace mcrtl::sim {

struct EquivalenceReport {
  bool equivalent = true;
  std::size_t computations_checked = 0;
  std::size_t first_mismatch = 0;   ///< computation index (valid if !equivalent)
  std::string detail;               ///< human-readable mismatch description
};

/// Compare sampled RTL outputs (one row per computation of `stream`, in
/// Graph::outputs() order — exactly SimResult::outputs) against the
/// interpreter of `graph`. `style_name` only labels the mismatch message.
/// This is the single-simulation path: the caller keeps the SimResult and
/// its Activity.
EquivalenceReport check_outputs(const dfg::Graph& graph,
                                const InputStream& stream,
                                const WordTable& outputs,
                                const std::string& style_name);

/// The interpreter's outputs of a graph for every computation of one
/// stream — what check_outputs() compares against: one row per
/// computation, Graph::outputs() order. A type of its own only so the two
/// check_outputs() overloads stay apart.
struct GoldenOutputs : WordTable {
  using WordTable::WordTable;
};
GoldenOutputs golden_outputs(const dfg::Graph& graph,
                             const InputStream& stream);

/// golden_outputs() into storage the caller already sized
/// (GoldenOutputs(stream.size(), interp.num_outputs())); allocates only
/// the interpreter's scratch. `interp` may be shared between threads.
/// Throws mcrtl::Error (check_stream_width) before evaluating anything if
/// the stream's width is not the graph's input count.
void fill_golden_outputs(const dfg::Interpreter& interp,
                         const InputStream& stream, GoldenOutputs& golden);

/// check_outputs() against precomputed golden outputs; same report, same
/// mismatch text.
EquivalenceReport check_outputs(const dfg::Graph& graph,
                                const GoldenOutputs& golden,
                                const WordTable& outputs,
                                const std::string& style_name);

}  // namespace mcrtl::sim
