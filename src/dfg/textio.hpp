// Textual DFG interchange format (.dfg).
//
// A small line-oriented language so behaviours and schedules can live in
// files, be diffed, and round-trip through external tools:
//
//   graph cmac width 8          # header: name + bit width
//   input ar                    # primary inputs
//   const three = 3             # named constants
//   node m1 = mul ar br @ 1     # op, operands, optional "@ step"
//   node s1 = sub m1 m2 @ 2
//   output s1                   # primary outputs
//   # comments and blank lines are ignored
//
// Operands name inputs, constants or earlier node results (a node's result
// has the node's own name). When every node carries "@ step", parsing also
// yields a Schedule. Numbers are read in full: a width is 1..64, a step
// 1..kMaxDfgStep, a constant any 64-bit signed value (decimal, 0x hex or
// 0 octal); trailing characters or an out-of-range value are parse errors.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "dfg/graph.hpp"
#include "dfg/schedule.hpp"

namespace mcrtl::dfg {

/// Largest control step a .dfg "@ step" annotation may name. The schedule
/// length sizes the synthesized controller and every simulated period, so
/// an unbounded step (one typo) would allocate without limit.
inline constexpr int kMaxDfgStep = 4096;

/// A parsed .dfg document: the graph, plus the schedule when every node had
/// an "@ step" annotation.
struct ParsedDfg {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<Schedule> schedule;  ///< null if any node lacked a step
};

/// Parse from text; throws mcrtl::Error with a line number on any problem.
ParsedDfg parse_dfg(const std::string& text);
ParsedDfg parse_dfg(std::istream& in);

/// Serialize a graph (and optional schedule as "@ step" annotations) into
/// the textual format. parse_dfg(serialize_dfg(g)) reproduces the graph.
std::string serialize_dfg(const Graph& g, const Schedule* sched = nullptr);

}  // namespace mcrtl::dfg
