// The compiled form of a design: every static table the simulator kernels
// read, derived once when the rtl::Design is constructed (DESIGN.md §7,
// "Compiled design tables").
//
// A design's netlist, clocking and control plan fix the combinational
// evaluation order, the fanout of every net, what each controller line
// carries in each master-cycle step and which storage elements each phase
// edge clocks and loads. The scalar, Oblivious and bit-sliced kernels and
// the static warm-up check all read these tables; none re-derives them.
// Orders are part of the contract: the kernels' bucket order, and with it
// the floating-point summation order of an attached PowerProbe, follows
// `comb_order` and the CompId/signal orders documented below.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rtl/clock.hpp"
#include "rtl/control.hpp"
#include "rtl/netlist.hpp"

namespace mcrtl::rtl {

/// A compressed-sparse-row table: row i is items[offset[i] .. offset[i+1]).
template <typename T>
struct Csr {
  std::vector<std::uint32_t> offset;
  std::vector<T> items;

  /// Start an empty table with room for `rows` rows of `total` items.
  void start(std::size_t rows, std::size_t total) {
    offset.reserve(rows + 1);
    offset.assign(1, 0);
    items.reserve(total);
  }
  /// Close the row being appended to.
  void end_row() { offset.push_back(static_cast<std::uint32_t>(items.size())); }

  std::size_t rows() const { return offset.size() - 1; }
  std::span<const T> operator[](std::size_t row) const {
    return {items.data() + offset[row], items.data() + offset[row + 1]};
  }
};

/// One controller-line write: `net` takes `value`.
struct LineWrite {
  NetId net;
  std::uint64_t value = 0;
};

struct DesignTables {
  /// Combinational components in dependence order over data and select
  /// edges (Netlist::levelize()).
  std::vector<CompId> comb_order;
  /// Topological level by CompId (-1 = not combinational).
  std::vector<int> level;
  /// Prefix sums of the combinational components per level: level L has
  /// level_offset[L+1] - level_offset[L] of them (depth + 1 entries), so a
  /// level-bucketed worklist fits in one array.
  std::vector<std::uint32_t> level_offset;
  /// Row i (by NetId): the combinational components that read net i through
  /// a data input or the select pin, deduplicated, ascending CompId.
  Csr<CompId> fanout;

  /// Controller line (ControlSource output net) by ControlPlan signal.
  std::vector<NetId> line_net;
  /// ControlPlan::line_values(): signal s during step t is element
  /// (t-1)·signals + s.
  std::vector<std::uint64_t> line_values;
  /// Row t (1..period; row 0 empty): the lines whose value changes between
  /// step t-1 and step t (step 0 = step period of the previous
  /// computation), ascending signal index, with their step-t values.
  Csr<LineWrite> step_writes;
  /// By signal: the bit toggles its line makes in one master period, from
  /// step P of the previous period through step P, its values truncated to
  /// the line's width as a kernel's planes hold them. The same in every
  /// period, so a kernel counts a line's toggles as this times the counted
  /// computations.
  std::vector<std::uint64_t> line_toggles;

  /// Phase 1..n of the clock edge ending step t, indexed by t (0 unused).
  std::vector<int> phase_by_step;
  /// Row p (phase 1..n; row 0 empty): storage clocked by phase p, ascending
  /// CompId.
  Csr<CompId> storage_by_phase;
  /// True when every storage load pin is driven by a controller line, so
  /// the edge schedules below are exact; false for hand-built netlists that
  /// load from the datapath (the schedules are then empty).
  bool static_edges = false;
  /// Row t (1..period): storage that receives a clock event at the edge
  /// ending step t (loaded, or clocked by a free-running pin), and storage
  /// that captures at it; ascending CompId.
  Csr<CompId> edge_clock_events;
  Csr<CompId> edge_captures;
  /// By step t: some element captured at edge t feeds another one captured
  /// at the same edge (a shift chain), so captures must stage their D
  /// inputs before committing.
  std::vector<std::uint8_t> edge_chained;

  std::size_t depth() const { return level_offset.size() - 1; }
  std::size_t num_signals() const { return line_net.size(); }
  /// The values every line carries during step t (1..period), by signal.
  std::span<const std::uint64_t> lines_at(int t) const {
    const std::size_t n = num_signals();
    return {line_values.data() + static_cast<std::size_t>(t - 1) * n, n};
  }
};

/// Validate the netlist (Netlist::validate(), whose levelization is the
/// tables' one Kahn pass) and derive the tables. Throws ValidationError.
DesignTables compile_tables(const Netlist& nl, const ClockScheme& clocks,
                            const ControlPlan& control);

}  // namespace mcrtl::rtl
