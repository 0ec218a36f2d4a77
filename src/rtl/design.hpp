// A complete synthesized design: netlist + controller + clocking, plus the
// cross-reference maps the simulator and the report printers need.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "alloc/binding.hpp"
#include "rtl/clock.hpp"
#include "rtl/control.hpp"
#include "rtl/netlist.hpp"
#include "rtl/tables.hpp"

namespace mcrtl::rtl {

/// Table-row statistics (the columns of the paper's Tables 1–4).
struct DesignStats {
  std::string alu_summary;  ///< e.g. "2(+), 1(/), 1(-), 1(*&)"
  int num_alus = 0;
  int num_memory_cells = 0;
  int num_mux_inputs = 0;
  int num_muxes = 0;
  int num_clocks = 1;
  /// Master clock cycles per computation (ClockScheme::period()): the
  /// design's throughput denominator, recorded structurally so reports and
  /// Pareto comparisons never re-derive it from labels.
  int period = 0;
};

/// The synthesized design. Movable, not copyable (owns the netlist).
///
/// The constructor validates the netlist and compiles `tables` from the
/// netlist, clocks and control plan, so those three are fixed from then on:
/// mutating them afterwards leaves the tables stale.
struct Design {
  std::string style_name;           ///< e.g. "Conven. Alloc. (Gated Clock)"
  Netlist netlist;
  ClockScheme clocks;
  ControlPlan control;
  /// Everything the simulator kernels derive from the three above.
  DesignTables tables;
  DesignStats stats;

  /// Primary input value -> InputPort component.
  std::map<dfg::ValueId, CompId> input_ports;
  /// Primary output value -> the storage component to sample (at the end of
  /// schedule step T) and the matching OutputPort component.
  std::map<dfg::ValueId, CompId> output_storage;
  std::map<dfg::ValueId, CompId> output_ports;
  /// Storage unit index -> component.
  std::vector<CompId> storage_comp;
  /// Functional unit index -> component.
  std::vector<CompId> fu_comp;

  /// Synthesis-time attribution map (indexed by CompId): the DFG-level
  /// origin of each component, for the hierarchical power profiler
  /// (power::Attribution). ALUs carry their function-set label (e.g.
  /// "(+*)"); the port muxes and isolation gates serving an ALU inherit its
  /// label; storage elements and their input muxes carry the names of the
  /// DFG values they hold. Components with no DFG-level origin (controller
  /// lines, IO ports, constants) keep an empty string.
  std::vector<std::string> comp_op;

  /// The schedule length T (outputs are valid at the end of step T of each
  /// period; the period itself is clocks.period()).
  int schedule_steps = 0;

  Design(std::string style, Netlist nl, ClockScheme cs, ControlPlan cp)
      : style_name(std::move(style)),
        netlist(std::move(nl)),
        clocks(cs),
        control(std::move(cp)),
        tables(compile_tables(netlist, clocks, control)) {}
};

/// Style of the memory-element clocking for a build.
struct BuildOptions {
  std::string style_name = "design";
  /// Storage clock pins are gated by the load enable (conventional
  /// gated-clock baseline, and all multi-clock designs).
  bool gated_clocks = false;
  /// Control lines of each partition are latched at partition boundaries
  /// (paper §3.2); only meaningful for multi-clock bindings.
  bool latched_control = false;
  /// Don't-care behaviour of controller outputs (see ControlPlan). The
  /// realistic NextCare decode is the default; §3.2 latching exists to tame
  /// exactly this behaviour.
  ControlPlan::FillPolicy control_fill = ControlPlan::FillPolicy::NextCare;
  /// Insert operand-isolation AND gates in front of every ALU, enabled only
  /// in steps where the ALU executes an operation (§2.2's "extra logic to
  /// isolate ALUs"). Strengthens the conventional gated baseline at the
  /// cost of the gates' area and capacitance.
  bool operand_isolation = false;
  /// Interconnect realization of multi-source routes: gate-tree muxes or
  /// shared tri-state buses (one driver per source on a long line). Same
  /// logical function; different area/capacitance structure.
  enum class Interconnect { Mux, TristateBus };
  Interconnect interconnect = Interconnect::Mux;
};

/// Lower a finalized Binding to a Design. The binding's schedule, lifetime
/// analysis and clock count fully determine the structure; `opts` selects
/// the clock-management style.
Design build_design(const alloc::Binding& binding, const BuildOptions& opts);

}  // namespace mcrtl::rtl
