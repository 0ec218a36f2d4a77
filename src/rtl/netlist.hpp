// Structural RTL netlist.
//
// Components follow the paper's Functional Block model (Fig. 3): muxes feed
// the two ports of an ALU, whose result lands in a memory element (register
// or latch). Control inputs (mux selects, ALU function selects, load
// enables) are modelled as first-class nets driven by ControlSource
// components, so the simulator counts controller-line switching exactly
// like datapath switching — the paper's §3.2 latched-control analysis
// depends on it.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "dfg/op.hpp"
#include "util/ids.hpp"

namespace mcrtl::rtl {

using CompId = StrongId<struct CompTag>;
using NetId = StrongId<struct NetTag>;

/// Component kinds.
enum class CompKind : std::uint8_t {
  InputPort,      ///< primary data input (value applied by the testbench)
  OutputPort,     ///< primary data output (sampled by the testbench)
  Constant,       ///< hardwired literal
  ControlSource,  ///< one controller output signal (select/enable line)
  Mux,            ///< k-input multiplexer with a select control net
  Bus,            ///< shared tri-state bus: k tri-state drivers on one
                  ///< line, the select control enables exactly one (the
                  ///< "MUX/BUS collapsing" alternative of §4.1's allocator
                  ///< description; same logical function as Mux, different
                  ///< electrical cost: long shared wire, driver per input,
                  ///< no gate tree)
  Alu,            ///< functional unit with a function-select control net
  IsoGate,        ///< operand-isolation stage (paper §2.2 "extra logic to
                  ///< isolate ALUs", §1 "holding the old input values"):
                  ///< a per-bit transparent latch, output = enable ? input
                  ///< : previous output. Hold-mode isolation avoids the
                  ///< value->0->value double transition of AND-forcing.
  Register,       ///< edge-triggered D flip-flop (optionally clock-gated)
  Latch,          ///< level-sensitive latch, enabled in its clock phase
};

const char* comp_kind_name(CompKind k);
bool is_storage(CompKind k);
bool is_combinational(CompKind k);

/// One netlist component. Its pin list lives in its netlist's pin arena
/// (a default-constructed or copied Component uses the global heap).
struct Component {
  Component() = default;
  explicit Component(std::pmr::memory_resource* pins) : inputs(pins) {}

  CompId id;
  CompKind kind = CompKind::Mux;
  std::string name;
  unsigned width = 1;

  /// Data inputs: Mux = k inputs; Alu = 2 (second ignored for unary ops);
  /// storage = 1 (the D input); OutputPort = 1. Others none.
  std::pmr::vector<NetId> inputs;
  /// Data output net; invalid for OutputPort.
  NetId output;

  /// Select control net (Mux select / Alu function select); invalid when
  /// the component needs none (single-source mux never exists; single-
  /// function ALU has no select).
  NetId select;
  /// Load-enable control net for storage; invalid = always load.
  NetId load;

  /// Alu only: function set; position = select code.
  std::vector<dfg::Op> funcs;
  /// Constant only.
  std::int64_t const_value = 0;
  /// Storage only: clock phase 1..n that clocks this element (1 for
  /// single-clock designs).
  int clock_phase = 1;
  /// Storage only: true if the clock pin is gated by the load signal
  /// (conventional gated-clock baseline and all multi-clock designs);
  /// false models a free-running clock pin with a recirculating enable.
  bool clock_gated = false;

  /// DPM membership: clock partition that owns this component (1-based;
  /// always 1 in single-clock designs). Constants/ControlSources/IO = 0.
  int partition = 0;
};

/// One net: a single driver and any number of reader pins, listed in the
/// order they were connected (in the netlist's pin arena, like
/// Component::inputs).
struct Net {
  Net() = default;
  explicit Net(std::pmr::memory_resource* pins) : readers(pins) {}

  NetId id;
  std::string name;
  unsigned width = 1;
  CompId driver;
  std::pmr::vector<CompId> readers;
};

/// The netlist: a flat component/net graph with builder helpers. Pin lists
/// (component inputs and net readers) are carved from one arena owned by
/// the netlist, so a netlist's hundreds of small pin lists cost a handful
/// of heap allocations. Movable, not copyable.
class Netlist {
 public:
  explicit Netlist(std::string name);
  Netlist(Netlist&&) noexcept = default;
  /// Not assignable: the pin lists must die before the arena holding them.
  Netlist& operator=(Netlist&&) = delete;

  const std::string& name() const { return name_; }

  // ---- builders ------------------------------------------------------------
  /// Reserve storage for `components` components (and as many nets) and
  /// `pins` pin connections (data inputs plus select and load pins), so a
  /// builder that knows its counts up front never regrows a list.
  void reserve(std::size_t components, std::size_t pins);
  /// Adds a component of `kind`; allocates its output net unless it is an
  /// OutputPort. Inputs/controls are connected afterwards; `num_inputs`
  /// sizes the component's pin list when the caller knows it.
  CompId add_component(CompKind kind, std::string name, unsigned width,
                       std::size_t num_inputs = 0);
  /// Connect net `n` as the next data input of `c`.
  void connect_input(CompId c, NetId n);
  /// Connect control nets.
  void set_select(CompId c, NetId n);
  void set_load(CompId c, NetId n);

  // ---- accessors -----------------------------------------------------------
  std::size_t num_components() const { return comps_.size(); }
  std::size_t num_nets() const { return nets_.size(); }
  const Component& comp(CompId id) const;
  Component& comp_mut(CompId id);
  const Net& net(NetId id) const;
  const std::vector<Component>& components() const { return comps_; }
  const std::vector<Net>& nets() const { return nets_; }

  /// The combinational components (Mux/Bus/Alu/IsoGate) in dependence
  /// order, with their topological levels. One Kahn pass over every
  /// combinational-to-combinational edge, data inputs *and* select pins:
  /// `order` lists a component after every combinational component that
  /// drives one of its data inputs or its select; `level` (indexed by
  /// CompId, -1 for non-combinational components) is 0 for components that
  /// read only sequential/external nets (storage outputs, ports, constants,
  /// control sources), else one more than the deepest combinational driver.
  /// Evaluating in `order`, or level by level, therefore evaluates every
  /// component after all of its combinational drivers. Throws
  /// ValidationError on a combinational cycle (through data or select
  /// pins).
  struct Levelization {
    std::vector<CompId> order;
    std::vector<int> level;
    int depth = 0;  ///< number of levels (max level + 1)
  };
  Levelization levelize() const;

  /// Design-rule checks: every input connected, single driver per net,
  /// width agreement, select present where needed, storage has a clock
  /// phase, no combinational cycles. The cycle check is levelize(), whose
  /// result is returned so a caller that needs it pays for one pass.
  Levelization validate() const;

 private:
  NetId add_net(std::string name, unsigned width, CompId driver);

  std::string name_;
  // Declared before the lists whose pins it holds, so it outlives them.
  std::unique_ptr<std::pmr::monotonic_buffer_resource> pins_;
  std::vector<Component> comps_;
  std::vector<Net> nets_;
};

}  // namespace mcrtl::rtl
