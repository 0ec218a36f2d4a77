#include <algorithm>
#include <cmath>
#include <map>

#include "obs/obs.hpp"
#include "rtl/design.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/strings.hpp"

namespace mcrtl::rtl {

namespace {

using alloc::Binding;
using alloc::Source;
using alloc::StorageKind;
using dfg::NodeId;
using dfg::ValueId;
using dfg::ValueKind;

unsigned select_width(std::size_t choices) {
  unsigned w = 1;
  while ((std::size_t{1} << w) < choices) ++w;
  return w;
}

/// Everything the lowering accumulates while walking the binding.
struct Lowering {
  const Binding& b;
  const BuildOptions& opts;
  Netlist nl;
  ClockScheme clocks;
  ControlPlan control;

  std::map<ValueId, CompId> input_ports;
  std::map<ValueId, CompId> const_comps;
  std::vector<CompId> storage_comp;
  std::vector<CompId> fu_comp;
  // Mux component (if any) per FU port: fu_port_mux[fu][port].
  std::vector<std::array<CompId, 2>> fu_port_mux;
  // Operand-isolation gate (if any) per FU port, for the attribution map.
  std::vector<std::array<CompId, 2>> fu_port_iso;
  // Mux component (if any) per storage unit input.
  std::vector<CompId> storage_mux;
  // Cared steps (1..period) of the signal being tabulated; reused.
  std::vector<bool> care;

  Lowering(const Binding& binding, const BuildOptions& o)
      : b(binding),
        opts(o),
        nl(binding.graph().name() + "_" + o.style_name),
        clocks(binding.num_clocks(), binding.schedule().num_steps()),
        control(clocks) {
    reserve();
  }

  /// Size the netlist and the control plan from the binding's counts, so
  /// the lowering below never regrows them.
  void reserve() {
    const dfg::Graph& g = b.graph();
    std::size_t comps =
        b.storage().size() + b.func_units().size() + g.outputs().size();
    for (const auto& v : g.values()) {  // inputs and the routed constants
      comps += v.kind == ValueKind::Input ||
                       (v.kind == ValueKind::Constant && !v.consumers.empty())
                   ? 1
                   : 0;
    }
    std::size_t pins = g.outputs().size();
    std::size_t signals = 0;
    // A multi-source route is a mux, its select line and source, and one
    // pin per source plus the select pin.
    auto route = [&](std::size_t sources) {
      if (sources < 2) return;
      comps += 2;
      ++signals;
      pins += sources + 1;
    };
    for (const auto& fu : b.func_units()) {
      pins += 2;
      if (fu.funcs.size() > 1) {
        comps += 1;
        ++signals;
        ++pins;
      }
      if (opts.operand_isolation) {
        comps += 1;
        ++signals;
      }
      for (unsigned port = 0; port < 2; ++port) {
        const auto& srcs = b.fu_port_sources(fu.index, port);
        route(srcs.size());
        if (opts.operand_isolation && !srcs.empty()) {
          comps += 1;
          pins += 2;
        }
      }
    }
    for (const auto& su : b.storage()) {
      comps += 1;  // load-enable source
      ++signals;
      pins += 2;   // D input and load pin
      route(b.storage_sources(su.index).size());
    }
    nl.reserve(comps, pins);
    control.reserve(signals);
    storage_comp.reserve(b.storage().size());
    fu_comp.reserve(b.func_units().size());
  }

  /// Clear `care` for the next signal.
  std::vector<bool>& fresh_care() {
    care.assign(static_cast<std::size_t>(clocks.period()) + 1, false);
    return care;
  }

  unsigned width() const { return b.graph().width(); }

  /// Local controller step at which a value born at schedule step `birth`
  /// is loaded: births 1..T load at their own step; birth 0 (primary
  /// inputs) loads at the boundary edge, i.e. step `period`.
  int load_step(int birth) const {
    return birth == 0 ? clocks.period() : birth;
  }

  /// Net carrying a routed Source.
  NetId source_net(const Source& s) const {
    switch (s.kind) {
      case Source::Kind::Storage:
        return nl.comp(storage_comp[s.index]).output;
      case Source::Kind::Constant:
        return nl.comp(const_comps.at(s.value)).output;
      case Source::Kind::InputPort:
        return nl.comp(input_ports.at(s.value)).output;
      case Source::Kind::FuncUnit:
        return nl.comp(fu_comp[s.index]).output;
      case Source::Kind::None:
        break;
    }
    MCRTL_CHECK(false);
    return NetId();
  }

  /// Create a ControlSource + signal; returns the signal index. The source
  /// component's output net is the control line.
  unsigned make_signal(const std::string& name, SignalRole role, unsigned bits,
                       int partition) {
    const CompId src = nl.add_component(CompKind::ControlSource, name, bits);
    const bool latched =
        opts.latched_control && b.num_clocks() > 1 && partition >= 1;
    return control.add_signal(name, role, bits, latched,
                              partition >= 1 ? partition : 1, src);
  }

  NetId signal_net(unsigned sig) const {
    return nl.comp(control.signal(sig).source).output;
  }
};

void create_io_and_constants(Lowering& L) {
  const dfg::Graph& g = L.b.graph();
  for (const auto& v : g.values()) {  // Graph::inputs() order, no copy
    if (v.kind != ValueKind::Input) continue;
    L.input_ports[v.id] =
        L.nl.add_component(CompKind::InputPort, "in_" + v.name, L.width());
  }
  // One Constant component per constant value that is actually routed
  // somewhere (operand of a node or forwarded into storage).
  for (const auto& v : g.values()) {
    if (v.kind != ValueKind::Constant || v.consumers.empty()) continue;
    const CompId c = L.nl.add_component(
        CompKind::Constant, "const_" + sanitize_identifier(v.name), L.width());
    L.nl.comp_mut(c).const_value = v.const_value;
    L.const_comps[v.id] = c;
  }
}

void create_storage(Lowering& L) {
  for (const auto& su : L.b.storage()) {
    const CompKind kind =
        su.kind == StorageKind::Latch ? CompKind::Latch : CompKind::Register;
    const CompId c = L.nl.add_component(kind, su.name, L.width(), 1);
    Component& comp = L.nl.comp_mut(c);
    comp.clock_phase = su.partition;
    comp.clock_gated = L.opts.gated_clocks;
    comp.partition = su.partition;
    L.storage_comp.push_back(c);
  }
}

void create_fus_and_port_muxes(Lowering& L) {
  L.fu_port_mux.assign(L.b.func_units().size(), {CompId(), CompId()});
  L.fu_port_iso.assign(L.b.func_units().size(), {CompId(), CompId()});
  for (const auto& fu : L.b.func_units()) {
    const CompId c = L.nl.add_component(CompKind::Alu, fu.name, L.width(), 2);
    Component& comp = L.nl.comp_mut(c);
    comp.funcs = fu.funcs;
    comp.partition = fu.partition;
    L.fu_comp.push_back(c);
  }
  // Port muxes and ALU input wiring. ALU inputs connect to the mux output
  // when the port has >= 2 sources, else directly to the single source.
  // With operand isolation, an AND-gate stage (enabled only in the ALU's
  // duty steps) sits between the port net and the ALU, so off-duty
  // transitions stop at the cheap gate inputs instead of rippling through
  // the function blocks.
  for (const auto& fu : L.b.func_units()) {
    const CompId alu = L.fu_comp[fu.index];
    unsigned iso_sig = 0;
    if (L.opts.operand_isolation) {
      iso_sig = L.make_signal(fu.name + "_iso", SignalRole::Load, 1,
                              fu.partition);
      for (NodeId op : fu.ops) {
        L.control.set_value(iso_sig, L.b.schedule().step(op), 1);
      }
    }
    auto isolate = [&](NetId data, unsigned port) -> NetId {
      if (!L.opts.operand_isolation) return data;
      const CompId gate = L.nl.add_component(
          CompKind::IsoGate, fu.name + "_p" + std::to_string(port) + "_iso",
          L.width(), 1);
      L.nl.comp_mut(gate).partition = fu.partition;
      L.nl.connect_input(gate, data);
      L.nl.set_select(gate, L.signal_net(iso_sig));
      L.fu_port_iso[fu.index][port] = gate;
      return L.nl.comp(gate).output;
    };
    for (unsigned port = 0; port < 2; ++port) {
      const auto& srcs = L.b.fu_port_sources(fu.index, port);
      if (srcs.empty()) {
        // Port never used (all-unary ALU): tie to port 0's net so the
        // component is structurally complete; eval ignores it.
        MCRTL_CHECK(port == 1);
        L.nl.connect_input(alu, L.nl.comp(alu).inputs[0]);
        continue;
      }
      if (srcs.size() == 1) {
        L.nl.connect_input(alu, isolate(L.source_net(srcs[0]), port));
        continue;
      }
      const CompId mux = L.nl.add_component(
          L.opts.interconnect == BuildOptions::Interconnect::TristateBus
              ? CompKind::Bus
              : CompKind::Mux,
          fu.name + "_p" + std::to_string(port) + "_mux", L.width(),
          srcs.size());
      L.nl.comp_mut(mux).partition = fu.partition;
      for (const auto& s : srcs) L.nl.connect_input(mux, L.source_net(s));
      const unsigned sig =
          L.make_signal(fu.name + "_p" + std::to_string(port) + "_sel",
                        SignalRole::MuxSelect, select_width(srcs.size()),
                        fu.partition);
      L.nl.set_select(mux, L.signal_net(sig));
      L.fu_port_mux[fu.index][port] = mux;
      L.nl.connect_input(alu, isolate(L.nl.comp(mux).output, port));

      // Control table: at each op's step, select that op's source index.
      auto& care = L.fresh_care();
      for (NodeId op : fu.ops) {
        const Source& s = L.b.operand_source(op, port);
        if (s.kind == Source::Kind::None) continue;  // unary op, port 1
        const auto it = std::find(srcs.begin(), srcs.end(), s);
        MCRTL_CHECK(it != srcs.end());
        const int t = L.b.schedule().step(op);
        L.control.set_value(sig, t, static_cast<std::uint64_t>(it - srcs.begin()));
        care[static_cast<std::size_t>(t)] = true;
      }
      L.control.hold_fill(sig, care, L.opts.control_fill);
    }
    // Function select for multifunction ALUs.
    if (fu.funcs.size() > 1) {
      const unsigned sig = L.make_signal(fu.name + "_fsel", SignalRole::FuncSelect,
                                         select_width(fu.funcs.size()),
                                         fu.partition);
      L.nl.set_select(L.fu_comp[fu.index], L.signal_net(sig));
      auto& care = L.fresh_care();
      for (NodeId op : fu.ops) {
        const int t = L.b.schedule().step(op);
        L.control.set_value(
            sig, t,
            static_cast<std::uint64_t>(fu.func_code(L.b.graph().node(op).op)));
        care[static_cast<std::size_t>(t)] = true;
      }
      L.control.hold_fill(sig, care, L.opts.control_fill);
    }
  }
}

void create_storage_inputs(Lowering& L) {
  const dfg::Graph& g = L.b.graph();
  L.storage_mux.assign(L.b.storage().size(), CompId());
  for (const auto& su : L.b.storage()) {
    const CompId sc = L.storage_comp[su.index];
    const auto& srcs = L.b.storage_sources(su.index);
    MCRTL_CHECK_MSG(!srcs.empty(), "storage " << su.name << " has no source");

    NetId data;
    unsigned sel_sig = 0;
    bool have_sel = false;
    if (srcs.size() == 1) {
      data = L.source_net(srcs[0]);
    } else {
      const CompId mux = L.nl.add_component(
          L.opts.interconnect == BuildOptions::Interconnect::TristateBus
              ? CompKind::Bus
              : CompKind::Mux,
          su.name + "_mux", L.width(), srcs.size());
      L.nl.comp_mut(mux).partition = su.partition;
      for (const auto& s : srcs) L.nl.connect_input(mux, L.source_net(s));
      sel_sig = L.make_signal(su.name + "_sel", SignalRole::MuxSelect,
                              select_width(srcs.size()), su.partition);
      L.nl.set_select(mux, L.signal_net(sel_sig));
      have_sel = true;
      L.storage_mux[su.index] = mux;
      data = L.nl.comp(mux).output;
    }
    L.nl.connect_input(sc, data);

    // Load enable: exactly the steps in which one of the unit's values is
    // born. (No hold-fill — a spurious load would corrupt the datapath.)
    const unsigned load_sig =
        L.make_signal(su.name + "_ld", SignalRole::Load, 1, su.partition);
    L.nl.set_load(sc, L.signal_net(load_sig));
    auto& sel_care = L.fresh_care();
    for (ValueId v : su.values) {
      const int birth = L.b.lifetimes().of(v).birth;
      const int t = L.load_step(birth);

      L.control.set_value(load_sig, t, 1);
      if (have_sel) {
        // Source of this particular value.
        Source s;
        const dfg::Value& val = g.value(v);
        if (val.kind == ValueKind::Input) {
          s.kind = Source::Kind::InputPort;
          s.value = v;
        } else if (L.b.is_transfer(val.producer)) {
          const ValueId from = g.node(val.producer).inputs[0];
          if (g.value(from).kind == ValueKind::Constant) {
            s.kind = Source::Kind::Constant;
            s.value = from;
          } else {
            s.kind = Source::Kind::Storage;
            s.index = static_cast<unsigned>(L.b.storage_of(from));
          }
        } else {
          s.kind = Source::Kind::FuncUnit;
          s.index = L.b.fu_of(val.producer);
        }
        const auto it = std::find(srcs.begin(), srcs.end(), s);
        MCRTL_CHECK_MSG(it != srcs.end(),
                        "source of value '" << val.name << "' missing from mux of "
                                            << su.name);
        L.control.set_value(sel_sig, t,
                            static_cast<std::uint64_t>(it - srcs.begin()));
        sel_care[static_cast<std::size_t>(t)] = true;
      }
    }
    if (have_sel) L.control.hold_fill(sel_sig, sel_care, L.opts.control_fill);
  }
}

}  // namespace

Design build_design(const alloc::Binding& binding, const BuildOptions& opts) {
  obs::Span span("rtl.build_design");
  fault::inject("rtl.build");
  Lowering L(binding, opts);
  create_io_and_constants(L);
  create_storage(L);
  create_fus_and_port_muxes(L);
  create_storage_inputs(L);

  // Output ports observe the storage unit holding each primary output.
  std::map<ValueId, CompId> output_storage;
  std::map<ValueId, CompId> output_ports;
  const dfg::Graph& g = binding.graph();
  for (ValueId v : g.outputs()) {
    const int su = binding.storage_of(v);
    MCRTL_CHECK_MSG(su >= 0, "output '" << g.value(v).name << "' not stored");
    const CompId sc = L.storage_comp[static_cast<unsigned>(su)];
    const CompId port = L.nl.add_component(
        CompKind::OutputPort, "out_" + sanitize_identifier(g.value(v).name),
        g.width(), 1);
    L.nl.connect_input(port, L.nl.comp(sc).output);
    output_storage[v] = sc;
    output_ports[v] = port;
  }

  // Attribution map: the DFG-level origin of every component, consumed by
  // the hierarchical power profiler. ALUs (and the muxes/iso gates feeding
  // them) carry the function-set label; storage (and its input mux) carries
  // the names of the values it holds.
  std::vector<std::string> comp_op(L.nl.num_components());
  for (const auto& fu : binding.func_units()) {
    const std::string label = fu.func_string();
    comp_op[L.fu_comp[fu.index].index()] = label;
    for (unsigned port = 0; port < 2; ++port) {
      if (L.fu_port_mux[fu.index][port].valid()) {
        comp_op[L.fu_port_mux[fu.index][port].index()] = label;
      }
      if (L.fu_port_iso[fu.index][port].valid()) {
        comp_op[L.fu_port_iso[fu.index][port].index()] = label;
      }
    }
  }
  for (const auto& su : binding.storage()) {
    std::string label;
    for (std::size_t i = 0; i < su.values.size(); ++i) {
      if (i == 3) {  // registers can merge many values; keep the label short
        label += str_format("+%zu", su.values.size() - i);
        break;
      }
      if (i) label += ",";
      label += g.value(su.values[i]).name;
    }
    comp_op[L.storage_comp[su.index].index()] = label;
    if (L.storage_mux[su.index].valid()) {
      comp_op[L.storage_mux[su.index].index()] = label;
    }
  }

  Design d(opts.style_name, std::move(L.nl), L.clocks, std::move(L.control));
  d.comp_op = std::move(comp_op);
  d.input_ports = std::move(L.input_ports);
  d.output_storage = std::move(output_storage);
  d.output_ports = std::move(output_ports);
  d.storage_comp = std::move(L.storage_comp);
  d.fu_comp = std::move(L.fu_comp);
  d.schedule_steps = binding.schedule().num_steps();

  d.stats.alu_summary = binding.alu_summary();
  d.stats.num_alus = static_cast<int>(binding.func_units().size());
  d.stats.num_memory_cells = binding.num_memory_cells();
  d.stats.num_mux_inputs = binding.num_mux_inputs();
  d.stats.num_muxes = binding.num_muxes();
  d.stats.num_clocks = binding.num_clocks();
  d.stats.period = d.clocks.period();
  if (obs::enabled()) {
    obs::count("rtl.designs_built");
    obs::count("rtl.nets", d.netlist.num_nets());
    obs::count("rtl.components", d.netlist.num_components());
    obs::count("rtl.muxes", static_cast<std::uint64_t>(d.stats.num_muxes));
    obs::count("rtl.mux_inputs",
               static_cast<std::uint64_t>(d.stats.num_mux_inputs));
    obs::count("rtl.memory_cells",
               static_cast<std::uint64_t>(d.stats.num_memory_cells));
  }
  return d;
}

}  // namespace mcrtl::rtl
