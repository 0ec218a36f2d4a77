// Hand-built designs shared by the simulator and compiled-table tests:
// netlists synthesize() never produces, built directly on rtl::Netlist.
#pragma once

#include <memory>

#include "rtl/design.hpp"

namespace mcrtl::fixtures {

/// A design without the one-period warm-up property: R2 loads the input at
/// step 3, R1 loads R2 at step 1 — so at a period boundary R1 holds a value
/// from two computations back. Output = R1, sampled at T=3.
struct TwoPeriodChain {
  dfg::ValueId in_value{0};
  dfg::ValueId out_value{1};
  std::unique_ptr<rtl::Design> design;

  TwoPeriodChain() {
    rtl::Netlist nl("chain");
    const auto in = nl.add_component(rtl::CompKind::InputPort, "in", 4);
    const auto r2 = nl.add_component(rtl::CompKind::Register, "r2", 4);
    const auto r1 = nl.add_component(rtl::CompKind::Register, "r1", 4);
    const auto ld2 = nl.add_component(rtl::CompKind::ControlSource, "ld2", 1);
    const auto ld1 = nl.add_component(rtl::CompKind::ControlSource, "ld1", 1);
    nl.connect_input(r2, nl.comp(in).output);
    nl.connect_input(r1, nl.comp(r2).output);
    nl.set_load(r2, nl.comp(ld2).output);
    nl.set_load(r1, nl.comp(ld1).output);
    const rtl::ClockScheme cs(1, 3);
    rtl::ControlPlan cp(cs);
    const unsigned s2 =
        cp.add_signal("ld2", rtl::SignalRole::Load, 1, false, 1, ld2);
    const unsigned s1 =
        cp.add_signal("ld1", rtl::SignalRole::Load, 1, false, 1, ld1);
    cp.set_value(s2, 3, 1);
    cp.set_value(s1, 1, 1);
    design = std::make_unique<rtl::Design>("chain", std::move(nl), cs,
                                           std::move(cp));
    design->schedule_steps = 3;
    design->input_ports[in_value] = in;
    design->output_storage[out_value] = r1;
  }
};

/// A mux steered from the datapath: r <= (a < b) ? b : a, the select driven
/// by a comparator ALU instead of a controller line. The comparator is
/// created first, so an order that ignores select edges (a LIFO Kahn pass
/// over data edges alone) would evaluate the mux before its select.
struct SelectOrderMux {
  dfg::ValueId a_value{0};
  dfg::ValueId b_value{1};
  dfg::ValueId out_value{2};
  rtl::CompId cmp;
  rtl::CompId mux;
  std::unique_ptr<rtl::Design> design;

  SelectOrderMux() {
    rtl::Netlist nl("select_order");
    const auto a = nl.add_component(rtl::CompKind::InputPort, "a", 4);
    const auto b = nl.add_component(rtl::CompKind::InputPort, "b", 4);
    cmp = nl.add_component(rtl::CompKind::Alu, "cmp", 4);
    nl.comp_mut(cmp).funcs = {dfg::Op::Lt};
    nl.connect_input(cmp, nl.comp(a).output);
    nl.connect_input(cmp, nl.comp(b).output);
    mux = nl.add_component(rtl::CompKind::Mux, "m", 4);
    nl.connect_input(mux, nl.comp(a).output);
    nl.connect_input(mux, nl.comp(b).output);
    nl.set_select(mux, nl.comp(cmp).output);
    const auto r = nl.add_component(rtl::CompKind::Register, "r", 4);
    nl.connect_input(r, nl.comp(mux).output);
    const auto ld = nl.add_component(rtl::CompKind::ControlSource, "ld", 1);
    nl.set_load(r, nl.comp(ld).output);
    const rtl::ClockScheme cs(1, 1);  // period 2
    rtl::ControlPlan cp(cs);
    const unsigned s = cp.add_signal("ld", rtl::SignalRole::Load, 1, false, 1, ld);
    cp.set_value(s, 1, 1);
    design = std::make_unique<rtl::Design>("select_order", std::move(nl), cs,
                                           std::move(cp));
    design->schedule_steps = 1;
    design->input_ports[a_value] = a;
    design->input_ports[b_value] = b;
    design->output_storage[out_value] = r;
  }
};

}  // namespace mcrtl::fixtures
