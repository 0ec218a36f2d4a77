// The compiled design tables (rtl::DesignTables) against straightforward
// reference derivations written out here: every suite behaviour x every
// search variant at widths 3 and 8, plus the hand-built designs. The
// simulator kernels read nothing else, so these are the kernels' inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/search.hpp"
#include "core/synthesizer.hpp"
#include "hand_built.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"

namespace mcrtl::rtl {
namespace {

bool comb(const Netlist& nl, CompId c) {
  return c.valid() && is_combinational(nl.comp(c).kind);
}

/// Kahn's algorithm over combinational components with a LIFO ready list
/// seeded in CompId order; a popped component releases each distinct
/// reader of its output (in reader-list order) by all of its edges from
/// it. `with_select` counts select-pin edges; without them this is the
/// order the simulator used before select edges were ordered.
std::vector<CompId> kahn_order(const Netlist& nl, bool with_select) {
  auto edges = [&](const Component& r, NetId n) {
    auto e = std::count(r.inputs.begin(), r.inputs.end(), n);
    if (with_select && r.select == n) ++e;
    return static_cast<unsigned>(e);
  };
  std::vector<unsigned> pending(nl.num_components(), 0);
  std::vector<CompId> ready;
  for (const auto& c : nl.components()) {
    if (!is_combinational(c.kind)) continue;
    for (const auto& d : nl.components()) {
      if (is_combinational(d.kind)) pending[c.id.index()] += edges(c, d.output);
    }
    if (pending[c.id.index()] == 0) ready.push_back(c.id);
  }
  std::vector<CompId> order;
  while (!ready.empty()) {
    const CompId c = ready.back();
    ready.pop_back();
    order.push_back(c);
    const NetId out = nl.comp(c).output;
    std::vector<CompId> seen;
    for (CompId r : nl.net(out).readers) {
      if (!comb(nl, r) || std::count(seen.begin(), seen.end(), r)) continue;
      seen.push_back(r);
      const unsigned e = edges(nl.comp(r), out);
      if (e == 0) continue;
      pending[r.index()] -= e;
      if (pending[r.index()] == 0) ready.push_back(r);
    }
  }
  return order;
}

/// The combinational drivers of `c`, through data inputs and the select.
std::vector<CompId> comb_drivers(const Netlist& nl, const Component& c) {
  std::vector<CompId> out;
  for (NetId in : c.inputs) {
    if (comb(nl, nl.net(in).driver)) out.push_back(nl.net(in).driver);
  }
  if (c.select.valid() && comb(nl, nl.net(c.select).driver)) {
    out.push_back(nl.net(c.select).driver);
  }
  return out;
}

/// The ControlPlan signal driving `net`, or -1.
int signal_of(const Design& d, NetId net) {
  for (const auto& s : d.control.signals()) {
    if (d.netlist.comp(s.source).output == net) return static_cast<int>(s.index);
  }
  return -1;
}

template <typename T>
std::vector<T> row(const Csr<T>& csr, std::size_t i) {
  const auto r = csr[i];
  return {r.begin(), r.end()};
}

/// Every table of `d` against its reference. `synthesized` designs must
/// also keep the select-blind order (their selects are all controller
/// lines) and static edges.
void check_tables(const Design& d, bool synthesized, const std::string& what) {
  SCOPED_TRACE(what);
  const Netlist& nl = d.netlist;
  const DesignTables& tab = d.tables;
  const int P = d.clocks.period();

  // Order: the data+select Kahn order, a topological order of every
  // combinational edge.
  EXPECT_EQ(tab.comb_order, kahn_order(nl, true));
  if (synthesized) {
    EXPECT_EQ(tab.comb_order, kahn_order(nl, false));
  }
  std::vector<int> pos(nl.num_components(), -1);
  for (std::size_t i = 0; i < tab.comb_order.size(); ++i) {
    pos[tab.comb_order[i].index()] = static_cast<int>(i);
  }
  // Levels: a longest-path levelization.
  ASSERT_EQ(tab.level.size(), nl.num_components());
  std::vector<std::uint32_t> width(tab.depth(), 0);
  for (const auto& c : nl.components()) {
    if (!is_combinational(c.kind)) {
      EXPECT_EQ(tab.level[c.id.index()], -1) << c.name;
      EXPECT_EQ(pos[c.id.index()], -1) << c.name;
      continue;
    }
    ASSERT_GE(pos[c.id.index()], 0) << c.name << " missing from the order";
    int expect = 0;
    for (CompId drv : comb_drivers(nl, c)) {
      EXPECT_LT(pos[drv.index()], pos[c.id.index()]) << c.name;
      expect = std::max(expect, tab.level[drv.index()] + 1);
    }
    EXPECT_EQ(tab.level[c.id.index()], expect) << c.name;
    ASSERT_LT(static_cast<std::size_t>(tab.level[c.id.index()]), tab.depth());
    ++width[static_cast<std::size_t>(tab.level[c.id.index()])];
  }
  for (std::size_t l = 0; l < tab.depth(); ++l) {
    EXPECT_EQ(tab.level_offset[l + 1] - tab.level_offset[l], width[l]) << l;
    EXPECT_GT(width[l], 0u) << "empty level " << l;
  }

  // Fanout: the combinational components reading each net through a data
  // or select pin, once each, in CompId order.
  ASSERT_EQ(tab.fanout.rows(), nl.num_nets());
  for (const Net& n : nl.nets()) {
    std::vector<CompId> expect;
    for (const auto& c : nl.components()) {
      if (!is_combinational(c.kind)) continue;
      if (c.select == n.id ||
          std::find(c.inputs.begin(), c.inputs.end(), n.id) != c.inputs.end()) {
        expect.push_back(c.id);
      }
    }
    EXPECT_EQ(row(tab.fanout, n.id.index()), expect) << n.name;
  }

  // Controller: every line value, and replaying the per-step deltas from
  // the boundary state reproduces ControlPlan::line_value exactly.
  const auto& sigs = d.control.signals();
  ASSERT_EQ(tab.line_net.size(), sigs.size());
  std::vector<std::uint64_t> line(sigs.size());
  for (const auto& s : sigs) {
    EXPECT_EQ(tab.line_net[s.index], nl.comp(s.source).output);
    line[s.index] = d.control.line_value(s.index, P);
  }
  ASSERT_EQ(tab.step_writes.rows(), static_cast<std::size_t>(P) + 1);
  EXPECT_TRUE(tab.step_writes[0].empty());
  for (int t = 1; t <= P; ++t) {
    for (const LineWrite& w : tab.step_writes[static_cast<std::size_t>(t)]) {
      const int s = signal_of(d, w.net);
      ASSERT_GE(s, 0);
      EXPECT_NE(line[static_cast<std::size_t>(s)], w.value)
          << "step " << t << " rewrites an unchanged line";
      line[static_cast<std::size_t>(s)] = w.value;
    }
    for (const auto& s : sigs) {
      EXPECT_EQ(line[s.index], d.control.line_value(s.index, t))
          << s.name << " step " << t;
      EXPECT_EQ(tab.lines_at(t)[s.index], d.control.line_value(s.index, t));
    }
  }

  // Storage and edges: the per-phase load table.
  ASSERT_EQ(tab.storage_by_phase.rows(),
            static_cast<std::size_t>(d.clocks.num_phases()) + 1);
  for (int p = 0; p <= d.clocks.num_phases(); ++p) {
    std::vector<CompId> expect;
    for (const auto& c : nl.components()) {
      if (is_storage(c.kind) && c.clock_phase == p) expect.push_back(c.id);
    }
    EXPECT_EQ(row(tab.storage_by_phase, static_cast<std::size_t>(p)), expect);
  }
  bool controlled = true;
  for (const auto& c : nl.components()) {
    if (is_storage(c.kind) && c.load.valid() && signal_of(d, c.load) < 0) {
      controlled = false;
    }
  }
  EXPECT_EQ(tab.static_edges, controlled);
  if (synthesized) {
    EXPECT_TRUE(tab.static_edges);
  }
  if (!tab.static_edges) return;
  for (int t = 1; t <= P; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    ASSERT_EQ(tab.phase_by_step[ts], d.clocks.phase_of_step(t));
    std::vector<CompId> clocked, captured;
    for (const auto& c : nl.components()) {
      if (!is_storage(c.kind) || c.clock_phase != d.clocks.phase_of_step(t)) {
        continue;
      }
      const bool load =
          !c.load.valid() ||
          d.control.line_value(static_cast<unsigned>(signal_of(d, c.load)), t) != 0;
      if (load || !c.clock_gated) clocked.push_back(c.id);
      if (load) captured.push_back(c.id);
    }
    EXPECT_EQ(row(tab.edge_clock_events, ts), clocked) << "step " << t;
    EXPECT_EQ(row(tab.edge_captures, ts), captured) << "step " << t;
    bool chained = false;
    for (CompId a : captured) {
      for (CompId b : captured) {
        chained |= nl.comp(b).output == nl.comp(a).inputs[0];
      }
    }
    EXPECT_EQ(tab.edge_chained[ts] != 0, chained) << "step " << t;
  }
}

TEST(DesignTablesTest, MatchReferenceOnEverySuiteVariant) {
  const auto variants = core::search_variants(4);
  for (const auto& name : suite::all_names()) {
    for (unsigned width : {3u, 8u}) {
      const auto b = suite::by_name(name, width);
      for (const auto& [opts, label] : variants) {
        const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
        check_tables(*syn.design, true,
                     name + "/w" + std::to_string(width) + "/" + label);
      }
    }
  }
}

TEST(DesignTablesTest, MatchReferenceOnHandBuiltDesigns) {
  const fixtures::TwoPeriodChain chain;
  check_tables(*chain.design, false, "two-period chain");
  const fixtures::SelectOrderMux mux;
  check_tables(*mux.design, false, "select-order mux");
  // The select edge orders the comparator first, which the select-blind
  // order would not.
  EXPECT_EQ(mux.design->tables.comb_order,
            (std::vector<CompId>{mux.cmp, mux.mux}));
  EXPECT_EQ(kahn_order(mux.design->netlist, false),
            (std::vector<CompId>{mux.mux, mux.cmp}));
  EXPECT_EQ(mux.design->tables.level[mux.mux.index()], 1);
}

TEST(DesignTablesTest, DatapathDrivenLoadLeavesNoStaticSchedule) {
  // A load pin fed from the datapath makes the capture set data-dependent:
  // no static schedule, and the scalar kernels re-derive it at every edge.
  Netlist nl("dyn_load");
  const auto in = nl.add_component(CompKind::InputPort, "in", 1);
  const auto r = nl.add_component(CompKind::Register, "r", 1);
  nl.connect_input(r, nl.comp(in).output);
  nl.set_load(r, nl.comp(in).output);
  const ClockScheme cs(1, 1);
  const Design d("dyn_load", std::move(nl), cs, ControlPlan(cs));
  EXPECT_FALSE(d.tables.static_edges);
  check_tables(d, false, "datapath-driven load");
}

TEST(DesignTablesTest, ConstructionRejectsASelectCycle) {
  // Two muxes selecting each other: a combinational cycle only through
  // select pins, which the levelization (and so validate()) rejects.
  Netlist nl("select_cycle");
  const auto a = nl.add_component(CompKind::InputPort, "a", 1);
  const auto b = nl.add_component(CompKind::InputPort, "b", 1);
  const auto m1 = nl.add_component(CompKind::Mux, "m1", 1);
  const auto m2 = nl.add_component(CompKind::Mux, "m2", 1);
  for (CompId m : {m1, m2}) {
    nl.connect_input(m, nl.comp(a).output);
    nl.connect_input(m, nl.comp(b).output);
  }
  nl.set_select(m1, nl.comp(m2).output);
  nl.set_select(m2, nl.comp(m1).output);
  EXPECT_THROW(nl.validate(), ValidationError);
  const ClockScheme cs(1, 1);
  EXPECT_THROW(Design("select_cycle", std::move(nl), cs, ControlPlan(cs)),
               ValidationError);
}

}  // namespace
}  // namespace mcrtl::rtl
