#include "rtl/tables.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace mcrtl::rtl {

namespace {

/// Combinational readers of every net, deduplicated, in CompId order. A
/// combinational component reads a net only through a data input or its
/// select pin (load pins are storage-only), but its reader list names it
/// once per pin — a mux fed twice by one net, select + data from one
/// source.
Csr<CompId> comb_fanout(const Netlist& nl) {
  const auto& comps = nl.components();
  std::size_t pins = 0;
  for (const Net& net : nl.nets()) pins += net.readers.size();
  Csr<CompId> fanout;
  fanout.start(nl.num_nets(), pins);
  for (const Net& net : nl.nets()) {
    const auto row = static_cast<std::ptrdiff_t>(fanout.offset.back());
    for (CompId reader : net.readers) {
      if (is_combinational(comps[reader.index()].kind) &&
          std::find(fanout.items.begin() + row, fanout.items.end(), reader) ==
              fanout.items.end()) {
        fanout.items.push_back(reader);
      }
    }
    std::sort(fanout.items.begin() + row, fanout.items.end());
    fanout.end_row();
  }
  return fanout;
}

}  // namespace

DesignTables compile_tables(const Netlist& nl, const ClockScheme& clocks,
                            const ControlPlan& control) {
  DesignTables tab;
  const auto& comps = nl.components();
  const int P = clocks.period();
  const auto steps = static_cast<std::size_t>(P);
  const auto phases = static_cast<std::size_t>(clocks.num_phases());

  auto lv = nl.validate();
  tab.comb_order = std::move(lv.order);
  tab.level = std::move(lv.level);
  tab.level_offset.assign(static_cast<std::size_t>(lv.depth) + 1, 0);
  for (CompId cid : tab.comb_order) {
    ++tab.level_offset[static_cast<std::size_t>(tab.level[cid.index()]) + 1];
  }
  for (std::size_t l = 1; l < tab.level_offset.size(); ++l) {
    tab.level_offset[l] += tab.level_offset[l - 1];
  }
  tab.fanout = comb_fanout(nl);

  // Controller lines: each signal's value in every step, and the per-step
  // deltas against the step before (line values repeat every period).
  const auto& signals = control.signals();
  const std::size_t S = signals.size();
  tab.line_net.reserve(S);
  for (const auto& sig : signals) {
    tab.line_net.push_back(comps[sig.source.index()].output);
  }
  tab.line_values = control.line_values();
  auto changes = [&](int t, std::size_t s) {
    return tab.lines_at(t)[s] != tab.lines_at(t == 1 ? P : t - 1)[s];
  };
  std::size_t moves = 0;
  for (int t = 1; t <= P; ++t) {
    for (std::size_t s = 0; s < S; ++s) moves += changes(t, s) ? 1 : 0;
  }
  tab.step_writes.start(steps + 1, moves);
  tab.step_writes.end_row();  // row 0: no step
  for (int t = 1; t <= P; ++t) {
    for (std::size_t s = 0; s < S; ++s) {
      if (changes(t, s)) {
        tab.step_writes.items.push_back({tab.line_net[s], tab.lines_at(t)[s]});
      }
    }
    tab.step_writes.end_row();
  }
  tab.line_toggles.assign(S, 0);
  for (std::size_t s = 0; s < S; ++s) {
    const unsigned w = nl.net(tab.line_net[s]).width;
    std::uint64_t prev = truncate(tab.lines_at(P)[s], w);
    for (int t = 1; t <= P; ++t) {
      const std::uint64_t v = truncate(tab.lines_at(t)[s], w);
      tab.line_toggles[s] += hamming(prev, v);
      prev = v;
    }
  }

  // Storage by clock phase, and the phase of every step's edge.
  tab.phase_by_step.resize(steps + 1);
  for (int t = 1; t <= P; ++t) {
    tab.phase_by_step[static_cast<std::size_t>(t)] = clocks.phase_of_step(t);
  }
  const auto storage = static_cast<std::size_t>(std::count_if(
      comps.begin(), comps.end(), [](const auto& c) { return is_storage(c.kind); }));
  tab.storage_by_phase.start(phases + 1, storage);
  tab.storage_by_phase.end_row();  // row 0: no phase
  for (std::size_t p = 1; p <= phases; ++p) {
    for (const auto& c : comps) {
      if (is_storage(c.kind) && c.clock_phase == static_cast<int>(p)) {
        tab.storage_by_phase.items.push_back(c.id);
      }
    }
    tab.storage_by_phase.end_row();
  }

  // Static phase-edge schedules: exact when every storage load pin is fed
  // by a controller line, whose per-step value is tabulated and periodic.
  std::vector<int> signal_of_net(nl.num_nets(), -1);
  for (std::size_t s = 0; s < S; ++s) {
    signal_of_net[tab.line_net[s].index()] = static_cast<int>(s);
  }
  tab.static_edges = std::none_of(comps.begin(), comps.end(), [&](const auto& c) {
    return is_storage(c.kind) && c.load.valid() &&
           signal_of_net[c.load.index()] < 0;
  });
  // Each element is clocked once per period of its phase: P/n edges.
  const std::size_t edges = tab.static_edges ? storage * steps / phases : 0;
  tab.edge_clock_events.start(steps + 1, edges);
  tab.edge_captures.start(steps + 1, edges);
  tab.edge_clock_events.end_row();  // row 0: no step
  tab.edge_captures.end_row();
  tab.edge_chained.assign(steps + 1, 0);
  if (!tab.static_edges) return tab;
  for (int t = 1; t <= P; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    const auto lines = tab.lines_at(t);
    for (CompId cid : tab.storage_by_phase[static_cast<std::size_t>(
             tab.phase_by_step[ts])]) {
      const Component& c = comps[cid.index()];
      const bool load =
          !c.load.valid() ||
          lines[static_cast<std::size_t>(signal_of_net[c.load.index()])] != 0;
      if (load || !c.clock_gated) tab.edge_clock_events.items.push_back(cid);
      if (load) tab.edge_captures.items.push_back(cid);
    }
    tab.edge_clock_events.end_row();
    tab.edge_captures.end_row();
    const auto caps = tab.edge_captures[ts];
    tab.edge_chained[ts] = std::any_of(caps.begin(), caps.end(), [&](CompId a) {
      return std::any_of(caps.begin(), caps.end(), [&](CompId b) {
        return comps[b.index()].output == comps[a.index()].inputs[0];
      });
    });
  }
  return tab;
}

}  // namespace mcrtl::rtl
