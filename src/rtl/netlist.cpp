#include "rtl/netlist.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace mcrtl::rtl {

const char* comp_kind_name(CompKind k) {
  switch (k) {
    case CompKind::InputPort: return "input";
    case CompKind::OutputPort: return "output";
    case CompKind::Constant: return "const";
    case CompKind::ControlSource: return "ctrl";
    case CompKind::Mux: return "mux";
    case CompKind::Bus: return "bus";
    case CompKind::Alu: return "alu";
    case CompKind::IsoGate: return "iso";
    case CompKind::Register: return "reg";
    case CompKind::Latch: return "latch";
  }
  return "?";
}

bool is_storage(CompKind k) {
  return k == CompKind::Register || k == CompKind::Latch;
}

bool is_combinational(CompKind k) {
  return k == CompKind::Mux || k == CompKind::Bus || k == CompKind::Alu ||
         k == CompKind::IsoGate;
}

Netlist::Netlist(std::string name) : name_(std::move(name)) {}

NetId Netlist::add_net(std::string name, unsigned width, CompId driver) {
  Net n;
  n.id = NetId(static_cast<std::uint32_t>(nets_.size()));
  n.name = std::move(name);
  n.width = width;
  n.driver = driver;
  nets_.push_back(std::move(n));
  return nets_.back().id;
}

CompId Netlist::add_component(CompKind kind, std::string name, unsigned width) {
  Component c;
  c.id = CompId(static_cast<std::uint32_t>(comps_.size()));
  c.kind = kind;
  c.name = std::move(name);
  c.width = width;
  if (kind != CompKind::OutputPort) {
    c.output = add_net(c.name + "_o", width, c.id);
  }
  comps_.push_back(std::move(c));
  return comps_.back().id;
}

void Netlist::connect_input(CompId c, NetId n) {
  MCRTL_CHECK(c.valid() && c.index() < comps_.size());
  MCRTL_CHECK(n.valid() && n.index() < nets_.size());
  comps_[c.index()].inputs.push_back(n);
  nets_[n.index()].readers.push_back(c);
}

void Netlist::set_select(CompId c, NetId n) {
  MCRTL_CHECK(c.valid() && n.valid());
  MCRTL_CHECK(!comps_[c.index()].select.valid());
  comps_[c.index()].select = n;
  nets_[n.index()].readers.push_back(c);
}

void Netlist::set_load(CompId c, NetId n) {
  MCRTL_CHECK(c.valid() && n.valid());
  MCRTL_CHECK(is_storage(comps_[c.index()].kind));
  MCRTL_CHECK(!comps_[c.index()].load.valid());
  comps_[c.index()].load = n;
  nets_[n.index()].readers.push_back(c);
}

const Component& Netlist::comp(CompId id) const {
  MCRTL_CHECK(id.valid() && id.index() < comps_.size());
  return comps_[id.index()];
}

Component& Netlist::comp_mut(CompId id) {
  MCRTL_CHECK(id.valid() && id.index() < comps_.size());
  return comps_[id.index()];
}

const Net& Netlist::net(NetId id) const {
  MCRTL_CHECK(id.valid() && id.index() < nets_.size());
  return nets_[id.index()];
}

std::vector<CompId> Netlist::comb_order() const {
  // Kahn's algorithm restricted to Mux/Alu components; storage, ports,
  // constants and control sources are sequential/external boundaries.
  std::vector<unsigned> pending(comps_.size(), 0);
  for (const auto& c : comps_) {
    if (!is_combinational(c.kind)) continue;
    for (NetId in : c.inputs) {
      const CompId d = nets_[in.index()].driver;
      if (d.valid() && is_combinational(comps_[d.index()].kind)) ++pending[c.id.index()];
    }
  }
  std::vector<CompId> ready;
  std::size_t total = 0;
  for (const auto& c : comps_) {
    if (!is_combinational(c.kind)) continue;
    ++total;
    if (pending[c.id.index()] == 0) ready.push_back(c.id);
  }
  std::vector<CompId> order;
  order.reserve(total);
  while (!ready.empty()) {
    const CompId cid = ready.back();
    ready.pop_back();
    order.push_back(cid);
    const Component& c = comps_[cid.index()];
    for (CompId reader : nets_[c.output.index()].readers) {
      if (!is_combinational(comps_[reader.index()].kind)) continue;
      // Count only data-input edges (select nets come from ControlSources).
      const auto& ins = comps_[reader.index()].inputs;
      const auto n_edges = static_cast<unsigned>(
          std::count(ins.begin(), ins.end(), c.output));
      if (n_edges == 0) continue;
      pending[reader.index()] -= n_edges;
      if (pending[reader.index()] == 0) ready.push_back(reader);
    }
  }
  if (order.size() != total) {
    throw ValidationError("netlist '" + name_ + "' has a combinational cycle");
  }
  return order;
}

std::vector<int> Netlist::comb_levels() const {
  // Kahn over combinational components again, but with select edges
  // included and longest-path levels recorded. comb_order() only orders
  // data edges; a levelized kernel must also evaluate a component after a
  // combinational select driver, so cycles through select pins are
  // rejected here even though comb_order() would accept them.
  std::vector<int> level(comps_.size(), -1);
  std::vector<unsigned> pending(comps_.size(), 0);
  auto for_each_comb_driver = [&](const Component& c, auto&& fn) {
    for (NetId in : c.inputs) {
      const CompId d = nets_[in.index()].driver;
      if (d.valid() && is_combinational(comps_[d.index()].kind)) fn(d);
    }
    if (c.select.valid()) {
      const CompId d = nets_[c.select.index()].driver;
      if (d.valid() && is_combinational(comps_[d.index()].kind)) fn(d);
    }
  };
  std::vector<CompId> ready;
  std::size_t total = 0;
  for (const auto& c : comps_) {
    if (!is_combinational(c.kind)) continue;
    ++total;
    for_each_comb_driver(c, [&](CompId) { ++pending[c.id.index()]; });
    if (pending[c.id.index()] == 0) {
      level[c.id.index()] = 0;
      ready.push_back(c.id);
    }
  }
  std::size_t done = 0;
  while (!ready.empty()) {
    const CompId cid = ready.back();
    ready.pop_back();
    ++done;
    const Component& c = comps_[cid.index()];
    if (!c.output.valid()) continue;
    for (CompId reader : nets_[c.output.index()].readers) {
      Component const& r = comps_[reader.index()];
      if (!is_combinational(r.kind)) continue;
      unsigned n_edges = static_cast<unsigned>(
          std::count(r.inputs.begin(), r.inputs.end(), c.output));
      if (r.select == c.output) ++n_edges;
      if (n_edges == 0) continue;
      level[reader.index()] =
          std::max(level[reader.index()], level[cid.index()] + 1);
      pending[reader.index()] -= n_edges;
      if (pending[reader.index()] == 0) ready.push_back(reader);
    }
  }
  if (done != total) {
    throw ValidationError("netlist '" + name_ +
                          "' has a combinational cycle (through data or "
                          "select pins)");
  }
  return level;
}

Netlist::Fanout Netlist::comb_fanout() const {
  Fanout fanout;
  fanout.offset.reserve(nets_.size() + 1);
  fanout.offset.push_back(0);
  std::vector<CompId> out;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    out.clear();
    for (CompId reader : nets_[i].readers) {
      const Component& r = comps_[reader.index()];
      if (!is_combinational(r.kind)) continue;
      // A reader pin list may name the same component several times (a mux
      // fed twice by one net, or select + data from the same source);
      // storage load pins are excluded because settle() never evaluates
      // storage. Only data-input and select reads make the cut.
      const bool reads = r.select == nets_[i].id ||
                         std::find(r.inputs.begin(), r.inputs.end(),
                                   nets_[i].id) != r.inputs.end();
      if (!reads) continue;
      if (std::find(out.begin(), out.end(), reader) == out.end()) {
        out.push_back(reader);
      }
    }
    std::sort(out.begin(), out.end(),
              [](CompId a, CompId b) { return a.index() < b.index(); });
    fanout.readers.insert(fanout.readers.end(), out.begin(), out.end());
    fanout.offset.push_back(static_cast<std::uint32_t>(fanout.readers.size()));
  }
  return fanout;
}

void Netlist::validate() const {
  for (const auto& c : comps_) {
    const auto need_inputs = [&]() -> std::size_t {
      switch (c.kind) {
        case CompKind::InputPort:
        case CompKind::Constant:
        case CompKind::ControlSource: return 0;
        case CompKind::OutputPort:
        case CompKind::Register:
        case CompKind::Latch:
        case CompKind::IsoGate: return 1;
        case CompKind::Alu: return 2;
        case CompKind::Mux:
        case CompKind::Bus: return c.inputs.size() >= 2 ? c.inputs.size() : 0;
      }
      return 0;
    }();
    if ((c.kind == CompKind::Mux || c.kind == CompKind::Bus) &&
        c.inputs.size() < 2) {
      throw ValidationError("mux/bus '" + c.name + "' has fewer than 2 inputs");
    }
    if (c.inputs.size() != need_inputs) {
      throw ValidationError(str_format("component '%s' has %zu inputs, expected %zu",
                                       c.name.c_str(), c.inputs.size(), need_inputs));
    }
    for (NetId in : c.inputs) {
      if (!in.valid() || in.index() >= nets_.size()) {
        throw ValidationError("component '" + c.name + "' has a dangling input");
      }
      // Control-source-driven nets may be narrower; data paths must match.
      const Net& n = nets_[in.index()];
      const CompKind dk = n.driver.valid() ? comps_[n.driver.index()].kind
                                           : CompKind::ControlSource;
      if (dk != CompKind::ControlSource && n.width != c.width) {
        throw ValidationError(str_format("width mismatch: net '%s' (%u) -> '%s' (%u)",
                                         n.name.c_str(), n.width, c.name.c_str(),
                                         c.width));
      }
    }
    if ((c.kind == CompKind::Mux || c.kind == CompKind::Bus) &&
        !c.select.valid()) {
      throw ValidationError("mux/bus '" + c.name + "' has no select net");
    }
    if (c.kind == CompKind::IsoGate && !c.select.valid()) {
      throw ValidationError("isolation gate '" + c.name + "' has no enable net");
    }
    if (c.kind == CompKind::Alu && c.funcs.empty()) {
      throw ValidationError("alu '" + c.name + "' has an empty function set");
    }
    if (c.kind == CompKind::Alu && c.funcs.size() > 1 && !c.select.valid()) {
      throw ValidationError("multifunction alu '" + c.name + "' has no select net");
    }
    if (is_storage(c.kind) && c.clock_phase < 1) {
      throw ValidationError("storage '" + c.name + "' has no clock phase");
    }
  }
  for (const auto& n : nets_) {
    if (!n.driver.valid() || n.driver.index() >= comps_.size()) {
      throw ValidationError("net '" + n.name + "' has no driver");
    }
    if (comps_[n.driver.index()].output != n.id) {
      throw ValidationError("net '" + n.name + "' driver mismatch");
    }
  }
  (void)comb_order();  // throws on combinational cycles
}

}  // namespace mcrtl::rtl
