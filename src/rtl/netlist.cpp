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

Netlist::Netlist(std::string name)
    : name_(std::move(name)),
      pins_(std::make_unique<std::pmr::monotonic_buffer_resource>()) {}

void Netlist::reserve(std::size_t components, std::size_t pins) {
  comps_.reserve(components);
  nets_.reserve(components);
  if (comps_.empty()) {
    // Inputs are sized exactly by add_component; reader lists grow by
    // doubling inside the arena, so leave them room for their regrowth.
    pins_ = std::make_unique<std::pmr::monotonic_buffer_resource>(
        pins * (sizeof(NetId) + 3 * sizeof(CompId)) + 64);
  }
}

NetId Netlist::add_net(std::string name, unsigned width, CompId driver) {
  Net& n = nets_.emplace_back(pins_.get());
  n.id = NetId(static_cast<std::uint32_t>(nets_.size() - 1));
  n.name = std::move(name);
  n.width = width;
  n.driver = driver;
  return n.id;
}

CompId Netlist::add_component(CompKind kind, std::string name, unsigned width,
                              std::size_t num_inputs) {
  const CompId id(static_cast<std::uint32_t>(comps_.size()));
  const NetId output =
      kind != CompKind::OutputPort ? add_net(name + "_o", width, id) : NetId();
  Component& c = comps_.emplace_back(pins_.get());
  c.id = id;
  c.kind = kind;
  c.name = std::move(name);
  c.width = width;
  c.output = output;
  c.inputs.reserve(num_inputs);
  return id;
}

void Netlist::connect_input(CompId c, NetId n) {
  MCRTL_CHECK(c.valid() && c.index() < comps_.size());
  MCRTL_CHECK(n.valid() && n.index() < nets_.size());
  comps_[c.index()].inputs.push_back(n);
  nets_[n.index()].readers.push_back(c);
}

void Netlist::set_select(CompId c, NetId n) {
  MCRTL_CHECK(c.valid() && c.index() < comps_.size());
  MCRTL_CHECK(n.valid() && n.index() < nets_.size());
  MCRTL_CHECK(!comps_[c.index()].select.valid());
  comps_[c.index()].select = n;
  nets_[n.index()].readers.push_back(c);
}

void Netlist::set_load(CompId c, NetId n) {
  MCRTL_CHECK(c.valid() && c.index() < comps_.size());
  MCRTL_CHECK(n.valid() && n.index() < nets_.size());
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

Netlist::Levelization Netlist::levelize() const {
  // Kahn's algorithm over the combinational components (storage, ports,
  // constants and control sources are sequential/external boundaries),
  // counting data-input and select edges, with a LIFO ready list; the
  // longest-path level of a component is fixed once its last driver pops.
  Levelization lv;
  lv.level.assign(comps_.size(), -1);
  std::vector<unsigned> pending(comps_.size(), 0);
  const auto comb_driven = [&](NetId n) {
    const CompId d = nets_[n.index()].driver;
    return d.valid() && is_combinational(comps_[d.index()].kind);
  };
  std::vector<CompId> ready;
  std::size_t total = 0;
  for (const auto& c : comps_) {
    if (!is_combinational(c.kind)) continue;
    ++total;
    unsigned& p = pending[c.id.index()];
    for (NetId in : c.inputs) p += comb_driven(in) ? 1 : 0;
    if (c.select.valid() && comb_driven(c.select)) ++p;
    if (p == 0) {
      lv.level[c.id.index()] = 0;
      ready.push_back(c.id);
    }
  }
  lv.order.reserve(total);
  while (!ready.empty()) {
    const CompId cid = ready.back();
    ready.pop_back();
    lv.order.push_back(cid);
    const int next = lv.level[cid.index()] + 1;
    lv.depth = std::max(lv.depth, next);
    const NetId out = comps_[cid.index()].output;
    const auto& readers = nets_[out.index()].readers;
    for (auto it = readers.begin(); it != readers.end(); ++it) {
      const Component& r = comps_[it->index()];
      if (!is_combinational(r.kind)) continue;
      // The list has one entry per pin: take all of a reader's edges at its
      // first entry and skip the rest.
      if (std::find(readers.begin(), it, *it) != it) continue;
      unsigned n_edges = static_cast<unsigned>(
          std::count(r.inputs.begin(), r.inputs.end(), out));
      if (r.select == out) ++n_edges;
      lv.level[it->index()] = std::max(lv.level[it->index()], next);
      pending[it->index()] -= n_edges;
      if (pending[it->index()] == 0) ready.push_back(*it);
    }
  }
  if (lv.order.size() != total) {
    throw ValidationError("netlist '" + name_ +
                          "' has a combinational cycle (through data or "
                          "select pins)");
  }
  return lv;
}

Netlist::Levelization Netlist::validate() const {
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
  return levelize();  // throws on combinational cycles
}

}  // namespace mcrtl::rtl
