#include "alloc/binding.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace mcrtl::alloc {

using dfg::NodeId;
using dfg::Op;
using dfg::ValueId;
using dfg::ValueKind;

bool FuncUnit::supports(Op op) const {
  return std::find(funcs.begin(), funcs.end(), op) != funcs.end();
}

int FuncUnit::func_code(Op op) const {
  auto it = std::find(funcs.begin(), funcs.end(), op);
  MCRTL_CHECK_MSG(it != funcs.end(), "fu does not support op " << dfg::op_name(op));
  return static_cast<int>(it - funcs.begin());
}

std::string FuncUnit::func_string() const {
  std::string s = "(";
  for (Op op : funcs) s += dfg::op_symbol(op);
  s += ")";
  return s;
}

Binding::Binding(const dfg::Schedule& sched, const LifetimeAnalysis& lifetimes,
                 int num_clocks)
    : sched_(&sched),
      lifetimes_(&lifetimes),
      num_clocks_(num_clocks),
      value_to_storage_(sched.graph().num_values(), -1),
      node_to_fu_(sched.graph().num_nodes(), -1),
      transfer_(sched.graph().num_nodes(), false),
      routes_(sched.graph().num_nodes()),
      swapped_(sched.graph().num_nodes(), false) {
  MCRTL_CHECK_MSG(num_clocks_ >= 1, "need at least one clock");
}

unsigned Binding::add_storage(StorageKind kind, int partition) {
  MCRTL_CHECK(partition >= 1 && partition <= num_clocks_);
  StorageUnit s;
  s.index = static_cast<unsigned>(storage_.size());
  s.kind = kind;
  s.partition = partition;
  s.name = (kind == StorageKind::Latch ? "L" : "R") + std::to_string(s.index);
  storage_.push_back(std::move(s));
  return storage_.back().index;
}

void Binding::assign_value(ValueId v, unsigned storage_index) {
  MCRTL_CHECK(storage_index < storage_.size());
  MCRTL_CHECK_MSG(value_to_storage_[v.index()] == -1,
                  "value '" << graph().value(v).name << "' assigned twice");
  MCRTL_CHECK_MSG(lifetimes_->of(v).needs_storage,
                  "constant value '" << graph().value(v).name << "' cannot be stored");
  value_to_storage_[v.index()] = static_cast<int>(storage_index);
  storage_[storage_index].values.push_back(v);
}

unsigned Binding::add_func_unit(int partition) {
  MCRTL_CHECK(partition >= 1 && partition <= num_clocks_);
  FuncUnit f;
  f.index = static_cast<unsigned>(fus_.size());
  f.partition = partition;
  f.name = "ALU" + std::to_string(f.index);
  fus_.push_back(std::move(f));
  return fus_.back().index;
}

void Binding::assign_op(NodeId n, unsigned fu_index) {
  MCRTL_CHECK(fu_index < fus_.size());
  MCRTL_CHECK_MSG(node_to_fu_[n.index()] == -1 && !transfer_[n.index()],
                  "node '" << graph().node(n).name << "' bound twice");
  node_to_fu_[n.index()] = static_cast<int>(fu_index);
  FuncUnit& fu = fus_[fu_index];
  fu.ops.push_back(n);
  const Op op = graph().node(n).op;
  if (!fu.supports(op)) fu.funcs.push_back(op);
}

void Binding::mark_transfer(NodeId n) {
  MCRTL_CHECK_MSG(graph().node(n).op == Op::Pass,
                  "only Pass nodes can be register transfers");
  MCRTL_CHECK_MSG(node_to_fu_[n.index()] == -1 && !transfer_[n.index()],
                  "node '" << graph().node(n).name << "' bound twice");
  transfer_[n.index()] = true;
}

bool Binding::is_transfer(NodeId n) const {
  MCRTL_CHECK(n.valid() && n.index() < transfer_.size());
  return transfer_[n.index()];
}

int Binding::storage_of(ValueId v) const {
  MCRTL_CHECK(v.valid() && v.index() < value_to_storage_.size());
  return value_to_storage_[v.index()];
}

unsigned Binding::fu_of(NodeId n) const {
  MCRTL_CHECK(n.valid() && n.index() < node_to_fu_.size());
  MCRTL_CHECK(node_to_fu_[n.index()] >= 0);
  return static_cast<unsigned>(node_to_fu_[n.index()]);
}

const Source& Binding::operand_source(NodeId n, unsigned port) const {
  MCRTL_CHECK(finalized_ && port < 2);
  return routes_[n.index()][port];
}

bool Binding::operands_swapped(NodeId n) const { return swapped_[n.index()]; }

const std::vector<Source>& Binding::fu_port_sources(unsigned fu, unsigned port) const {
  MCRTL_CHECK(finalized_ && fu < fus_.size() && port < 2);
  return fu_port_sources_[fu][port];
}

const std::vector<Source>& Binding::storage_sources(unsigned s) const {
  MCRTL_CHECK(finalized_ && s < storage_.size());
  return storage_sources_[s];
}

int Binding::partition_of_step(int t) const {
  MCRTL_CHECK(t >= 0);
  const int k = t % num_clocks_;
  return k == 0 ? num_clocks_ : k;
}

int Binding::partition_of_value(ValueId v) const {
  const Lifetime& lt = lifetimes_->of(v);
  MCRTL_CHECK(lt.needs_storage);
  return partition_of_step(lt.birth);
}

namespace {
/// The source an operand value presents at an ALU port: storage output for
/// stored values, hardwired literal for constants.
Source value_source(const Binding& b, ValueId v) {
  const auto& g = b.graph();
  Source s;
  if (g.value(v).kind == ValueKind::Constant) {
    s.kind = Source::Kind::Constant;
    s.value = v;
  } else {
    const int st = b.storage_of(v);
    MCRTL_CHECK_MSG(st >= 0, "value '" << g.value(v).name << "' has no storage");
    s.kind = Source::Kind::Storage;
    s.index = static_cast<unsigned>(st);
    s.value = v;
  }
  // Identity of a mux input is the physical driver, not the value: two values
  // living in the same storage unit arrive on the same wire.
  if (s.kind == Source::Kind::Storage) s.value = ValueId();
  return s;
}
}  // namespace

void Binding::route_operands() {
  // Per-FU-port running source sets; operand order of commutative ops is
  // chosen greedily to minimise newly added mux inputs (the paper's
  // "MUX/BUS collapsing" optimisation).
  fu_port_sources_.assign(fus_.size(), {});

  // Deterministic order: by step, then node id.
  std::vector<NodeId> order;
  for (const auto& n : graph().nodes()) order.push_back(n.id);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const int sa = sched_->step(a), sb = sched_->step(b);
    if (sa != sb) return sa < sb;
    return a < b;
  });

  auto contains = [](const std::vector<Source>& v, const Source& s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };

  for (NodeId nid : order) {
    if (transfer_[nid.index()]) continue;  // no ALU involved
    const dfg::Node& node = graph().node(nid);
    const unsigned fu = fu_of(nid);
    auto& ports = fu_port_sources_[fu];

    const Source s0 = value_source(*this, node.inputs[0]);
    if (node.inputs.size() == 1) {
      routes_[nid.index()][0] = s0;
      routes_[nid.index()][1] = Source{};
      if (!contains(ports[0], s0)) ports[0].push_back(s0);
      continue;
    }
    const Source s1 = value_source(*this, node.inputs[1]);

    auto cost = [&](const Source& a, const Source& b) {
      return (contains(ports[0], a) ? 0 : 1) + (contains(ports[1], b) ? 0 : 1);
    };
    bool swap = false;
    if (dfg::op_commutative(node.op) && cost(s1, s0) < cost(s0, s1)) swap = true;

    const Source& pa = swap ? s1 : s0;
    const Source& pb = swap ? s0 : s1;
    routes_[nid.index()][0] = pa;
    routes_[nid.index()][1] = pb;
    swapped_[nid.index()] = swap;
    if (!contains(ports[0], pa)) ports[0].push_back(pa);
    if (!contains(ports[1], pb)) ports[1].push_back(pb);
  }
}

void Binding::route_storage_inputs() {
  storage_sources_.assign(storage_.size(), {});
  auto add = [&](unsigned s, Source src) {
    auto& v = storage_sources_[s];
    if (std::find(v.begin(), v.end(), src) == v.end()) v.push_back(src);
  };
  for (const auto& su : storage_) {
    for (ValueId v : su.values) {
      const dfg::Value& val = graph().value(v);
      Source src;
      if (val.kind == ValueKind::Input) {
        src.kind = Source::Kind::InputPort;
        src.value = v;
      } else {
        MCRTL_CHECK(val.kind == ValueKind::Internal);
        if (transfer_[val.producer.index()]) {
          // Register-to-register forward: the D input comes straight from
          // the source value's own storage (or constant / input port).
          const ValueId from = graph().node(val.producer).inputs[0];
          src = value_source(*this, from);
        } else {
          src.kind = Source::Kind::FuncUnit;
          src.index = fu_of(val.producer);
        }
      }
      add(su.index, src);
    }
  }
}

void Binding::finalize() {
  MCRTL_CHECK(!finalized_);
  finalized_ = true;  // set before routing so accessors work during validate
  route_operands();
  route_storage_inputs();
  validate();
}

int Binding::num_mux_inputs() const {
  MCRTL_CHECK(finalized_);
  int total = 0;
  for (const auto& ports : fu_port_sources_) {
    for (const auto& srcs : ports) {
      if (srcs.size() >= 2) total += static_cast<int>(srcs.size());
    }
  }
  for (const auto& srcs : storage_sources_) {
    if (srcs.size() >= 2) total += static_cast<int>(srcs.size());
  }
  return total;
}

int Binding::num_muxes() const {
  MCRTL_CHECK(finalized_);
  int total = 0;
  for (const auto& ports : fu_port_sources_) {
    for (const auto& srcs : ports) total += srcs.size() >= 2 ? 1 : 0;
  }
  for (const auto& srcs : storage_sources_) total += srcs.size() >= 2 ? 1 : 0;
  return total;
}

std::string Binding::alu_summary() const {
  // Group identical function sets, in first-seen order: "2(+), 1(*&)".
  std::vector<std::pair<std::string, int>> counts;
  counts.reserve(fus_.size());
  for (const auto& fu : fus_) {
    std::string fs = fu.func_string();
    const auto it = std::find_if(counts.begin(), counts.end(),
                                 [&](const auto& c) { return c.first == fs; });
    if (it != counts.end()) {
      ++it->second;
    } else {
      counts.emplace_back(std::move(fs), 1);
    }
  }
  std::string out;
  for (const auto& [fs, n] : counts) {
    if (!out.empty()) out += ", ";
    out += std::to_string(n) + fs;
  }
  return out;
}

void Binding::validate() const {
  const dfg::Graph& g = graph();
  // Every stored value assigned; constants unassigned.
  for (const auto& v : g.values()) {
    const Lifetime& lt = lifetimes_->of(v.id);
    if (lt.needs_storage) {
      MCRTL_CHECK_MSG(value_to_storage_[v.id.index()] >= 0,
                      "value '" << v.name << "' not allocated");
    } else {
      MCRTL_CHECK(value_to_storage_[v.id.index()] == -1);
    }
  }
  // Every node bound; FU not double-booked per step; FU partition matches
  // the op's step partition when multi-clocked.
  std::map<std::pair<unsigned, int>, NodeId> busy;
  for (const auto& n : g.nodes()) {
    if (transfer_[n.id.index()]) {
      MCRTL_CHECK(n.op == Op::Pass && node_to_fu_[n.id.index()] == -1);
      continue;
    }
    MCRTL_CHECK_MSG(node_to_fu_[n.id.index()] >= 0, "node '" << n.name << "' unbound");
    const unsigned fu = fu_of(n.id);
    const int t = sched_->step(n.id);
    auto [it, inserted] = busy.emplace(std::make_pair(fu, t), n.id);
    MCRTL_CHECK_MSG(inserted, "FU " << fu << " double-booked at step " << t
                                    << " by '" << n.name << "' and '"
                                    << g.node(it->second).name << "'");
    if (num_clocks_ > 1) {
      MCRTL_CHECK_MSG(fus_[fu].partition == partition_of_step(t),
                      "node '" << n.name << "' in partition " << partition_of_step(t)
                               << " bound to FU of partition " << fus_[fu].partition);
    }
  }
  // Lifetime compatibility inside each storage unit, and partition
  // homogeneity of merged values.
  for (const auto& su : storage_) {
    for (std::size_t i = 0; i < su.values.size(); ++i) {
      for (std::size_t j = i + 1; j < su.values.size(); ++j) {
        const Lifetime& a = lifetimes_->of(su.values[i]);
        const Lifetime& b = lifetimes_->of(su.values[j]);
        const bool ok = su.kind == StorageKind::Latch
                            ? LifetimeAnalysis::compatible_latch(a, b)
                            : LifetimeAnalysis::compatible_register(a, b);
        MCRTL_CHECK_MSG(ok, "storage " << su.name << " merges overlapping values '"
                                       << g.value(su.values[i]).name << "' and '"
                                       << g.value(su.values[j]).name << "'");
      }
      if (num_clocks_ > 1) {
        MCRTL_CHECK_MSG(partition_of_value(su.values[i]) == su.partition,
                        "value '" << g.value(su.values[i]).name
                                  << "' stored outside its partition");
      }
    }
  }
}

}  // namespace mcrtl::alloc
