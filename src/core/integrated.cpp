#include "core/integrated.hpp"

#include <map>

#include "alloc/activity.hpp"
#include "alloc/left_edge.hpp"
#include "core/partition.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/strings.hpp"

namespace mcrtl::core {

using alloc::Binding;
using alloc::LifetimeAnalysis;
using dfg::NodeId;
using dfg::Op;
using dfg::ValueId;
using dfg::ValueKind;

namespace {

/// Insert transfer temporaries (paper §4.2 step 1) into `g`/`s` so that
/// every operation's internal operands are written in the partition
/// preceding the operation's step. Returns the ids of the created Pass
/// nodes.
std::vector<NodeId> insert_transfers(dfg::Graph& g, dfg::Schedule& s, int n) {
  std::vector<NodeId> transfers;
  // Memoize (value, step) -> transfer output so several consumers in the
  // same phase share one temporary.
  std::map<std::pair<ValueId, int>, ValueId> memo;

  // Snapshot: adding nodes while iterating would invalidate ranges.
  const auto num_nodes = g.num_nodes();
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    const NodeId nid(i);
    const int t = s.step(nid);
    const int target = partition_of_step(t - 1, n);
    // No reference into g.nodes() may be held across add_node below — it
    // reallocates the node array. Re-fetch through g.node(nid) every time.
    for (unsigned port = 0; port < g.node(nid).inputs.size(); ++port) {
      const ValueId v = g.node(nid).inputs[port];
      const dfg::Value& val = g.value(v);
      if (val.kind != ValueKind::Internal) continue;  // inputs/constants stable
      const int birth = s.step(val.producer);
      if (partition_of_step(birth, n) == target) continue;
      // Re-time through a Pass at step t-1 (always >= birth+1: a value born
      // at t-1 is already in the target partition).
      const int tstep = t - 1;
      MCRTL_CHECK(tstep >= birth + 1);
      ValueId replacement;
      const auto key = std::make_pair(v, tstep);
      auto it = memo.find(key);
      if (it != memo.end()) {
        replacement = it->second;
      } else {
        const NodeId pass = g.add_node(
            Op::Pass, {v}, "xfer_" + val.name + "_t" + std::to_string(tstep));
        s.extend_for(g);
        s.set_step(pass, tstep);
        replacement = g.node(pass).output;
        memo.emplace(key, replacement);
        transfers.push_back(pass);
      }
      g.replace_operand(nid, port, replacement);
    }
  }
  s.validate();
  return transfers;
}

}  // namespace

SynthesisResult allocate_integrated(const dfg::Graph& graph,
                                    const dfg::Schedule& sched,
                                    const IntegratedOptions& opts) {
  obs::Span span("alloc.integrated");
  fault::inject("alloc.integrated");
  MCRTL_CHECK(opts.num_clocks >= 1);
  sched.validate();

  SynthesisResult r;
  r.graph = std::make_unique<dfg::Graph>(graph);
  r.schedule = std::make_unique<dfg::Schedule>(*r.graph);
  for (const auto& node : graph.nodes()) {
    r.schedule->set_step(node.id, sched.step(node.id));
  }

  std::vector<NodeId> transfers;
  if (opts.insert_transfers && opts.num_clocks > 1) {
    obs::Span xfer_span("alloc.insert_transfers");
    transfers = insert_transfers(*r.graph, *r.schedule, opts.num_clocks);
  }
  r.transfers_inserted = static_cast<int>(transfers.size());
  obs::count("alloc.transfer_variables", transfers.size());

  r.lifetimes = std::make_unique<LifetimeAnalysis>(*r.schedule);
  r.binding =
      std::make_unique<Binding>(*r.schedule, *r.lifetimes, opts.num_clocks);

  // Transfers become register-to-register forwards, not ALU work.
  for (NodeId t : transfers) r.binding->mark_transfer(t);

  {
    obs::Span storage_span("alloc.storage_binding");
    if (opts.storage_binding == StorageBinding::ActivityAware) {
      Rng prof_rng(opts.profile_seed);
      const auto profile = alloc::ActivityProfile::measure(
          *r.graph, opts.profile_samples, prof_rng);
      alloc::ActivityBindingOptions ab;
      ab.kind = opts.storage_kind;
      ab.partition_constrained = opts.num_clocks > 1;
      allocate_storage_activity_aware(*r.binding, profile, ab);
    } else {
      alloc::LeftEdgeOptions le;
      le.kind = opts.storage_kind;
      le.partition_constrained = opts.num_clocks > 1;
      allocate_storage_left_edge(*r.binding, le);
    }
  }

  {
    obs::Span fu_span("alloc.fu_binding");
    alloc::FuBindingOptions fu = opts.fu;
    fu.partition_constrained = opts.num_clocks > 1;
    allocate_func_units_greedy(*r.binding, fu);
  }

  r.binding->finalize();
  return r;
}

}  // namespace mcrtl::core
