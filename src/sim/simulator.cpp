#include "sim/simulator.hpp"

#include <algorithm>
#include <numeric>

#include "obs/obs.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace mcrtl::sim {

using rtl::CompId;
using rtl::CompKind;
using rtl::NetId;

void check_stream_width(const InputStream& stream, std::size_t inputs) {
  if (stream.words() != inputs) {
    throw Error("expected " + std::to_string(inputs) +
                " inputs per computation, got " +
                std::to_string(stream.words()));
  }
}

Simulator::Simulator(const rtl::Design& design, Mode mode)
    : design_(&design),
      tab_(&design.tables),
      mode_(mode),
      static_edges_(mode != Mode::Oblivious && design.tables.static_edges) {
  const rtl::Netlist& nl = design.netlist;
  if (mode_ == Mode::BitSliced) {
    // The sliced kernel walks the static phase-edge schedule (per-lane
    // dynamic load enables would make clock-event counts data-dependent);
    // every design synthesize() produces qualifies. Hand-built netlists
    // that drive a load pin from the datapath keep the scalar kernels.
    MCRTL_CHECK_MSG(static_edges_,
                    "BitSliced simulation requires controller-driven storage "
                    "load enables; use Mode::EventDriven for this netlist");
    plane_offset_.reserve(nl.num_nets() + 1);
    plane_offset_.push_back(0);
    for (const auto& net : nl.nets()) {
      plane_offset_.push_back(plane_offset_.back() + net.width);
    }
    net_planes_.assign(plane_offset_.back(), 0);
    return;
  }
  net_value_.assign(nl.num_nets(), 0);
  storage_q_.assign(nl.num_components(), 0);
  if (mode_ == Mode::EventDriven) {
    queue_.resize(tab_->comb_order.size());
    bucket_end_.resize(tab_->depth());
    for (std::size_t l = 0; l < bucket_end_.size(); ++l) {
      bucket_end_[l] = queue_.data() + tab_->level_offset[l];
    }
    in_queue_.assign(nl.num_components(), 0);
  }
}

// Kept small and in the same TU as write_net so the enqueue folds into the
// settle loops instead of costing a call per changed net.
inline void Simulator::enqueue(CompId cid) {
  if (in_queue_[cid.index()]) return;
  in_queue_[cid.index()] = 1;
  const auto l = static_cast<std::size_t>(tab_->level[cid.index()]);
  *bucket_end_[l]++ = cid;
  ++pending_;
}

inline void Simulator::mark_fanout_dirty(NetId net) {
  for (CompId cid : tab_->fanout[net.index()]) enqueue(cid);
}

void Simulator::mark_all_dirty() {
  for (CompId cid : tab_->comb_order) enqueue(cid);
}

void Simulator::write_net(NetId net, std::uint64_t value, Activity& act,
                          bool count) {
  const std::uint64_t old = net_value_[net.index()];
  if (old == value) return;
  if (count) {
    const unsigned flips = hamming(old, value);
    act.net_toggles[net.index()] += flips;
    if (probe_) probe_->add_net(net.index(), flips);
  }
  net_value_[net.index()] = value;
  if (mode_ != Mode::Oblivious) mark_fanout_dirty(net);
}

// Hot path: direct component-array indexing (CompIds are created dense and
// validated at construction; the bounds-checked Netlist::comp() accessor is
// for cold callers).
std::uint64_t Simulator::eval_comp(const rtl::Component& c) const {
  if (c.kind == CompKind::Mux || c.kind == CompKind::Bus) {
    std::uint64_t sel = net_value_[c.select.index()];
    MCRTL_CHECK_MSG(sel < c.inputs.size(),
                    "mux/bus '" << c.name << "' select " << sel << " out of range");
    return net_value_[c.inputs[sel].index()];
  }
  if (c.kind == CompKind::IsoGate) {
    // Hold-mode operand isolation: transparent when enabled, otherwise
    // the downstream ALU keeps seeing the last operand (paper §1:
    // "holding the old input values as long as possible").
    return net_value_[c.select.index()] != 0 ? net_value_[c.inputs[0].index()]
                                             : net_value_[c.output.index()];
  }
  // Alu
  std::uint64_t code = 0;
  if (c.select.valid()) code = net_value_[c.select.index()];
  MCRTL_CHECK_MSG(code < c.funcs.size(),
                  "alu '" << c.name << "' func code " << code << " out of range");
  const std::uint64_t a = net_value_[c.inputs[0].index()];
  const std::uint64_t b = net_value_[c.inputs[1].index()];
  return dfg::eval_op(c.funcs[code], a, b, c.width);
}

void Simulator::settle(Activity& act, bool count) {
  ++kernel_stats_.settles;
  kernel_stats_.oblivious_evals += tab_->comb_order.size();
  if (mode_ == Mode::Oblivious) {
    settle_oblivious(act, count);
  } else {
    settle_event(act, count);
  }
}

void Simulator::settle_oblivious(Activity& act, bool count) {
  const auto& comps = design_->netlist.components();
  kernel_stats_.evals += tab_->comb_order.size();
  for (CompId cid : tab_->comb_order) {
    const rtl::Component& c = comps[cid.index()];
    write_net(c.output, eval_comp(c), act, count);
  }
}

void Simulator::settle_event(Activity& act, bool count) {
  if (pending_ == 0) return;
  const auto& comps = design_->netlist.components();
  // Levels are topological over every combinational-to-combinational edge
  // (data and select), so evaluating a level-L component can only enqueue
  // strictly deeper levels: one ascending sweep drains the whole cone, and
  // a level's fill is final when the sweep reaches it.
  for (std::size_t l = 0; l < bucket_end_.size(); ++l) {
    CompId* const bucket = queue_.data() + tab_->level_offset[l];
    const auto n = static_cast<std::size_t>(bucket_end_[l] - bucket);
    for (std::size_t i = 0; i < n; ++i) {
      const CompId cid = bucket[i];
      in_queue_[cid.index()] = 0;
      ++kernel_stats_.evals;
      const rtl::Component& c = comps[cid.index()];
      write_net(c.output, eval_comp(c), act, count);
    }
    pending_ -= n;
    bucket_end_[l] = bucket;
    if (pending_ == 0) break;
  }
}

SimResult Simulator::run(const InputStream& stream,
                         const std::vector<dfg::ValueId>& input_order,
                         const std::vector<dfg::ValueId>& output_order) {
  obs::Span span("sim.run");
  fault::inject("sim.run");
  MCRTL_CHECK_MSG(mode_ != Mode::BitSliced,
                  "run() is scalar-only; a BitSliced simulator batches "
                  "streams through run_time_sliced()");
  check_stream_width(stream, input_order.size());
  const rtl::Design& d = *design_;
  const rtl::Netlist& nl = d.netlist;
  const auto& comps = nl.components();
  const int P = d.clocks.period();
  const int T = d.schedule_steps;
  const int n = d.clocks.num_phases();

  SimResult result;
  Activity& act = result.activity;
  act.net_toggles.assign(nl.num_nets(), 0);
  act.storage_clock_events.assign(nl.num_components(), 0);
  act.storage_write_toggles.assign(nl.num_components(), 0);
  act.phase_pulses.assign(static_cast<std::size_t>(n) + 1, 0);
  if (heatmap_) heatmap_->resize(n, P);
  if (probe_) probe_->reset();  // one probe record per run, like the heatmap
  const std::uint64_t evals_before = kernel_stats_.evals;
  const std::uint64_t oblivious_before = kernel_stats_.oblivious_evals;

  // Resolve the port maps once per run: (net, width) per input and storage
  // component per output, in stream/sample order — the per-period loops then
  // avoid the map lookups.
  std::vector<std::pair<NetId, unsigned>> in_ports;
  in_ports.reserve(input_order.size());
  for (dfg::ValueId v : input_order) {
    const rtl::Component& c = comps[d.input_ports.at(v).index()];
    in_ports.emplace_back(c.output, c.width);
  }
  std::vector<CompId> out_storage;
  out_storage.reserve(output_order.size());
  for (dfg::ValueId v : output_order) {
    out_storage.push_back(d.output_storage.at(v));
  }

  auto apply_inputs = [&](std::size_t comp_index, bool count) {
    const std::uint64_t* row = stream[comp_index].data();
    for (std::size_t i = 0; i < in_ports.size(); ++i) {
      const auto& [net, w] = in_ports[i];
      write_net(net, truncate(row[i], w), act, count);
    }
  };

  // ---- preamble (uncounted reset, then the initial input-load edge) ------
  // Everything here passes count=false, so writing through `act` leaves it
  // untouched — no scratch Activity copy is needed.
  {
    // Before the first settle no net has ever been written, but components
    // can produce nonzero outputs from all-zero inputs (e.g. an equality
    // ALU); the event-driven kernel therefore starts from a full worklist,
    // exactly reproducing the oblivious kernel's unconditional first pass.
    if (mode_ != Mode::Oblivious) mark_all_dirty();
    const auto lines = tab_->lines_at(P);
    for (std::size_t s = 0; s < lines.size(); ++s) {
      write_net(tab_->line_net[s], lines[s], act, false);
    }
    for (const auto& c : comps) {
      if (c.kind == CompKind::Constant) {
        write_net(c.output, from_signed(c.const_value, c.width), act, false);
      }
    }
    if (!stream.empty()) apply_inputs(0, false);
    settle(act, false);
    // Boundary edge (phase n): load the input registers for computation 0.
    for (CompId cid : tab_->storage_by_phase[static_cast<std::size_t>(n)]) {
      const rtl::Component& c = comps[cid.index()];
      if (c.load.valid() && net_value_[c.load.index()] == 0) continue;
      storage_q_[cid.index()] = net_value_[c.inputs[0].index()];
      write_net(c.output, storage_q_[cid.index()], act, false);
    }
    settle(act, false);
  }

  // ---- main loop ----------------------------------------------------------
  // A computation budget truncates the loop, not the stream: the boundary
  // input-load below still presents computation `limit`'s inputs (exactly
  // as an unbudgeted run would before its deadline check), so the prefix
  // Activity is bit-identical to the first `limit` computations of a full
  // run.
  const std::size_t limit =
      computation_budget_ > 0 ? std::min(computation_budget_, stream.size())
                              : stream.size();
  result.outputs = WordTable(limit, out_storage.size());
  for (std::size_t comp = 0; comp < limit; ++comp) {
    // One clock read per master period — cheap against the period's settle
    // work, frequent enough that a stuck point is caught within one
    // computation.
    if (has_deadline_ && std::chrono::steady_clock::now() > deadline_) {
      throw TimeoutError("simulation exceeded its point deadline after " +
                         std::to_string(comp) + " of " +
                         std::to_string(stream.size()) + " computations");
    }
    for (int t = 1; t <= P; ++t) {
      // 1. controller drives step-t values. EventDriven replays the
      // tabulated deltas (only the lines that move); Oblivious writes every
      // line, as the original inner loop did.
      if (mode_ != Mode::Oblivious) {
        for (const auto& w : tab_->step_writes[static_cast<std::size_t>(t)]) {
          write_net(w.net, w.value, act, true);
        }
      } else {
        const auto lines = tab_->lines_at(t);
        for (std::size_t s = 0; s < lines.size(); ++s) {
          write_net(tab_->line_net[s], lines[s], act, true);
        }
      }
      // 2. at the boundary step, the environment presents the next inputs.
      if (t == P && comp + 1 < stream.size()) apply_inputs(comp + 1, true);
      // 3. combinational wave from control/input changes.
      settle(act, true);
      // 4. the phase edge ending step t.
      const int phase = tab_->phase_by_step[static_cast<std::size_t>(t)];
      ++act.phase_pulses[static_cast<std::size_t>(phase)];
      if (probe_) probe_->add_phase_pulse(phase);
      // Capture simultaneously: read all D inputs before committing.
      captures_.clear();
      if (static_edges_) {
        const auto clocked = tab_->edge_clock_events[static_cast<std::size_t>(t)];
        for (CompId cid : clocked) {
          ++act.storage_clock_events[cid.index()];
          if (probe_) probe_->add_storage_clock(cid.index());
        }
        if (heatmap_) {
          heatmap_->clock_events[heatmap_->at(phase, t)] += clocked.size();
        }
        for (CompId cid : tab_->edge_captures[static_cast<std::size_t>(t)]) {
          captures_.emplace_back(
              cid, net_value_[comps[cid.index()].inputs[0].index()]);
        }
      } else {
        for (CompId cid :
             tab_->storage_by_phase[static_cast<std::size_t>(phase)]) {
          const rtl::Component& c = comps[cid.index()];
          const bool load = !c.load.valid() || net_value_[c.load.index()] != 0;
          if (load || !c.clock_gated) {
            ++act.storage_clock_events[cid.index()];
            if (probe_) probe_->add_storage_clock(cid.index());
            if (heatmap_) ++heatmap_->clock_events[heatmap_->at(phase, t)];
          }
          if (load) captures_.emplace_back(cid, net_value_[c.inputs[0].index()]);
        }
      }
      for (const auto& [cid, dval] : captures_) {
        const rtl::Component& c = comps[cid.index()];
        const std::uint64_t old = storage_q_[cid.index()];
        if (old != dval) {
          const auto flipped = hamming(old, dval);
          act.storage_write_toggles[cid.index()] += flipped;
          if (heatmap_) heatmap_->write_toggles[heatmap_->at(phase, t)] += flipped;
          storage_q_[cid.index()] = dval;
          write_net(c.output, dval, act, true);
        }
      }
      // 5. combinational wave from the new storage outputs.
      settle(act, true);
      ++act.steps;
      if (probe_) probe_->end_step();
      if (observer_) observer_(act.steps, net_value_);
      // Sample primary outputs at the end of schedule step T.
      if (t == T) {
        const auto sample = result.outputs[comp];
        for (std::size_t o = 0; o < out_storage.size(); ++o) {
          sample[o] = storage_q_[out_storage[o].index()];
        }
      }
    }
    ++act.computations;
  }
  if (obs::enabled()) {
    obs::count("sim.runs");
    obs::count("sim.steps", act.steps);
    obs::count("sim.net_toggles",
               std::accumulate(act.net_toggles.begin(), act.net_toggles.end(),
                               std::uint64_t{0}));
    if (mode_ != Mode::Oblivious) {
      const std::uint64_t popped = kernel_stats_.evals - evals_before;
      const std::uint64_t oblivious =
          kernel_stats_.oblivious_evals - oblivious_before;
      obs::count("sim.kernel.events_popped", popped);
      obs::count("sim.kernel.evals_skipped", oblivious - popped);
    }
  }
  return result;
}

}  // namespace mcrtl::sim
