// Unit tests for the paper's core algorithms: clock partitioning, the
// integrated allocator (transfer temporaries, partition invariants) and the
// split allocator (clean-up phase).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "core/search.hpp"
#include "core/synthesizer.hpp"
#include "power/estimator.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "vhdl/verilog.hpp"

namespace mcrtl::core {
namespace {

using dfg::NodeId;
using dfg::Op;
using dfg::ValueId;

TEST(PartitionMathTest, PaperModRule) {
  // k = t mod n, with k == 0 meaning partition n (paper §4.1).
  EXPECT_EQ(partition_of_step(1, 2), 1);
  EXPECT_EQ(partition_of_step(2, 2), 2);
  EXPECT_EQ(partition_of_step(3, 2), 1);
  EXPECT_EQ(partition_of_step(4, 2), 2);
  EXPECT_EQ(partition_of_step(6, 3), 3);
  EXPECT_EQ(partition_of_step(7, 3), 1);
  EXPECT_EQ(partition_of_step(0, 3), 3);  // input-load boundary
}

TEST(PartitionMathTest, LocalGlobalInverse) {
  for (int n = 1; n <= 4; ++n) {
    for (int t = 1; t <= 24; ++t) {
      const int k = partition_of_step(t, n);
      const int loc = local_step(t, n);
      EXPECT_EQ(global_step(loc, k, n), t) << "t=" << t << " n=" << n;
    }
  }
}

TEST(PartitionMathTest, LocalStepsAreContiguousPerPartition) {
  const int n = 3;
  for (int k = 1; k <= n; ++k) {
    int expected = 1;
    for (int t = 1; t <= 30; ++t) {
      if (partition_of_step(t, n) == k) {
        EXPECT_EQ(local_step(t, n), expected);
        ++expected;
      }
    }
  }
}

TEST(PartitionScheduleTest, EveryNodeInExactlyOnePartition) {
  const auto b = suite::hal(8);
  for (int n = 1; n <= 4; ++n) {
    const auto ps = partition_schedule(*b.schedule, n);
    std::size_t total = 0;
    for (const auto& part : ps.nodes) total += part.size();
    EXPECT_EQ(total, b.graph->num_nodes());
    for (int k = 1; k <= n; ++k) {
      for (NodeId nid : ps.nodes[static_cast<std::size_t>(k - 1)]) {
        EXPECT_EQ(partition_of_step(b.schedule->step(nid), n), k);
      }
    }
  }
}

TEST(PartitionScheduleTest, CutEdgesAreCrossPartition) {
  const auto b = suite::hal(8);
  const auto ps = partition_schedule(*b.schedule, 2);
  for (const auto& [v, consumer] : ps.cut_edges) {
    const auto& val = b.graph->value(v);
    const int birth = val.kind == dfg::ValueKind::Input
                          ? 0
                          : b.schedule->step(val.producer);
    EXPECT_NE(partition_of_step(birth, 2),
              partition_of_step(b.schedule->step(consumer), 2));
  }
}

TEST(PartitionScheduleTest, SingleClockHasNoCutEdges) {
  const auto b = suite::hal(8);
  const auto ps = partition_schedule(*b.schedule, 1);
  EXPECT_TRUE(ps.cut_edges.empty());
}

TEST(IntegratedTest, OperandPartitionInvariant) {
  // After transfer insertion, every internal operand of every (non-transfer)
  // node is written in the partition preceding the node's step — the §4.2
  // stability invariant.
  for (const char* name : {"facet", "hal", "biquad", "ewf"}) {
    for (int n = 2; n <= 3; ++n) {
      const auto b = suite::by_name(name, 8);
      IntegratedOptions opts;
      opts.num_clocks = n;
      const auto r = allocate_integrated(*b.graph, *b.schedule, opts);
      const auto& g = *r.graph;
      const auto& s = *r.schedule;
      for (const auto& node : g.nodes()) {
        if (r.binding->is_transfer(node.id)) continue;
        const int t = s.step(node.id);
        const int target = partition_of_step(t - 1, n);
        for (ValueId in : node.inputs) {
          const auto& v = g.value(in);
          if (v.kind != dfg::ValueKind::Internal) continue;
          EXPECT_EQ(partition_of_step(s.step(v.producer), n), target)
              << name << " n=" << n << " node " << node.name;
        }
      }
    }
  }
}

TEST(IntegratedTest, TransfersAreSharedBetweenConsumers) {
  // Two consumers of the same value in the same phase share one temporary.
  dfg::Graph g("share", 8);
  const ValueId a = g.add_input("a");
  const ValueId b = g.add_input("b");
  const NodeId p = g.add_node(Op::Add, {a, b}, "p");       // step 1
  const ValueId pv = g.node(p).output;
  const NodeId c1 = g.add_node(Op::Sub, {pv, a}, "c1");    // step 4
  const NodeId c2 = g.add_node(Op::Add, {pv, b}, "c2");    // step 4
  g.mark_output(g.node(c1).output);
  g.mark_output(g.node(c2).output);
  dfg::Schedule s(g);
  s.set_step(p, 1);
  s.set_step(c1, 4);
  s.set_step(c2, 4);

  IntegratedOptions opts;
  opts.num_clocks = 2;
  const auto r = allocate_integrated(g, s, opts);
  // pv born step 1 (partition 1); consumers at step 4 need partition of
  // step 3 = 1... that IS partition 1, so actually no transfer needed here.
  // Re-check with 3 clocks: step 4's preceding partition is 3, pv is in 1.
  IntegratedOptions opts3;
  opts3.num_clocks = 3;
  const auto r3 = allocate_integrated(g, s, opts3);
  EXPECT_EQ(r.transfers_inserted, 0);
  EXPECT_EQ(r3.transfers_inserted, 1);  // shared by c1 and c2
}

TEST(IntegratedTest, NoTransfersForSingleClock) {
  const auto b = suite::hal(8);
  IntegratedOptions opts;
  opts.num_clocks = 1;
  const auto r = allocate_integrated(*b.graph, *b.schedule, opts);
  EXPECT_EQ(r.transfers_inserted, 0);
  EXPECT_EQ(r.graph->num_nodes(), b.graph->num_nodes());
}

TEST(IntegratedTest, AblationFlagSuppressesTransfers) {
  const auto b = suite::hal(8);
  IntegratedOptions opts;
  opts.num_clocks = 3;
  opts.insert_transfers = false;
  const auto r = allocate_integrated(*b.graph, *b.schedule, opts);
  EXPECT_EQ(r.transfers_inserted, 0);
}

TEST(IntegratedTest, StoragePartitionHomogeneous) {
  const auto b = suite::biquad(8);
  IntegratedOptions opts;
  opts.num_clocks = 3;
  const auto r = allocate_integrated(*b.graph, *b.schedule, opts);
  for (const auto& su : r.binding->storage()) {
    for (ValueId v : su.values) {
      EXPECT_EQ(r.binding->partition_of_value(v), su.partition);
    }
  }
}

TEST(IntegratedTest, FuPartitionMatchesOps) {
  const auto b = suite::facet(8);
  IntegratedOptions opts;
  opts.num_clocks = 2;
  const auto r = allocate_integrated(*b.graph, *b.schedule, opts);
  for (const auto& fu : r.binding->func_units()) {
    for (NodeId op : fu.ops) {
      EXPECT_EQ(r.binding->partition_of_step(r.schedule->step(op)), fu.partition);
    }
  }
}

TEST(SplitTest, CleanupStatsPopulated) {
  const auto b = suite::hal(8);
  SplitOptions opts;
  opts.num_clocks = 2;
  const auto r = allocate_split(*b.graph, *b.schedule, opts);
  // HAL has cross-partition values; the clean-up phase must have removed
  // their duplicate registers.
  EXPECT_GT(r.cleanup.pseudo_input_registers_removed, 0);
  EXPECT_GE(r.cleanup.latch_conflicts_split, 0);
  // Under 3 clocks, dx is read in partitions 1 and 3: the shared-input
  // merge fires.
  SplitOptions opts3;
  opts3.num_clocks = 3;
  const auto r3 = allocate_split(*b.graph, *b.schedule, opts3);
  EXPECT_GT(r3.cleanup.shared_inputs_merged, 0);
}

TEST(SplitTest, BindingIsValidAndLatchSafe) {
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    for (int n = 2; n <= 3; ++n) {
      const auto b = suite::by_name(name, 8);
      SplitOptions opts;
      opts.num_clocks = n;
      const auto r = allocate_split(*b.graph, *b.schedule, opts);
      // finalize() ran validate(): lifetimes compatible under the latch
      // rule, partitions homogeneous. Re-run for good measure.
      EXPECT_NO_THROW(r.synthesis.binding->validate()) << name << " n=" << n;
    }
  }
}

TEST(SplitTest, NoTransfersInserted) {
  const auto b = suite::hal(8);
  SplitOptions opts;
  opts.num_clocks = 2;
  const auto r = allocate_split(*b.graph, *b.schedule, opts);
  EXPECT_EQ(r.synthesis.graph->num_nodes(), b.graph->num_nodes());
}

TEST(StyleLabelTest, PaperRowNames) {
  EXPECT_EQ(style_label(DesignStyle::ConventionalNonGated, 1),
            "Conven. Alloc. (Non-Gated Clock)");
  EXPECT_EQ(style_label(DesignStyle::ConventionalGated, 1),
            "Conven. Alloc. (Gated Clock)");
  EXPECT_EQ(style_label(DesignStyle::MultiClock, 1), "1 Clock");
  EXPECT_EQ(style_label(DesignStyle::MultiClock, 3), "3 Clocks");
}

TEST(SynthesizeTest, LatchAblationUsesRegisters) {
  const auto b = suite::facet(8);
  SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  opts.use_latches = false;
  const auto syn = synthesize(*b.graph, *b.schedule, opts);
  for (const auto& su : syn.alloc.binding->storage()) {
    EXPECT_EQ(su.kind, alloc::StorageKind::Register);
  }
  for (const auto& c : syn.design->netlist.components()) {
    EXPECT_NE(c.kind, rtl::CompKind::Latch);
  }
}

TEST(SynthesizeTest, MultiClockDesignHasPhasedStorage) {
  const auto b = suite::hal(8);
  SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 3;
  const auto syn = synthesize(*b.graph, *b.schedule, opts);
  std::set<int> phases;
  for (const auto& c : syn.design->netlist.components()) {
    if (rtl::is_storage(c.kind)) phases.insert(c.clock_phase);
  }
  EXPECT_EQ(phases.size(), 3u);
}

TEST(SynthesizeTest, LatchedControlOnlyForMultiClock) {
  const auto b = suite::hal(8);
  SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 1;
  const auto syn1 = synthesize(*b.graph, *b.schedule, opts);
  for (const auto& sig : syn1.design->control.signals()) {
    EXPECT_FALSE(sig.latched);
  }
  opts.num_clocks = 2;
  const auto syn2 = synthesize(*b.graph, *b.schedule, opts);
  bool any_latched = false;
  for (const auto& sig : syn2.design->control.signals()) {
    any_latched |= sig.latched;
  }
  EXPECT_TRUE(any_latched);
}

TEST(SynthesizeTest, StatsMatchBinding) {
  const auto b = suite::biquad(8);
  SynthesisOptions opts;
  opts.style = DesignStyle::MultiClock;
  opts.num_clocks = 2;
  const auto syn = synthesize(*b.graph, *b.schedule, opts);
  EXPECT_EQ(syn.design->stats.num_memory_cells,
            syn.alloc.binding->num_memory_cells());
  EXPECT_EQ(syn.design->stats.num_mux_inputs,
            syn.alloc.binding->num_mux_inputs());
  EXPECT_EQ(syn.design->stats.num_alus,
            static_cast<int>(syn.alloc.binding->func_units().size()));
  EXPECT_EQ(syn.design->stats.num_clocks, 2);
}

TEST(SynthesizeTest, AllocationHashIgnoresOnlyBuildOptions) {
  SynthesisOptions a;
  a.style = DesignStyle::MultiClock;
  a.num_clocks = 3;
  SynthesisOptions b = a;
  b.operand_isolation = true;
  b.interconnect = rtl::BuildOptions::Interconnect::TristateBus;
  b.latched_control = false;
  EXPECT_EQ(allocation_hash(a), allocation_hash(b));
  EXPECT_NE(config_hash(a), config_hash(b));
  SynthesisOptions conv;
  conv.style = DesignStyle::ConventionalNonGated;
  SynthesisOptions gated = conv;
  gated.style = DesignStyle::ConventionalGated;
  EXPECT_EQ(allocation_hash(conv), allocation_hash(gated));
  for (auto change : std::vector<void (*)(SynthesisOptions&)>{
           [](SynthesisOptions& o) { o.num_clocks = 2; },
           [](SynthesisOptions& o) { o.method = AllocMethod::Split; },
           [](SynthesisOptions& o) { o.use_latches = false; },
           [](SynthesisOptions& o) { o.insert_transfers = false; },
           [](SynthesisOptions& o) {
             o.storage_binding = StorageBinding::ActivityAware;
           },
           [](SynthesisOptions& o) { o.fu.max_functions = 1; },
           [](SynthesisOptions& o) {
             o.style = DesignStyle::ConventionalNonGated;
           }}) {
    SynthesisOptions c = a;
    change(c);
    EXPECT_NE(allocation_hash(a), allocation_hash(c));
  }
}

TEST(SynthesizeTest, SimulationHashIgnoresOnlyTheInterconnect) {
  SynthesisOptions a;
  a.style = DesignStyle::MultiClock;
  a.num_clocks = 3;
  SynthesisOptions bus = a;
  bus.interconnect = rtl::BuildOptions::Interconnect::TristateBus;
  EXPECT_EQ(simulation_hash(a), simulation_hash(bus));
  EXPECT_NE(config_hash(a), config_hash(bus));
  for (auto change : std::vector<void (*)(SynthesisOptions&)>{
           [](SynthesisOptions& o) { o.operand_isolation = true; },
           [](SynthesisOptions& o) { o.latched_control = false; },
           [](SynthesisOptions& o) { o.num_clocks = 2; },
           [](SynthesisOptions& o) { o.method = AllocMethod::Split; },
           [](SynthesisOptions& o) { o.use_latches = false; },
           [](SynthesisOptions& o) {
             o.style = DesignStyle::ConventionalGated;
           }}) {
    SynthesisOptions c = a;
    change(c);
    EXPECT_NE(simulation_hash(a), simulation_hash(c));
  }
}

TEST(SynthesizeTest, EqualSimulationHashesShareOneSimulation) {
  // The search's prefix rungs simulate one design per simulation_hash and
  // retag it (set_interconnect) for every other option set sharing it:
  // the designs must toggle alike, and the retagged design must measure
  // like the one synthesize() builds, whose power differs.
  const auto tech = power::TechLibrary::cmos08();
  std::size_t shared = 0;
  for (const char* name : {"facet", "hal", "motivating", "biquad"}) {
    const auto b = suite::by_name(name, 4);
    Rng rng(3);
    const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(), 120,
                                            b.graph->width());
    std::map<std::uint64_t, std::pair<SynthesisOptions, sim::Activity>> first;
    for (const auto& [opts, label] : search_variants(4)) {
      const auto syn = synthesize(*b.graph, *b.schedule, opts);
      sim::Simulator simulator(*syn.design, sim::Simulator::Mode::BitSliced);
      const auto act =
          simulator.run_time_sliced({&stream, 1}, b.graph->inputs(), {})
              .front()
              .activity;
      const auto [it, fresh] =
          first.emplace(simulation_hash(opts), std::make_pair(opts, act));
      if (fresh) continue;
      ++shared;
      SCOPED_TRACE(std::string(name) + "/" + label);
      const sim::Activity& ref = it->second.second;
      EXPECT_EQ(act.net_toggles, ref.net_toggles);
      EXPECT_EQ(act.storage_clock_events, ref.storage_clock_events);
      EXPECT_EQ(act.storage_write_toggles, ref.storage_write_toggles);
      EXPECT_EQ(act.phase_pulses, ref.phase_pulses);
      EXPECT_EQ(act.steps, ref.steps);
      EXPECT_EQ(act.computations, ref.computations);

      const double mw =
          power::estimate_power(*syn.design, act, tech).total;
      auto twin = synthesize(*b.graph, *b.schedule, it->second.first);
      EXPECT_NE(power::estimate_power(*twin.design, act, tech).total, mw);
      set_interconnect(*twin.design, opts.interconnect);
      const auto kinds = [](const rtl::Design& d) {
        std::vector<rtl::CompKind> k;
        for (const auto& c : d.netlist.components()) k.push_back(c.kind);
        return k;
      };
      EXPECT_EQ(kinds(*twin.design), kinds(*syn.design));
      EXPECT_EQ(power::estimate_power(*twin.design, act, tech).total, mw);
      EXPECT_EQ(power::estimate_area(*twin.design, tech).total,
                power::estimate_area(*syn.design, tech).total);
    }
  }
  EXPECT_GT(shared, 50u);
}

TEST(SynthesizeTest, ReusedAllocationBuildsTheSameDesign) {
  // Every search variant built from the allocation of the first variant
  // sharing its allocation_hash must equal a fresh synthesis: same
  // netlist text, style, stats and attribution labels.
  auto variants = search_variants(4);
  SynthesisOptions no_latch;
  no_latch.num_clocks = 3;
  no_latch.latched_control = false;
  variants.emplace_back(no_latch, "3clk-unlatched");
  std::size_t reused = 0;
  for (const char* name : {"facet", "hal", "motivating", "biquad"}) {
    const auto b = suite::by_name(name, 4);
    std::map<std::uint64_t, Synthesized> bases;
    for (const auto& [opts, label] : variants) {
      const auto fresh = synthesize(*b.graph, *b.schedule, opts);
      const auto it = bases.find(allocation_hash(opts));
      if (it == bases.end()) {
        bases.emplace(allocation_hash(opts),
                      synthesize(*b.graph, *b.schedule, opts));
        continue;
      }
      const auto built = synthesize(it->second, opts);
      ++reused;
      SCOPED_TRACE(std::string(name) + "/" + label);
      EXPECT_EQ(built.alloc.binding, nullptr);
      EXPECT_EQ(vhdl::emit_verilog(*built.design),
                vhdl::emit_verilog(*fresh.design));
      EXPECT_EQ(built.design->style_name, fresh.design->style_name);
      EXPECT_EQ(built.design->comp_op, fresh.design->comp_op);
      EXPECT_EQ(built.design->stats.alu_summary,
                fresh.design->stats.alu_summary);
      EXPECT_EQ(built.design->stats.num_mux_inputs,
                fresh.design->stats.num_mux_inputs);
      EXPECT_EQ(built.design->stats.period, fresh.design->stats.period);
      EXPECT_EQ(built.cleanup.shared_inputs_merged,
                fresh.cleanup.shared_inputs_merged);
    }
  }
  EXPECT_GT(reused, 100u);
}

}  // namespace
}  // namespace mcrtl::core
