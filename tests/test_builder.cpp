// Hand-verified tests of the netlist builder: on the paper's motivating
// example the component structure, control tables and load schedules are
// small enough to check against manual derivation.
#include <gtest/gtest.h>

#include <map>

#include "core/synthesizer.hpp"
#include "suite/benchmarks.hpp"

namespace mcrtl::rtl {
namespace {

core::Synthesized make(core::DesignStyle style, int clocks) {
  const auto b = suite::motivating(8);
  core::SynthesisOptions opts;
  opts.style = style;
  opts.num_clocks = clocks;
  return core::synthesize(*b.graph, *b.schedule, opts);
}

std::map<CompKind, int> kind_counts(const Netlist& nl) {
  std::map<CompKind, int> counts;
  for (const auto& c : nl.components()) ++counts[c.kind];
  return counts;
}

TEST(BuilderTest, MotivatingConventionalStructure) {
  // 7 inputs, 1 output, some registers, 2 ALUs (the paper's Circuit 1
  // shape), no latches, no isolation gates.
  const auto syn = make(core::DesignStyle::ConventionalGated, 1);
  const auto counts = kind_counts(syn.design->netlist);
  EXPECT_EQ(counts.at(CompKind::InputPort), 7);
  EXPECT_EQ(counts.at(CompKind::OutputPort), 1);
  EXPECT_EQ(counts.at(CompKind::Alu), 2);
  EXPECT_EQ(counts.count(CompKind::Latch), 0u);
  EXPECT_EQ(counts.count(CompKind::IsoGate), 0u);
  // Period = schedule steps + 1 boundary step.
  EXPECT_EQ(syn.design->clocks.period(), 6);
  EXPECT_EQ(syn.design->schedule_steps, 5);
}

TEST(BuilderTest, MotivatingTwoClockUsesLatchesInBothPhases) {
  const auto syn = make(core::DesignStyle::MultiClock, 2);
  int phase1 = 0, phase2 = 0;
  for (const auto& c : syn.design->netlist.components()) {
    if (c.kind == CompKind::Latch) {
      (c.clock_phase == 1 ? phase1 : phase2) += 1;
      EXPECT_TRUE(c.clock_gated);
    }
    EXPECT_NE(c.kind, CompKind::Register);
  }
  EXPECT_GT(phase1, 0);
  EXPECT_GT(phase2, 0);
}

TEST(BuilderTest, LoadSignalsFireExactlyAtBirthSteps) {
  // Every storage unit's load table must be 1 exactly at the local load
  // steps of its values (birth, or the boundary step for inputs) and 0
  // elsewhere — a spurious load would corrupt the datapath.
  const auto syn = make(core::DesignStyle::MultiClock, 2);
  const auto& binding = *syn.alloc.binding;
  const auto& control = syn.design->control;
  const int P = syn.design->clocks.period();

  std::map<NetId, unsigned> signal_of_net;
  for (const auto& sig : control.signals()) {
    signal_of_net[syn.design->netlist.comp(sig.source).output] = sig.index;
  }
  for (const auto& su : binding.storage()) {
    const auto& comp =
        syn.design->netlist.comp(syn.design->storage_comp[su.index]);
    ASSERT_TRUE(comp.load.valid());
    const unsigned sig = signal_of_net.at(comp.load);
    std::set<int> expected;
    for (dfg::ValueId v : su.values) {
      const int birth = binding.lifetimes().of(v).birth;
      expected.insert(birth == 0 ? P : birth);
    }
    for (int t = 1; t <= P; ++t) {
      EXPECT_EQ(control.table_value(sig, t) != 0, expected.count(t) > 0)
          << su.name << " step " << t;
    }
  }
}

TEST(BuilderTest, LoadsOnlyInOwnPhase) {
  // A storage unit's load enable may only be 1 in steps of its own phase
  // (loads elsewhere would be ignored by the clocking, but a clean table
  // also keeps the §3.2 checker and gating accounting exact).
  const auto syn = make(core::DesignStyle::MultiClock, 3);
  const auto& control = syn.design->control;
  std::map<NetId, unsigned> signal_of_net;
  for (const auto& sig : control.signals()) {
    signal_of_net[syn.design->netlist.comp(sig.source).output] = sig.index;
  }
  for (const auto& c : syn.design->netlist.components()) {
    if (!is_storage(c.kind)) continue;
    const unsigned sig = signal_of_net.at(c.load);
    for (int t = 1; t <= control.period(); ++t) {
      if (control.table_value(sig, t) != 0) {
        EXPECT_EQ(syn.design->clocks.phase_of_step(t), c.clock_phase)
            << c.name << " loads at foreign step " << t;
      }
    }
  }
}

TEST(BuilderTest, ControlSignalPartitionsMatchComponents) {
  const auto syn = make(core::DesignStyle::MultiClock, 2);
  const auto& nl = syn.design->netlist;
  for (const auto& sig : syn.design->control.signals()) {
    for (CompId reader : nl.net(nl.comp(sig.source).output).readers) {
      const auto& rc = nl.comp(reader);
      if (rc.partition >= 1) {
        EXPECT_EQ(rc.partition, sig.partition) << sig.name;
      }
    }
  }
}

TEST(BuilderTest, OutputStorageHoldsFinalValue) {
  // The output-port component reads the storage unit of the output value.
  const auto syn = make(core::DesignStyle::ConventionalGated, 1);
  ASSERT_EQ(syn.design->output_storage.size(), 1u);
  const auto [value, storage] = *syn.design->output_storage.begin();
  const int su = syn.alloc.binding->storage_of(value);
  ASSERT_GE(su, 0);
  EXPECT_EQ(syn.design->storage_comp[static_cast<unsigned>(su)], storage);
}

TEST(BuilderTest, EveryControlSourceHasASignal) {
  const auto syn = make(core::DesignStyle::MultiClock, 3);
  std::size_t sources = 0;
  for (const auto& c : syn.design->netlist.components()) {
    sources += c.kind == CompKind::ControlSource ? 1 : 0;
  }
  EXPECT_EQ(sources, syn.design->control.signals().size());
}

TEST(BuilderTest, MuxCountMatchesBindingStatistics) {
  for (int n = 1; n <= 3; ++n) {
    const auto syn = make(core::DesignStyle::MultiClock, n);
    int muxes = 0, mux_inputs = 0;
    for (const auto& c : syn.design->netlist.components()) {
      if (c.kind == CompKind::Mux) {
        ++muxes;
        mux_inputs += static_cast<int>(c.inputs.size());
      }
    }
    EXPECT_EQ(muxes, syn.design->stats.num_muxes) << n;
    EXPECT_EQ(mux_inputs, syn.design->stats.num_mux_inputs) << n;
  }
}

}  // namespace
}  // namespace mcrtl::rtl
