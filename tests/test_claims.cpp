// The verdict table of EXPERIMENTS.md, one named test per row. Each claim
// is checked on the numbers the project reports, measured the same way:
// `mcrtl table`'s protocol (4-bit datapath, 2000 uniform random
// computations, seed 1996) for the table claims, and the seeds of
// `mcrtl experiment E7`/`E10` for the sweep and ablation claims.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/measure.hpp"
#include "core/synthesizer.hpp"
#include "suite/benchmarks.hpp"

namespace mcrtl {
namespace {

const char* const kPaperBehaviours[] = {"facet", "hal", "biquad", "bandpass"};

core::SynthesisOptions style(core::DesignStyle s, int clocks = 1) {
  core::SynthesisOptions opts;
  opts.style = s;
  opts.num_clocks = clocks;
  return opts;
}

core::SynthesisOptions multi_clock(int clocks) {
  return style(core::DesignStyle::MultiClock, clocks);
}

/// One style of `b`, synthesized and measured on `computations` uniform
/// random computations from Rng(seed).
struct Measured {
  Measured(const suite::Benchmark& b, const core::SynthesisOptions& opts,
           std::size_t computations, std::uint64_t seed)
      : syn(core::synthesize(*b.graph, *b.schedule, opts)),
        m(core::measure(*syn.design, *b.graph,
                        core::uniform_stimulus(*b.graph, computations, seed),
                        power::TechLibrary::cmos08())) {}

  core::Synthesized syn;
  core::Measurement m;
};

/// The power of one style of `b`.
double power_mw(const suite::Benchmark& b, const core::SynthesisOptions& opts,
                std::size_t computations, std::uint64_t seed) {
  return Measured(b, opts, computations, seed).m.point.power.total;
}

/// One row of `mcrtl table <name>`.
core::ExplorationPoint table_row(const suite::Benchmark& b,
                                 const core::SynthesisOptions& opts) {
  return Measured(b, opts, 2000, 1996).m.point;
}

/// Percent change of the 3-clock row against the gated baseline.
double change(double gated, double clk3) {
  return 100.0 * (clk3 - gated) / gated;
}

TEST(PaperClaims, GatedBeatsNonGatedOnEveryBehaviour) {
  const auto names = suite::all_names();
  ASSERT_EQ(names.size(), 9u);
  for (const auto& name : names) {
    const auto b = suite::by_name(name, 4);
    const double plain =
        table_row(b, style(core::DesignStyle::ConventionalNonGated))
            .power.total;
    const double gated =
        table_row(b, style(core::DesignStyle::ConventionalGated)).power.total;
    EXPECT_LT(gated, plain) << name;
  }
}

TEST(PaperClaims, PowerFallsFromGatedThroughThreeClocks) {
  for (const char* name : kPaperBehaviours) {
    const auto b = suite::by_name(name, 4);
    double previous =
        table_row(b, style(core::DesignStyle::ConventionalGated)).power.total;
    for (int n = 1; n <= 3; ++n) {
      const double p = table_row(b, multi_clock(n)).power.total;
      EXPECT_LT(p, previous) << name << " at " << n << " clocks";
      previous = p;
    }
  }
}

// The paper ranks the 3-clock savings HAL 54 > FACET 49 > biquad 37 >
// band-pass 35 %. Every pair must rank the same way unless the measured
// savings lie within 3 percentage points of each other (biquad and
// band-pass do), and HAL and band-pass land within 1 point of the paper.
TEST(PaperClaims, SavingsRankAsInThePaper) {
  std::map<std::string, double> measured, paper;
  for (const char* name : kPaperBehaviours) {
    const auto b = suite::by_name(name, 4);
    ASSERT_TRUE(b.paper.has_value()) << name;
    measured[name] = -change(
        table_row(b, style(core::DesignStyle::ConventionalGated)).power.total,
        table_row(b, multi_clock(3)).power.total);
    paper[name] = -change(b.paper->rows[1].power_mw, b.paper->rows[4].power_mw);
  }
  for (const char* a : kPaperBehaviours) {
    for (const char* b : kPaperBehaviours) {
      if (paper[a] <= paper[b]) continue;
      EXPECT_TRUE(measured[a] > measured[b] ||
                  measured[b] - measured[a] < 3.0)
          << a << " saves " << measured[a] << "%, " << b << " saves "
          << measured[b] << "%";
    }
  }
  EXPECT_NEAR(measured["hal"], paper["hal"], 1.0);
  EXPECT_NEAR(measured["bandpass"], paper["bandpass"], 1.0);
}

// 3-clock area against the gated baseline stays within -1 % .. +35 %; it
// rises on HAL, biquad and band-pass as in the paper, and FACET's 3-clock
// area is below its 1-clock area, as the paper's is.
TEST(PaperClaims, ThreeClockAreaCostWithinBounds) {
  for (const char* name : kPaperBehaviours) {
    const auto b = suite::by_name(name, 4);
    const double gated =
        table_row(b, style(core::DesignStyle::ConventionalGated)).area.total;
    const double one = table_row(b, multi_clock(1)).area.total;
    const double three = table_row(b, multi_clock(3)).area.total;
    const double cost = change(gated, three);
    EXPECT_GE(cost, -1.0) << name;
    EXPECT_LE(cost, 35.0) << name;
    if (std::string(name) == "facet") {
      EXPECT_LT(three, one);
      EXPECT_LT(b.paper->rows[4].area_lambda2, b.paper->rows[2].area_lambda2);
    } else {
      EXPECT_GT(cost, 0.0) << name;
      EXPECT_GT(b.paper->rows[4].area_lambda2, b.paper->rows[1].area_lambda2)
          << name;
    }
  }
}

// §5.2's diminishing returns: in E10's sweep (1500 computations, seed 11)
// adding a clock past three raises power on FACET (5 -> 6), HAL (4 -> 5)
// and band-pass (3 -> 4).
TEST(PaperClaims, AddingClocksPastThreeReversesTheGain) {
  const std::pair<const char*, int> reversals[] = {
      {"facet", 5}, {"hal", 4}, {"bandpass", 3}};
  for (const auto& [name, n] : reversals) {
    const auto b = suite::by_name(name, 4);
    const double fewer = power_mw(b, multi_clock(n), 1500, 11);
    const double more = power_mw(b, multi_clock(n + 1), 1500, 11);
    EXPECT_GT(more, fewer) << name << " " << n << " -> " << n + 1 << " clocks";
  }
}

// §2.2: the 3-clock partitions store in latches; D-flip-flops instead
// raise power on every paper behaviour (E10's ablation, seed 13).
TEST(PaperClaims, LatchToDffRaisesThreeClockPower) {
  for (const char* name : kPaperBehaviours) {
    const auto b = suite::by_name(name, 4);
    auto dff = multi_clock(3);
    dff.use_latches = false;
    const double latch = power_mw(b, multi_clock(3), 1500, 13);
    const double flop = power_mw(b, dff, 1500, 13);
    EXPECT_GT(flop, latch) << name;
  }
}

// §3.2: latched control lines keep a partition's combinational logic quiet
// in the other partition's interval; without them mux and ALU outputs
// toggle more and total power rises (E7: 2 clocks, 3000 computations,
// seed 7).
TEST(PaperClaims, UnlatchedControlRaisesCombinationalToggles) {
  for (const char* name : {"motivating", "facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    std::uint64_t toggles[2] = {0, 0};
    double power[2] = {0, 0};
    for (int latched = 0; latched < 2; ++latched) {
      auto opts = multi_clock(2);
      opts.latched_control = latched == 1;
      const Measured r(b, opts, 3000, 7);
      const auto& nl = r.syn.design->netlist;
      for (const auto& net : nl.nets()) {
        const auto k = nl.comp(net.driver).kind;
        if (k == rtl::CompKind::Mux || k == rtl::CompKind::Alu) {
          toggles[latched] += r.m.activity.net_toggles[net.id.index()];
        }
      }
      power[latched] = r.m.point.power.total;
    }
    EXPECT_GT(toggles[0], toggles[1]) << name;
    EXPECT_GT(power[0], power[1]) << name;
  }
}

}  // namespace
}  // namespace mcrtl
