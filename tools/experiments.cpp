#include "experiments.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/integrated.hpp"
#include "core/partition.hpp"
#include "core/split.hpp"
#include "rtl/analysis.hpp"
#include "rtl/clock.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace mcrtl::cli {

Style::Style(const dfg::Graph& graph, const dfg::Schedule& schedule,
             const core::SynthesisOptions& opts)
    : graph(graph), syn(core::synthesize(graph, schedule, opts)) {}

core::Measurement Style::measure(const core::Stimulus& stimulus,
                                 const core::MeasureHooks& hooks) const {
  return core::measure(*syn.design, graph, stimulus,
                       power::TechLibrary::cmos08(), {}, hooks);
}

namespace {

/// One style of `b` measured on `computations` uniform random computations
/// from Rng(seed).
core::ExplorationPoint row(const suite::Benchmark& b,
                           const core::SynthesisOptions& opts,
                           std::size_t computations, std::uint64_t seed) {
  return Style(*b.graph, *b.schedule, opts)
      .measure(core::uniform_stimulus(*b.graph, computations, seed))
      .point;
}

core::SynthesisOptions multi_clock(int clocks) {
  core::SynthesisOptions opts;
  opts.style = core::DesignStyle::MultiClock;
  opts.num_clocks = clocks;
  return opts;
}

// ---------------------------------------------------------------------------
// E5 — Fig. 1 and the §2.1/§2.2 analysis of the motivating example:
// Circuit 1 (minimal-resource conventional allocation, two (+,-) ALUs, one
// clock) with and without gated-clock power management, against Circuit 2
// (the odd/even-partitioned datapath on two non-overlapping clocks). The
// §2.2 busy-factor analysis is checked from the measured load activity.

struct Circuit {
  core::ExplorationPoint row;
  double busy_fraction;  // average fraction of steps storage actually loads
};

Circuit circuit(const suite::Benchmark& b, core::DesignStyle style,
                int clocks) {
  core::SynthesisOptions opts;
  opts.style = style;
  opts.num_clocks = clocks;
  const Style s(*b.graph, *b.schedule, opts);
  Circuit c;
  c.row = s.measure(core::uniform_stimulus(*b.graph, 4000, 42)).point;

  // Busy factor: measured storage clock events per storage per step for the
  // gated variants (for non-gated, every cycle is an event by construction).
  const auto res = s.measure(core::uniform_stimulus(*b.graph, 500, 42));
  std::uint64_t events = 0;
  std::uint64_t cells = 0;
  for (const auto& comp : s.syn.design->netlist.components()) {
    if (!rtl::is_storage(comp.kind)) continue;
    events += res.activity.storage_clock_events[comp.id.index()];
    ++cells;
  }
  c.busy_fraction = static_cast<double>(events) /
                    (static_cast<double>(cells) *
                     static_cast<double>(res.activity.steps));
  return c;
}

int fig1_motivating() {
  std::printf("=== Fig. 1 / Sec. 2: motivating example — Circuit 1 vs Circuit 2 ===\n");
  const auto b = suite::motivating(4);
  std::printf("behaviour: 6 (+,-) ops in 5 steps; schedule N1@T1 N2@T2 N3,N4@T3 "
              "N5@T4 N6@T5\n\n");

  const Circuit c1_plain =
      circuit(b, core::DesignStyle::ConventionalNonGated, 1);
  const Circuit c1_gated = circuit(b, core::DesignStyle::ConventionalGated, 1);
  const Circuit c2 = circuit(b, core::DesignStyle::MultiClock, 2);

  TextTable t({"Design", "Power[mW]", "ALUs", "Mem", "MuxIn",
               "storage busy"});
  auto add = [&](const char* label, const Circuit& c) {
    t.add_row({label, format_fixed(c.row.power.total, 2),
               c.row.stats.alu_summary,
               std::to_string(c.row.stats.num_memory_cells),
               std::to_string(c.row.stats.num_mux_inputs),
               format_fixed(c.busy_fraction, 3)});
  };
  add("Circuit 1 (no power mgmt)", c1_plain);
  add("Circuit 1 (conventional gated)", c1_gated);
  add("Circuit 2 (2 non-overlapping clocks)", c2);
  std::fputs(t.render().c_str(), stdout);

  std::printf("\npaper Sec 2.1: P1 = C1 V^2 f vs P2 = (C21+C22) V^2 f/2 — "
              "2-clock wins when C21+C22 < 2 C1\n");
  std::printf("  measured: Circuit 2 vs ungated Circuit 1: %+.1f%% power\n",
              100.0 * (c2.row.power.total - c1_plain.row.power.total) /
                  c1_plain.row.power.total);
  std::printf("paper Sec 2.2: vs conventional management, 2-clock wins when "
              "C21+C22 < 3/2 C1\n");
  std::printf("  measured: Circuit 2 vs gated Circuit 1:   %+.1f%% power\n",
              100.0 * (c2.row.power.total - c1_gated.row.power.total) /
                  c1_gated.row.power.total);
  std::printf("\nbusy factors (paper: Circuit 1 ~75%%, Circuit 2 ~50%% per "
              "component-slot; ours are per-storage load rates under\n"
              "non-overlapped computations, so lower in absolute terms but "
              "ordered the same way):\n");
  std::printf("  Circuit 1 storage load rate %.3f > Circuit 2 storage load "
              "rate %.3f : %s\n",
              c1_gated.busy_fraction, c2.busy_fraction,
              c1_gated.busy_fraction > c2.busy_fraction ? "OK" : "MISMATCH");
  return 0;
}

// ---------------------------------------------------------------------------
// E6 — Fig. 2, the non-overlapping multiple clocking scheme: ASCII
// waveforms of the 1-, 2- and 3-phase schemes, and a machine check that
// phases never overlap, each runs at f/n and their union is the master
// clock. Exits 1 if a property fails.

int fig2_clocks() {
  std::printf("=== Fig. 2: non-overlapping multiple clocking scheme ===\n\n");
  for (int n = 1; n <= 3; ++n) {
    rtl::ClockScheme cs(n, 5);  // the motivating example's 5-step schedule
    std::printf("%s\n", cs.waveform().c_str());
  }

  bool ok = true;
  for (int n = 1; n <= 6; ++n) {
    rtl::ClockScheme cs(n, 7);
    const long horizon = 4L * cs.period();
    long total = 0;
    for (int p = 1; p <= n; ++p) {
      const long pulses = cs.pulses_over(p, horizon);
      total += pulses;
      // f/n: one pulse every n master cycles.
      if (pulses != horizon / n) {
        std::printf("FAIL: phase %d of %d pulses %ld times in %ld cycles\n", p,
                    n, pulses, horizon);
        ok = false;
      }
    }
    // Effective frequency f: some phase pulses every master cycle.
    if (total != horizon) {
      std::printf("FAIL: union of %d phases covers %ld of %ld cycles\n", n,
                  total, horizon);
      ok = false;
    }
    // Non-overlap: exactly one phase active per step.
    for (int t = 1; t <= horizon; ++t) {
      int active = 0;
      for (int p = 1; p <= n; ++p) active += cs.pulses_in_step(p, t) ? 1 : 0;
      if (active != 1) {
        std::printf("FAIL: %d phases active at step %d (n=%d)\n", active, t, n);
        ok = false;
      }
    }
  }
  std::printf("properties (n=1..6): phases at f/n, non-overlapping, union = "
              "master clock -> %s\n",
              ok ? "ALL OK" : "FAILED");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// E7 — Fig. 4 / §3.2, the two power requirements of the scheme on a
// two-DPM chain: (a) no storage clocking during the other partition's
// interval; (b) no combinational wave in tau_12 when control lines are
// latched, shown by DPM combinational toggles with latched vs unlatched
// control.

struct CombActivity {
  std::uint64_t comb_toggles = 0;
  std::uint64_t ctrl_toggles = 0;
  double power_mw = 0.0;
};

CombActivity comb_activity(const suite::Benchmark& b, bool latched_control) {
  core::SynthesisOptions opts = multi_clock(2);
  opts.latched_control = latched_control;
  const Style s(*b.graph, *b.schedule, opts);
  const auto res = s.measure(core::uniform_stimulus(*b.graph, 3000, 7));
  const auto& nl = s.syn.design->netlist;

  CombActivity out;
  for (const auto& net : nl.nets()) {
    const auto k = nl.comp(net.driver).kind;
    if (k == rtl::CompKind::Mux || k == rtl::CompKind::Alu) {
      out.comb_toggles += res.activity.net_toggles[net.id.index()];
    } else if (k == rtl::CompKind::ControlSource) {
      out.ctrl_toggles += res.activity.net_toggles[net.id.index()];
    }
  }
  out.power_mw = res.point.power.total;
  return out;
}

int fig4_timing() {
  std::printf("=== Fig. 4 / Sec. 3.2: DPM timing and the latched-control "
              "requirement ===\n\n");

  // Requirement (a): storage silent outside its own phase.
  {
    const auto b = suite::hal(4);
    const Style s(*b.graph, *b.schedule, multi_clock(2));
    const auto res = s.measure(core::uniform_stimulus(*b.graph, 200, 3));
    bool ok = true;
    for (const auto& c : s.syn.design->netlist.components()) {
      if (!rtl::is_storage(c.kind)) continue;
      const auto events = res.activity.storage_clock_events[c.id.index()];
      const auto own_phase_pulses =
          res.activity.phase_pulses[static_cast<std::size_t>(c.clock_phase)];
      if (events > own_phase_pulses) ok = false;
    }
    std::printf("(a) no storage clocking outside the element's own phase "
                "(HAL, 2 clocks): %s\n\n",
                ok ? "OK" : "VIOLATED");
  }

  // Requirement (b): latched control keeps DPM inputs stable in tau_12.
  std::printf("(b) combinational stability via latched control lines "
              "(Sec. 3.2 suggestion 2):\n\n");
  std::printf("%-10s | %-14s | %-14s | %-10s | %-10s\n", "benchmark",
              "comb latched", "comb unlatched", "P latched", "P unlatched");
  std::printf("--------------------------------------------------------------------------\n");
  for (const char* name : {"motivating", "facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    const CombActivity lat = comb_activity(b, true);
    const CombActivity unl = comb_activity(b, false);
    std::printf("%-10s | %14llu | %14llu | %7.2f mW | %7.2f mW\n", name,
                static_cast<unsigned long long>(lat.comb_toggles),
                static_cast<unsigned long long>(unl.comb_toggles),
                lat.power_mw, unl.power_mw);
  }
  std::printf("\nlatching the mux/function-select lines of each partition "
              "confines control transitions to that partition's phase\n"
              "boundary, so the other interval tau_12 sees no combinational "
              "wave (paper Fig. 4(b), Fig. 7 note).\n");
  return 0;
}

// ---------------------------------------------------------------------------
// E8 — Fig. 5 / §4.1, the split allocation walkthrough: step 1 partitions
// the schedule, step 2 allocates per partition, step 3 cleans up (pseudo-
// input registers removed, shared inputs merged, latch READ/WRITE conflicts
// split); then split against integrated on the same inputs.

int fig5_split() {
  std::printf("=== Fig. 5 / Sec. 4.1: split allocation and its clean-up phase "
              "===\n\n");

  // Step 1 on the motivating schedule, as in the figure.
  {
    const auto b = suite::motivating(4);
    const auto ps = core::partition_schedule(*b.schedule, 2);
    std::printf("step 1 (partition the schedule), motivating example:\n");
    for (int k = 1; k <= 2; ++k) {
      std::printf("  partition P%d (clock %d):", k, k);
      for (auto nid : ps.nodes[static_cast<std::size_t>(k - 1)]) {
        std::printf(" %s@T%d(local %d')", b.graph->node(nid).name.c_str(),
                    b.schedule->step(nid),
                    core::local_step(b.schedule->step(nid), 2));
      }
      std::printf("\n");
    }
    std::printf("  cut edges (pseudo primary I/O of the partitions): %zu\n\n",
                ps.cut_edges.size());
  }

  std::printf("steps 2+3 (allocate per partition, then clean up), all "
              "benchmarks at n=2:\n\n");
  TextTable t({"benchmark", "cut edges", "pseudo-regs removed",
               "inputs merged", "latch conflicts split", "Mem", "MuxIn"});
  for (const char* name : {"motivating", "facet", "hal", "biquad", "bandpass",
                           "ewf", "ar_lattice", "fir8"}) {
    const auto b = suite::by_name(name, 4);
    const auto ps = core::partition_schedule(*b.schedule, 2);
    core::SplitOptions opts;
    opts.num_clocks = 2;
    const auto r = core::allocate_split(*b.graph, *b.schedule, opts);
    t.add_row({name, std::to_string(ps.cut_edges.size()),
               std::to_string(r.cleanup.pseudo_input_registers_removed),
               std::to_string(r.cleanup.shared_inputs_merged),
               std::to_string(r.cleanup.latch_conflicts_split),
               std::to_string(r.synthesis.binding->num_memory_cells()),
               std::to_string(r.synthesis.binding->num_mux_inputs())});
  }
  std::fputs(t.render().c_str(), stdout);

  std::printf("\nsplit vs integrated (Sec. 4.2) at n=2, measured power:\n\n");
  TextTable cmp({"benchmark", "split[mW]", "integrated[mW]", "winner"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    core::SynthesisOptions so = multi_clock(2);
    so.method = core::AllocMethod::Split;
    const auto rs = row(b, so, 2000, 99);
    so.method = core::AllocMethod::Integrated;
    const auto ri = row(b, so, 2000, 99);
    cmp.add_row({name, format_fixed(rs.power.total, 2),
                 format_fixed(ri.power.total, 2),
                 ri.power.total <= rs.power.total ? "integrated" : "split"});
  }
  std::fputs(cmp.render().c_str(), stdout);
  std::printf("\nthe paper (Sec. 4) expects the integrated method to share "
              "resources better; the split method's value is that any\n"
              "existing allocator can be reused per partition.\n");
  return 0;
}

// ---------------------------------------------------------------------------
// E9 — Fig. 6/7 / §4.2, the integrated allocation method: the paper's
// Fig. 6 situation (operands written in different partitions) and the
// transfer temporary T the allocator inserts, then the power effect of the
// transfer temporaries as an ablation.

/// The Fig. 6 schedule: X written in step 1 (partition beta), E written in
/// step 2 (partition alpha), consumed together in step 3.
struct Fig6 {
  dfg::Graph g{"fig6", 4};
  dfg::Schedule s{g};

  Fig6() {
    const auto a = g.add_input("a");
    const auto b = g.add_input("b");
    const auto c = g.add_input("c");
    const auto nx = g.add_node(dfg::Op::Add, {a, b}, "writeX");   // step 1
    const auto ne = g.add_node(dfg::Op::Add, {b, c}, "writeE");   // step 2
    const auto nf = g.add_node(dfg::Op::Sub, {g.node(ne).output,
                                              g.node(nx).output},
                               "useEX");                          // step 3
    g.mark_output(g.node(nf).output);
    s.extend_for(g);
    s.set_step(nx, 1);
    s.set_step(ne, 2);
    s.set_step(nf, 3);
  }
};

int fig7_integrated() {
  std::printf("=== Fig. 6/7 / Sec. 4.2: integrated allocation ===\n\n");

  {
    Fig6 f;
    core::IntegratedOptions opts;
    opts.num_clocks = 2;
    const auto r = core::allocate_integrated(f.g, f.s, opts);
    std::printf("Fig. 6 behaviour: X written @T1 (partition 1), E written @T2 "
                "(partition 2), both read @T3.\n");
    std::printf("transfer temporaries inserted: %d\n", r.transfers_inserted);
    for (const auto& n : r.graph->nodes()) {
      if (r.binding->is_transfer(n.id)) {
        std::printf("  %s: Pass of '%s' scheduled @T%d (partition %d) — the "
                    "paper's variable T\n",
                    n.name.c_str(), r.graph->value(n.inputs[0]).name.c_str(),
                    r.schedule->step(n.id),
                    core::partition_of_step(r.schedule->step(n.id), 2));
      }
    }
    std::printf("datapath: ALUs %s, %d memory cells, %d mux inputs\n\n",
                r.binding->alu_summary().c_str(),
                r.binding->num_memory_cells(), r.binding->num_mux_inputs());
  }

  std::printf("transfer-temporary ablation (n=3, integrated): operand "
              "re-timing vs none\n\n");
  TextTable t({"benchmark", "transfers", "P with[mW]", "P without[mW]",
               "Mem with", "Mem without"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass", "ewf"}) {
    const auto b = suite::by_name(name, 4);
    core::SynthesisOptions without = multi_clock(3);
    without.insert_transfers = false;

    const Style with(*b.graph, *b.schedule, multi_clock(3));
    const auto rw =
        with.measure(core::uniform_stimulus(*b.graph, 2000, 5)).point;
    const auto ro = row(b, without, 2000, 5);
    t.add_row({name, std::to_string(with.syn.alloc.transfers_inserted),
               format_fixed(rw.power.total, 2), format_fixed(ro.power.total, 2),
               std::to_string(rw.stats.num_memory_cells),
               std::to_string(ro.stats.num_memory_cells)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\ntransfers hold operands in the partition preceding each "
              "operation (extra latches) so every ALU sees at most one\n"
              "input wave per cycle of its clock — the paper's Step 1 and its "
              "Fig. 7 discussion.\n");
  return 0;
}

// ---------------------------------------------------------------------------
// E10 — the headline sweep: power and area against the number of clocks
// (§5.2's diminishing returns), and the latch-vs-DFF ablation (§2.2).

int sweep_nclocks() {
  std::printf("=== E10: n-clock sweep and design-choice ablations ===\n\n");

  std::printf("power [mW] vs number of clocks (integrated allocation, "
              "latches, latched control):\n\n");
  {
    TextTable t({"benchmark", "gated", "n=1", "n=2", "n=3", "n=4", "n=5",
                 "n=6", "best"});
    for (const char* name : {"facet", "hal", "biquad", "bandpass", "ewf",
                             "ar_lattice", "fir8"}) {
      const auto b = suite::by_name(name, 4);
      core::SynthesisOptions gated;
      gated.style = core::DesignStyle::ConventionalGated;
      std::vector<std::string> cells{
          name, format_fixed(row(b, gated, 1500, 11).power.total, 2)};
      double best = 1e18;
      int best_n = 0;
      for (int n = 1; n <= 6; ++n) {
        const double p = row(b, multi_clock(n), 1500, 11).power.total;
        cells.push_back(format_fixed(p, 2));
        if (p < best) {
          best = p;
          best_n = n;
        }
      }
      cells.push_back("n=" + std::to_string(best_n));
      t.add_row(cells);
    }
    std::fputs(t.render().c_str(), stdout);
  }

  std::printf("\narea [1e6 lambda^2] vs number of clocks:\n\n");
  {
    TextTable t({"benchmark", "n=1", "n=2", "n=3", "n=4", "n=5", "n=6"});
    for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
      const auto b = suite::by_name(name, 4);
      std::vector<std::string> cells{name};
      for (int n = 1; n <= 6; ++n) {
        cells.push_back(
            format_fixed(row(b, multi_clock(n), 400, 11).area.total / 1e6, 2));
      }
      t.add_row(cells);
    }
    std::fputs(t.render().c_str(), stdout);
  }

  std::printf("\nablation: latches vs D-flip-flops in the partitions (n=3):\n\n");
  {
    TextTable t({"benchmark", "latch P[mW]", "DFF P[mW]", "latch area",
                 "DFF area"});
    for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
      const auto b = suite::by_name(name, 4);
      core::SynthesisOptions dff_opts = multi_clock(3);
      dff_opts.use_latches = false;
      const auto lat = row(b, multi_clock(3), 1500, 13);
      const auto dff = row(b, dff_opts, 1500, 13);
      t.add_row({name, format_fixed(lat.power.total, 2),
                 format_fixed(dff.power.total, 2),
                 format_fixed(lat.area.total / 1e6, 2),
                 format_fixed(dff.area.total / 1e6, 2)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\n(the latch advantage of Sec. 2.2: cheaper clock pin and "
                "cell; only possible because the multi-clock partitions\n"
                "have no overlapping READ/WRITE)\n");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// E11 — Fig. 3, the RTL structural model: the Functional Block / Datapath
// Module structure of each paper benchmark's 2- and 3-clock design, and the
// §3.2 timing-safety checks on every one. Exits 1 if a design is unsafe.

int fig3_dpm() {
  std::printf("=== Fig. 3: Functional Block / Datapath Module structure ===\n\n");
  bool all_safe = true;
  for (const char* name : {"motivating", "facet", "hal", "biquad", "bandpass"}) {
    for (int n : {2, 3}) {
      const auto b = suite::by_name(name, 4);
      const auto syn = core::synthesize(*b.graph, *b.schedule, multi_clock(n));
      std::printf("%s", rtl::describe_dpms(*syn.design).c_str());
      const auto rep = rtl::check_timing_safety(*syn.design);
      std::printf("timing safety (storage phases, latch transparency, "
                  "latched control): %s\n\n",
                  rep.safe ? "OK" : rep.violations[0].c_str());
      all_safe &= rep.safe;
    }
  }
  std::printf("all designs: disjoint DPMs, one clock each, Sec 3.2 "
              "requirements %s\n", all_safe ? "hold" : "VIOLATED");
  return all_safe ? 0 : 1;
}

// ---------------------------------------------------------------------------
// E12 — the §2.1 remark against the "duplicating hardware" technique of
// Piguet et al. [12]: duplicate the conventional datapath, run each copy at
// f/2 and scale the supply down until the halved-speed copy still meets
// timing. With the first-order delay model d ~ V / (V - Vt)^2 (Vt = 0.8 V),
// P_dup = 2 C_conv V'^2 (f/2) = C_conv V'^2 f, at twice the area.

/// First-order alpha-power delay model: d(V) = k * V / (V - Vt)^2.
double delay_factor(double v, double vt) { return v / ((v - vt) * (v - vt)); }

/// Lowest voltage (>= vt + 0.2) whose delay is <= `slowdown` x the delay at
/// `v0` (bisection).
double scaled_voltage(double v0, double vt, double slowdown) {
  const double target = slowdown * delay_factor(v0, vt);
  double lo = vt + 0.2, hi = v0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (delay_factor(mid, vt) <= target) {
      hi = mid;  // still fast enough: can go lower
    } else {
      lo = mid;
    }
  }
  return hi;
}

int duplication_baseline() {
  std::printf("=== Sec. 2.1 remark: multi-clock synthesis vs hardware "
              "duplication + voltage scaling [12] ===\n\n");
  const double v0 = 4.65, vt = 0.8;
  const double v2 = scaled_voltage(v0, vt, 2.0);  // run at f/2
  std::printf("delay model d ~ V/(V-Vt)^2, Vt=%.1fV: half-speed operation "
              "allows V' = %.2f V (from %.2f V)\n\n", vt, v2, v0);

  TextTable t({"benchmark", "conv gated[mW]", "duplication[mW]",
               "3 clocks[mW]", "dup area", "3clk area"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    core::SynthesisOptions gated;
    gated.style = core::DesignStyle::ConventionalGated;
    const auto conv = row(b, gated, 2000, 31);
    const auto mc3 = row(b, multi_clock(3), 2000, 31);

    // Duplication: two conventional copies, each at f/2 and V'. Same total
    // switched capacitance per computation as one copy at f, so
    // P_dup = P_conv * (V'/V)^2 (+ a mux/merge overhead ~5 %); area ~2x.
    const double ratio = (v2 * v2) / (v0 * v0);
    const double p_dup = conv.power.total * ratio * 1.05;
    const double a_dup = conv.area.total * 2.0 * 0.95;  // shared pads

    t.add_row({name, format_fixed(conv.power.total, 2), format_fixed(p_dup, 2),
               format_fixed(mc3.power.total, 2),
               str_format("%+.0f%%", 100.0 * (a_dup - conv.area.total) /
                                          conv.area.total),
               str_format("%+.0f%%", 100.0 * (mc3.area.total -
                                              conv.area.total) /
                                          conv.area.total)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nduplication wins on raw power (aggressive voltage scaling) "
              "but doubles area and needs a second supply; the paper's\n"
              "scheme reaches its savings at the same supply voltage with a "
              "modest area increase ('the increase is far from\n"
              "duplication', Sec. 2.1).\n");
  return 0;
}

// ---------------------------------------------------------------------------
// E13 — the §2.2 aside that conventional management can "isolate ALUs so
// that they will not consume useless combinational power in their off duty
// cycles": the gated baseline strengthened with operand isolation, against
// the 3-clock scheme with and without it.

int operand_isolation() {
  std::printf("=== operand isolation ablation: gated vs gated+isolation vs "
              "3 clocks ===\n\n");
  TextTable t({"benchmark", "gated[mW]", "gated+iso[mW]", "3clk[mW]",
               "3clk+iso[mW]", "best"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass", "ewf"}) {
    const auto b = suite::by_name(name, 4);

    core::SynthesisOptions opts;
    opts.style = core::DesignStyle::ConventionalGated;
    const auto gated = row(b, opts, 2000, 41);
    opts.operand_isolation = true;
    const auto gated_iso = row(b, opts, 2000, 41);

    opts = multi_clock(3);
    const auto mc3 = row(b, opts, 2000, 41);
    opts.operand_isolation = true;
    const auto mc3_iso = row(b, opts, 2000, 41);

    const double best = std::min({gated.power.total, gated_iso.power.total,
                                  mc3.power.total, mc3_iso.power.total});
    const char* who = best == mc3_iso.power.total     ? "3clk+iso"
                      : best == mc3.power.total       ? "3clk"
                      : best == gated_iso.power.total ? "gated+iso"
                                                      : "gated";
    t.add_row({name, format_fixed(gated.power.total, 2),
               format_fixed(gated_iso.power.total, 2),
               format_fixed(mc3.power.total, 2),
               format_fixed(mc3_iso.power.total, 2), who});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nisolation shields idle ALU function blocks from upstream "
              "transitions at the cost of one AND-gate stage per operand;\n"
              "it composes with the multi-clock scheme (the two attack "
              "different slices of the power budget).\n");
  return 0;
}

// ---------------------------------------------------------------------------
// E14 — input-activity sensitivity: the tables use uniform random inputs;
// real DSP data is temporally correlated and switches less. Sweeps the
// input bit-flip probability to show the multi-clock advantage over gated
// clocks persists (most of it is data-independent clock/control power).

double correlated_power(const suite::Benchmark& b,
                        const core::SynthesisOptions& opts, double flip_prob) {
  Rng rng(17);
  return Style(*b.graph, *b.schedule, opts)
      .measure(core::make_stimulus(
          *b.graph,
          {sim::correlated_stream(rng, b.graph->inputs().size(), 2000,
                                  b.graph->width(), flip_prob)}))
      .point.power.total;
}

int activity_sweep() {
  std::printf("=== input-activity sweep: gated baseline vs 3 clocks ===\n\n");
  core::SynthesisOptions gated;
  gated.style = core::DesignStyle::ConventionalGated;
  for (const char* name : {"facet", "hal", "biquad"}) {
    const auto b = suite::by_name(name, 4);
    std::printf("%s:\n", name);
    TextTable t({"flip prob", "gated[mW]", "3 clocks[mW]", "saving"});
    for (double f : {0.0, 0.1, 0.25, 0.5}) {
      const double pg = correlated_power(b, gated, f);
      const double p3 = correlated_power(b, multi_clock(3), f);
      t.add_row({format_fixed(f, 2), format_fixed(pg, 2), format_fixed(p3, 2),
                 str_format("%.1f%%", 100.0 * (pg - p3) / pg)});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\n");
  }
  std::printf("(flip prob 0.5 = uniform random, the tables' protocol; 0.0 = "
              "constant inputs, isolating clock/control savings)\n");
  return 0;
}

// ---------------------------------------------------------------------------
// E15 — extension ablation: profile-guided activity-aware register binding
// (co-locating statistically similar values to cut write toggles) against
// the paper's left-edge binding, on the 3-clock integrated scheme.

int activity_binding() {
  std::printf("=== extension ablation: left-edge vs activity-aware register "
              "binding (3 clocks, integrated) ===\n\n");
  TextTable t({"benchmark", "left-edge P[mW]", "activity P[mW]", "delta",
               "LE Mem", "AA Mem"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass", "ewf",
                           "ar_lattice", "fir8"}) {
    const auto b = suite::by_name(name, 4);
    core::SynthesisOptions opts = multi_clock(3);
    opts.storage_binding = core::StorageBinding::LeftEdge;
    const auto le = row(b, opts, 2500, 21);
    opts.storage_binding = core::StorageBinding::ActivityAware;
    const auto aa = row(b, opts, 2500, 21);
    t.add_row({name, format_fixed(le.power.total, 2),
               format_fixed(aa.power.total, 2),
               str_format("%+.1f%%", 100.0 * (aa.power.total - le.power.total) /
                                         le.power.total),
               std::to_string(le.stats.num_memory_cells),
               std::to_string(aa.stats.num_memory_cells)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\n(the extension changes only which values share a memory "
              "element; functional equivalence is re-checked per row)\n");
  return 0;
}

// ---------------------------------------------------------------------------
// E17 — §5.2, "the schedule can also help": the plain list schedule against
// the partition-balanced scheduler that spreads each operation class across
// the step residues mod n before allocation.

core::ExplorationPoint scheduled_row(const dfg::Graph& g,
                                     const dfg::Schedule& s, int clocks) {
  return Style(g, s, multi_clock(clocks))
      .measure(core::uniform_stimulus(g, 2000, 71))
      .point;
}

int schedule_impact() {
  std::printf("=== schedule impact on the multi-clock scheme (Sec. 5.2) ===\n\n");
  TextTable t({"benchmark", "n", "list P[mW]", "balanced P[mW]", "list ALUs",
               "balanced ALUs"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass", "fir8"}) {
    for (int n : {2, 3}) {
      const auto b = suite::by_name(name, 4);
      dfg::ResourceLimits limits;
      limits.default_limit = 2;
      limits.per_op[dfg::Op::Mul] = name == std::string("bandpass") ? 1 : 2;
      const auto balanced =
          dfg::schedule_partition_balanced(*b.graph, limits, n);
      const auto rl = scheduled_row(*b.graph, *b.schedule, n);
      const auto rb = scheduled_row(*b.graph, balanced, n);
      t.add_row({name, std::to_string(n), format_fixed(rl.power.total, 2),
                 format_fixed(rb.power.total, 2), rl.stats.alu_summary,
                 rb.stats.alu_summary});
    }
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nbalancing each op class across the residues mod n lets each "
              "partition reuse one unit over its local steps, at the\n"
              "cost of a possibly longer schedule (throughput is preserved "
              "by the effective-frequency argument either way).\n");
  return 0;
}

// ---------------------------------------------------------------------------
// E18 — §4.1's "MUX/BUS collapsing": multi-source interconnect as gate-tree
// multiplexers or as shared tri-state buses (one driver per source on a
// long shared line: cheaper gates, heavier wire).

int bus_interconnect() {
  std::printf("=== interconnect style: gate-tree muxes vs tri-state buses "
              "===\n\n");
  TextTable t({"benchmark", "style", "mux P[mW]", "bus P[mW]",
               "mux area[M]", "bus area[M]"});
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    for (int n : {1, 3}) {
      const auto b = suite::by_name(name, 4);
      core::SynthesisOptions opts;
      opts.style = n == 1 ? core::DesignStyle::ConventionalGated
                          : core::DesignStyle::MultiClock;
      opts.num_clocks = n;
      opts.interconnect = rtl::BuildOptions::Interconnect::Mux;
      const auto mux = row(b, opts, 2000, 51);
      opts.interconnect = rtl::BuildOptions::Interconnect::TristateBus;
      const auto bus = row(b, opts, 2000, 51);
      t.add_row({name, n == 1 ? "gated" : "3 clocks",
                 format_fixed(mux.power.total, 2),
                 format_fixed(bus.power.total, 2),
                 format_fixed(mux.area.total / 1e6, 2),
                 format_fixed(bus.area.total / 1e6, 2)});
    }
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nhigh-fan-in routes favour buses on area (driver per source "
              "beats a gate tree) and muxes on power (short private\n"
              "wires beat the shared line's capacitance).\n");
  return 0;
}

// ---------------------------------------------------------------------------
// E19 — the per-cycle switching-energy profile of HAL under each style,
// folded onto one computation period: under n non-overlapping clocks only
// one partition switches per master cycle, so the mean energy per cycle
// drops.

void profile(const suite::Benchmark& b, core::DesignStyle style, int clocks) {
  core::SynthesisOptions opts;
  opts.style = style;
  opts.num_clocks = clocks;
  const Style s(*b.graph, *b.schedule, opts);
  const auto m = s.measure(core::uniform_stimulus(*b.graph, 400, 61));
  const sim::PowerProbe& probe = m.probe;
  const rtl::Design& design = *s.syn.design;

  // The probe's folded profile, averaged over the computations: the whole
  // design's energy at each step of the master period.
  const int P = probe.period();
  const double periods = static_cast<double>(probe.steps() / P);
  std::vector<double> per_step(static_cast<std::size_t>(P), 0.0);
  double top = 1.0;
  for (int t = 1; t <= P; ++t) {
    double& e = per_step[static_cast<std::size_t>(t - 1)];
    for (int d = 0; d <= probe.num_domains(); ++d) e += probe.profile_fj(d, t);
    e /= periods;
    top = std::max(top, e);
  }
  std::printf("%s (all switching, clock tree included):\n",
              design.style_name.c_str());
  for (int t = 1; t <= P; ++t) {
    const double e = per_step[static_cast<std::size_t>(t - 1)];
    const auto bars = static_cast<std::size_t>(40.0 * e / top + 0.5);
    std::printf("step %2d (CLK_%d) |%-40s| %8.0f fJ\n", t,
                design.clocks.phase_of_step(t),
                std::string(bars, '#').c_str(), e);
  }
  const auto energies = probe.step_energies();
  std::printf("mean %.0f fJ/cycle, peak %.0f fJ, crest %.2f\n\n",
              probe.total_fj() / static_cast<double>(probe.steps()),
              *std::max_element(energies.begin(), energies.end()),
              m.point.crest);
}

int power_profile() {
  std::printf("=== per-cycle switching-energy profile (HAL benchmark) ===\n\n");
  const auto b = suite::hal(4);
  profile(b, core::DesignStyle::ConventionalGated, 1);
  profile(b, core::DesignStyle::MultiClock, 2);
  profile(b, core::DesignStyle::MultiClock, 3);
  std::printf("each master cycle only one partition's DPM switches, so the "
              "multi-clock profiles lower the mean energy per cycle;\n"
              "the peak falls less than the mean, so the crest factor "
              "rises: the profile gets lower, not flatter.\n");
  return 0;
}

struct Experiment {
  const char* id;
  int (*run)();
};

constexpr Experiment kExperiments[] = {
    {"E5", fig1_motivating},   {"E6", fig2_clocks},
    {"E7", fig4_timing},       {"E8", fig5_split},
    {"E9", fig7_integrated},   {"E10", sweep_nclocks},
    {"E11", fig3_dpm},         {"E12", duplication_baseline},
    {"E13", operand_isolation}, {"E14", activity_sweep},
    {"E15", activity_binding}, {"E17", schedule_impact},
    {"E18", bus_interconnect}, {"E19", power_profile},
};

}  // namespace

std::vector<std::string> experiment_ids() {
  std::vector<std::string> ids;
  for (const auto& e : kExperiments) ids.emplace_back(e.id);
  return ids;
}

int run_experiment(const std::string& id) {
  for (const auto& e : kExperiments) {
    if (id == e.id) return e.run();
  }
  throw Error("unknown experiment '" + id + "'");
}

}  // namespace mcrtl::cli
