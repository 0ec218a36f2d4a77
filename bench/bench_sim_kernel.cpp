// Settle-kernel benchmark: oblivious full-sweep vs. event-driven worklist,
// over every paper benchmark x clock count. Reports steps/sec and
// settle-evals/step per kernel and enforces two invariants that double as
// the CI perf-smoke guard (cheap and runner-noise-free, unlike wall-clock
// thresholds):
//
//  1. bit-identical results — outputs and the full Activity record of the
//     two kernels must agree exactly;
//  2. monotonic work — the event-driven kernel must never evaluate more
//     combinational components than the oblivious sweep does.
//
// A second leg benchmarks the bit-sliced Monte-Carlo batch kernel: one
// 64-stream run_sliced() pass against 64 serial event-driven runs of the
// same streams, with two more guards:
//
//  3. per-stream identity — every sliced result must be bit-identical to
//     the corresponding serial run;
//  4. batch throughput — aggregate streams x steps/s of the sliced kernel
//     must be at least 8x the serial baseline, measured on the median rep.
//
// A third leg benchmarks time slicing: one 2000-computation stream through
// run_time_sliced() against the scalar run(), both with a PowerProbe
// attached, with two more guards:
//
//  5. identity — outputs, the full Activity and every waveform entry (as
//     raw double bits) must match the scalar run;
//  6. speedup — the aggregate scalar pct50 over the time-sliced pct50 must
//     be at least 4x.
//
// A fourth leg benchmarks time-sliced bundles: two 1200-computation
// streams through the bundle run_time_sliced() (2 streams x 32 chunks)
// against the lockstep run_sliced() of the same bundle, both with a
// PowerProbe attached. The bundle counts two plain per-stream toggle
// totals and its probe folds each lane pair before it unpacks a class
// count; the lockstep pass keeps per-lane vertical counters. Two more
// guards:
//
//  7. identity — per-stream outputs and Activity, and every aggregate
//     waveform entry (as raw double bits), must match the lockstep run;
//  8. speedup — the aggregate lockstep pct50 over the bundle pct50 must be
//     at least 4x.
//
// Legs three and four also time the time-sliced run with no probe attached,
// interleaved with the probed run, for one more guard:
//
//  9. probe cost — the aggregate pct50 with the probe over the pct50
//     without it must be at most 2.5x at S = 1 and 2x for the S = 2
//     bundle.
//
// Timing is reported as percentiles over the reps (pct50/pct90/pct99 +
// stddev, see util/stats.hpp) rather than best-of-N: the median is what
// the speedup floor checks, the tail and spread make runner noise visible
// in BENCH_sim.json instead of silently erased.
//
// Exit code is nonzero if any guard fails. Writes BENCH_sim.json (cwd),
// stamped with the host it ran on (host.hpp).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/synthesizer.hpp"
#include "host.hpp"
#include "power/attribution.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "suite/benchmarks.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace mcrtl;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct KernelRun {
  RunStats timing;  // wall-clock percentiles over the reps
  std::uint64_t steps = 0;
  std::uint64_t evals = 0;
  double steps_per_sec() const { return steps / timing.pct50; }
  double evals_per_step() const {
    return static_cast<double>(evals) / static_cast<double>(steps);
  }
};

void emit_timing(std::ofstream& js, const RunStats& s) {
  js << "\"pct50\": " << s.pct50 << ", \"pct90\": " << s.pct90
     << ", \"pct99\": " << s.pct99 << ", \"stddev\": " << s.stddev
     << ", \"reps\": " << s.n;
}

struct ConfigRow {
  std::string bench;
  int num_clocks = 0;
  std::size_t comb_components = 0;
  KernelRun oblivious, event;
};

bool identical(const sim::SimResult& a, const sim::SimResult& b) {
  return a.outputs == b.outputs &&
         a.activity.net_toggles == b.activity.net_toggles &&
         a.activity.storage_clock_events == b.activity.storage_clock_events &&
         a.activity.storage_write_toggles == b.activity.storage_write_toggles &&
         a.activity.phase_pulses == b.activity.phase_pulses &&
         a.activity.steps == b.activity.steps;
}

struct SlicedRow {
  std::string bench;
  int num_clocks = 0;
  RunStats sliced;               // one 64-stream bit-sliced pass per rep
  RunStats serial;               // 64 one-at-a-time event-driven runs per rep
  std::uint64_t lane_steps = 0;  // streams x steps
  double sliced_throughput() const { return lane_steps / sliced.pct50; }
  double serial_throughput() const { return lane_steps / serial.pct50; }
  double speedup() const { return serial.pct50 / sliced.pct50; }
};

struct TimeSlicedRow {
  std::string bench;
  int num_clocks = 0;
  RunStats sliced;  // run_time_sliced() with the probe attached
  RunStats bare;    // run_time_sliced() without a probe
  RunStats scalar;  // run() with the probe attached
  double speedup() const { return scalar.pct50 / sliced.pct50; }
};

struct BundleRow {
  std::string bench;
  int num_clocks = 0;
  RunStats sliced;    // bundle run_time_sliced() with the probe attached
  RunStats bare;      // bundle run_time_sliced() without a probe
  RunStats lockstep;  // run_sliced() of the bundle with the probe attached
  double speedup() const { return lockstep.pct50 / sliced.pct50; }
};

/// The probe-cost guards: the aggregate pct50 with the probe over the
/// aggregate pct50 without it, for one stream and for the 2-stream bundle.
/// One stream reads 2.0-2.2x on a shared 4-vCPU host (the 64 per-group
/// rows of every step cost more against a 4-bit kernel than the bundle's
/// 32), so its ceiling sits at 2.5x until that gap closes (ROADMAP).
constexpr double kProbeOverheadCeiling = 2.5;
constexpr double kBundleProbeOverheadCeiling = 2.0;
/// Reps of the time-sliced legs: a run takes about a millisecond, so more
/// of them steady the probe-cost ratio.
constexpr int kSlicedReps = 9;

/// The probe's whole waveform as raw bits, step-major.
std::vector<std::uint64_t> waveform_bits(const sim::PowerProbe& probe) {
  std::vector<std::uint64_t> bits;
  for (std::size_t s = 0; s < probe.steps(); ++s) {
    for (int d = 0; d <= probe.num_domains(); ++d) {
      const double e = probe.step_fj(s, d);
      std::uint64_t b;
      std::memcpy(&b, &e, sizeof b);
      bits.push_back(b);
    }
  }
  return bits;
}

}  // namespace

int main() {
  constexpr std::size_t kComputations = 3000;
  constexpr int kReps = 5;  // enough samples for a meaningful median + tail
  std::vector<ConfigRow> rows;
  bool ok = true;

  std::printf("=== settle kernel: oblivious sweep vs event-driven worklist "
              "(%zu computations/run, median of %d) ===\n\n",
              kComputations, kReps);
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    for (int n = 1; n <= 4; ++n) {
      core::SynthesisOptions opts;
      opts.style = core::DesignStyle::MultiClock;
      opts.num_clocks = n;
      const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
      Rng rng(2024);
      const auto stream = sim::uniform_stream(rng, b.graph->inputs().size(),
                                              kComputations, 4);
      ConfigRow row;
      row.bench = name;
      row.num_clocks = n;
      row.comb_components = syn.design->tables.comb_order.size();

      // Fresh simulators per rep (kernel_stats accumulate); every rep's
      // wall time feeds the percentile stats over the identical stream.
      sim::SimResult rob, rev;
      std::vector<double> ob_samples, ev_samples;
      for (int rep = 0; rep < kReps; ++rep) {
        sim::Simulator ob(*syn.design, sim::Simulator::Mode::Oblivious);
        auto t0 = std::chrono::steady_clock::now();
        rob = ob.run(stream, b.graph->inputs(), b.graph->outputs());
        ob_samples.push_back(seconds_since(t0));
        row.oblivious.steps = rob.activity.steps;
        row.oblivious.evals = ob.kernel_stats().evals;

        sim::Simulator ev(*syn.design);
        t0 = std::chrono::steady_clock::now();
        rev = ev.run(stream, b.graph->inputs(), b.graph->outputs());
        ev_samples.push_back(seconds_since(t0));
        row.event.steps = rev.activity.steps;
        row.event.evals = ev.kernel_stats().evals;
      }
      row.oblivious.timing = RunStats::from_samples(std::move(ob_samples));
      row.event.timing = RunStats::from_samples(std::move(ev_samples));

      if (!identical(rob, rev)) {
        std::fprintf(stderr,
                     "FATAL: %s n=%d event-driven kernel differs from the "
                     "oblivious reference\n",
                     name, n);
        ok = false;
      }
      if (row.event.evals > row.oblivious.evals) {
        std::fprintf(stderr,
                     "FATAL: %s n=%d event-driven kernel evaluated more "
                     "components than the oblivious sweep (%llu > %llu)\n",
                     name, n,
                     static_cast<unsigned long long>(row.event.evals),
                     static_cast<unsigned long long>(row.oblivious.evals));
        ok = false;
      }
      rows.push_back(row);
    }
  }

  // --- bit-sliced batch leg: 64 streams per pass vs 64 serial runs -------
  constexpr std::size_t kStreams = sim::Simulator::kMaxStreams;
  // Long enough that one sliced pass (~60ms) dwarfs a scheduler quantum:
  // with short passes a single preemption lands entirely on the sliced
  // reading and sinks the ratio, best-of-reps or not.
  constexpr std::size_t kSlicedComputations = 3000;
  constexpr int kSerialReps = 3;  // a serial pass is ~25x longer; 3 give a
                                  // true median without doubling wall time
  std::vector<SlicedRow> srows;
  double total_sliced_s = 0, total_serial_s = 0;

  std::printf("\n=== bit-sliced batch kernel: %zu streams/pass vs %zu serial "
              "event-driven runs (%zu computations/stream) ===\n\n",
              kStreams, kStreams, kSlicedComputations);
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    for (int n = 1; n <= 4; ++n) {
      core::SynthesisOptions opts;
      opts.style = core::DesignStyle::MultiClock;
      opts.num_clocks = n;
      const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
      const auto bundle = sim::uniform_streams(
          2024, kStreams, b.graph->inputs().size(), kSlicedComputations, 4);

      SlicedRow row;
      row.bench = name;
      row.num_clocks = n;

      // Percentiles over reps on both legs; the speedup ratio uses the
      // medians, so a single preempted rep lands in the tail instead of
      // skewing the headline. Each rep gets a fresh kernel — plane state
      // persists across run_sliced() calls, so a reused Simulator would
      // start warm.
      std::vector<sim::SimResult> sliced;
      std::vector<double> sl_samples;
      for (int rep = 0; rep < kReps; ++rep) {
        sim::Simulator sl(*syn.design, sim::Simulator::Mode::BitSliced);
        auto t0 = std::chrono::steady_clock::now();
        auto res = sl.run_sliced(bundle, b.graph->inputs(), b.graph->outputs());
        sl_samples.push_back(seconds_since(t0));
        if (rep == 0) sliced = std::move(res);
      }
      row.sliced = RunStats::from_samples(std::move(sl_samples));

      std::vector<sim::SimResult> serial;
      std::vector<double> se_samples;
      for (int rep = 0; rep < kSerialReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        std::vector<sim::SimResult> res;
        res.reserve(kStreams);
        for (std::size_t s = 0; s < kStreams; ++s) {
          sim::Simulator ev(*syn.design);
          res.push_back(
              ev.run(bundle[s], b.graph->inputs(), b.graph->outputs()));
        }
        se_samples.push_back(seconds_since(t0));
        if (rep == 0) serial = std::move(res);
      }
      row.serial = RunStats::from_samples(std::move(se_samples));

      for (std::size_t s = 0; s < kStreams; ++s) {
        row.lane_steps += sliced[s].activity.steps;
        if (!identical(sliced[s], serial[s])) {
          std::fprintf(stderr,
                       "FATAL: %s n=%d stream %zu: bit-sliced kernel differs "
                       "from the serial event-driven reference\n",
                       name, n, s);
          ok = false;
        }
      }
      total_sliced_s += row.sliced.pct50;
      total_serial_s += row.serial.pct50;
      srows.push_back(row);
    }
  }

  const double batch_speedup = total_serial_s / total_sliced_s;
  if (batch_speedup < 8.0) {
    std::fprintf(stderr,
                 "FATAL: bit-sliced batch speedup %.2fx is below the 8x "
                 "floor (serial pct50 %.3fs / sliced pct50 %.3fs)\n",
                 batch_speedup, total_serial_s, total_sliced_s);
    ok = false;
  }

  // --- time-sliced leg: one stream cut into 64 chunks vs the scalar run --
  constexpr std::size_t kTimeSlicedComputations = 2000;
  std::vector<TimeSlicedRow> trows;
  double total_ts_s = 0, total_scalar_s = 0, total_ts_bare_s = 0;
  const auto tech = power::TechLibrary::cmos08();
  std::printf("\n=== time-sliced kernel: one %zu-computation stream, "
              "run_time_sliced vs scalar run, power probe attached ===\n\n",
              kTimeSlicedComputations);
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    for (int n = 1; n <= 4; ++n) {
      core::SynthesisOptions opts;
      opts.style = core::DesignStyle::MultiClock;
      opts.num_clocks = n;
      const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
      const power::Attribution attr(*syn.design, tech);
      Rng rng(2024);
      const auto stream = sim::uniform_stream(
          rng, b.graph->inputs().size(), kTimeSlicedComputations, 4);
      TimeSlicedRow row;
      row.bench = name;
      row.num_clocks = n;
      sim::SimResult ts_res, sc_res;
      std::vector<std::uint64_t> ts_bits, sc_bits;
      std::vector<double> ts_samples, bare_samples, sc_samples;
      auto time_bare = [&] {
        sim::Simulator bare(*syn.design, sim::Simulator::Mode::BitSliced);
        const auto t0 = std::chrono::steady_clock::now();
        bare.run_time_sliced({&stream, 1}, b.graph->inputs(),
                             b.graph->outputs());
        bare_samples.push_back(seconds_since(t0));
      };
      for (int rep = 0; rep < kSlicedReps; ++rep) {
        // The probed and the bare run take turns going first, so neither
        // always inherits the other's warm caches.
        if (rep % 2 == 1) time_bare();
        sim::Simulator ts(*syn.design, sim::Simulator::Mode::BitSliced);
        sim::PowerProbe ts_probe(attr.energy_model());
        ts.set_power_probe(&ts_probe);
        auto t0 = std::chrono::steady_clock::now();
        ts_res = std::move(ts.run_time_sliced({&stream, 1}, b.graph->inputs(),
                                              b.graph->outputs())
                               .front());
        ts_samples.push_back(seconds_since(t0));
        if (rep % 2 == 0) time_bare();

        sim::Simulator sc(*syn.design);
        sim::PowerProbe sc_probe(attr.energy_model());
        sc.set_power_probe(&sc_probe);
        t0 = std::chrono::steady_clock::now();
        sc_res = sc.run(stream, b.graph->inputs(), b.graph->outputs());
        sc_samples.push_back(seconds_since(t0));
        if (rep == 0) {
          ts_bits = waveform_bits(ts_probe);
          sc_bits = waveform_bits(sc_probe);
        }
      }
      row.sliced = RunStats::from_samples(std::move(ts_samples));
      row.bare = RunStats::from_samples(std::move(bare_samples));
      row.scalar = RunStats::from_samples(std::move(sc_samples));
      if (!identical(ts_res, sc_res) || ts_bits != sc_bits) {
        std::fprintf(stderr,
                     "FATAL: %s n=%d time-sliced run differs from the "
                     "scalar run (outputs, Activity or waveform)\n",
                     name, n);
        ok = false;
      }
      total_ts_s += row.sliced.pct50;
      total_ts_bare_s += row.bare.pct50;
      total_scalar_s += row.scalar.pct50;
      trows.push_back(row);
    }
  }
  const double time_sliced_speedup = total_scalar_s / total_ts_s;
  if (time_sliced_speedup < 4.0) {
    std::fprintf(stderr,
                 "FATAL: time-sliced speedup %.2fx is below the 4x floor "
                 "(scalar pct50 %.3fs / time-sliced pct50 %.3fs)\n",
                 time_sliced_speedup, total_scalar_s, total_ts_s);
    ok = false;
  }
  const double time_sliced_probe = total_ts_s / total_ts_bare_s;
  if (time_sliced_probe > kProbeOverheadCeiling) {
    std::fprintf(stderr,
                 "FATAL: the probe costs %.2fx the time-sliced run it rides "
                 "on, above the %.1fx ceiling (pct50 %.4fs with / %.4fs "
                 "without)\n",
                 time_sliced_probe, kProbeOverheadCeiling, total_ts_s,
                 total_ts_bare_s);
    ok = false;
  }

  // --- bundle leg: 2 streams x 32 time chunks vs the lockstep pass -------
  constexpr std::size_t kBundleStreams = 2;
  constexpr std::size_t kBundleComputations = 1200;
  std::vector<BundleRow> brows;
  double total_bundle_s = 0, total_lockstep_s = 0, total_bundle_bare_s = 0;
  std::printf("\n=== time-sliced bundles: %zu streams x %zu computations, "
              "bundle run_time_sliced vs lockstep run_sliced, power probe "
              "attached ===\n\n",
              kBundleStreams, kBundleComputations);
  for (const char* name : {"facet", "hal", "biquad", "bandpass"}) {
    const auto b = suite::by_name(name, 4);
    for (int n = 1; n <= 4; ++n) {
      core::SynthesisOptions opts;
      opts.style = core::DesignStyle::MultiClock;
      opts.num_clocks = n;
      const auto syn = core::synthesize(*b.graph, *b.schedule, opts);
      const power::Attribution attr(*syn.design, tech);
      const auto bundle =
          sim::uniform_streams(2024, kBundleStreams, b.graph->inputs().size(),
                               kBundleComputations, 4);
      BundleRow row;
      row.bench = name;
      row.num_clocks = n;
      std::vector<sim::SimResult> ts_res, ls_res;
      std::vector<std::uint64_t> ts_bits, ls_bits;
      std::vector<double> ts_samples, bare_samples, ls_samples;
      auto time_bare = [&] {
        sim::Simulator bare(*syn.design, sim::Simulator::Mode::BitSliced);
        const auto t0 = std::chrono::steady_clock::now();
        bare.run_time_sliced(bundle, b.graph->inputs(), b.graph->outputs());
        bare_samples.push_back(seconds_since(t0));
      };
      for (int rep = 0; rep < kSlicedReps; ++rep) {
        if (rep % 2 == 1) time_bare();
        sim::Simulator ts(*syn.design, sim::Simulator::Mode::BitSliced);
        sim::PowerProbe ts_probe(attr.energy_model());
        ts.set_power_probe(&ts_probe);
        auto t0 = std::chrono::steady_clock::now();
        ts_res = ts.run_time_sliced(bundle, b.graph->inputs(),
                                    b.graph->outputs());
        ts_samples.push_back(seconds_since(t0));
        if (rep % 2 == 0) time_bare();

        sim::Simulator ls(*syn.design, sim::Simulator::Mode::BitSliced);
        sim::PowerProbe ls_probe(attr.energy_model());
        ls.set_power_probe(&ls_probe);
        t0 = std::chrono::steady_clock::now();
        ls_res = ls.run_sliced(bundle, b.graph->inputs(), b.graph->outputs());
        ls_samples.push_back(seconds_since(t0));
        if (rep == 0) {
          ts_bits = waveform_bits(ts_probe);
          ls_bits = waveform_bits(ls_probe);
        }
      }
      row.sliced = RunStats::from_samples(std::move(ts_samples));
      row.bare = RunStats::from_samples(std::move(bare_samples));
      row.lockstep = RunStats::from_samples(std::move(ls_samples));
      bool same = ts_res.size() == ls_res.size() && ts_bits == ls_bits;
      for (std::size_t s = 0; same && s < ts_res.size(); ++s) {
        same = identical(ts_res[s], ls_res[s]);
      }
      if (!same) {
        std::fprintf(stderr,
                     "FATAL: %s n=%d time-sliced bundle differs from the "
                     "lockstep run (outputs, Activity or waveform)\n",
                     name, n);
        ok = false;
      }
      total_bundle_s += row.sliced.pct50;
      total_bundle_bare_s += row.bare.pct50;
      total_lockstep_s += row.lockstep.pct50;
      brows.push_back(row);
    }
  }
  const double bundle_speedup = total_lockstep_s / total_bundle_s;
  if (bundle_speedup < 4.0) {
    std::fprintf(stderr,
                 "FATAL: time-sliced bundle speedup %.2fx is below the 4x "
                 "floor (lockstep pct50 %.3fs / bundle pct50 %.3fs)\n",
                 bundle_speedup, total_lockstep_s, total_bundle_s);
    ok = false;
  }
  const double bundle_probe = total_bundle_s / total_bundle_bare_s;
  if (bundle_probe > kBundleProbeOverheadCeiling) {
    std::fprintf(stderr,
                 "FATAL: the probe costs %.2fx the time-sliced bundle it "
                 "rides on, above the %.1fx ceiling (pct50 %.4fs with / "
                 "%.4fs without)\n",
                 bundle_probe, kBundleProbeOverheadCeiling, total_bundle_s,
                 total_bundle_bare_s);
    ok = false;
  }

  TextTable t({"bench", "n", "comb", "obliv steps/s", "event steps/s",
               "speedup", "obliv evals/step", "event evals/step"});
  for (const auto& r : rows) {
    t.add_row({r.bench, std::to_string(r.num_clocks),
               std::to_string(r.comb_components),
               format_fixed(r.oblivious.steps_per_sec() / 1e6, 2) + "M",
               format_fixed(r.event.steps_per_sec() / 1e6, 2) + "M",
               format_fixed(r.event.steps_per_sec() /
                                r.oblivious.steps_per_sec(),
                            2) +
                   "x",
               format_fixed(r.oblivious.evals_per_step(), 2),
               format_fixed(r.event.evals_per_step(), 2)});
  }
  std::fputs(t.render().c_str(), stdout);

  std::printf("\n");
  TextTable st({"bench", "n", "sliced lane-steps/s", "serial lane-steps/s",
                "speedup"});
  for (const auto& r : srows) {
    st.add_row({r.bench, std::to_string(r.num_clocks),
                format_fixed(r.sliced_throughput() / 1e6, 2) + "M",
                format_fixed(r.serial_throughput() / 1e6, 2) + "M",
                format_fixed(r.speedup(), 2) + "x"});
  }
  std::fputs(st.render().c_str(), stdout);
  std::printf("\nbatch speedup (aggregate): %.2fx (floor 8x)\n",
              batch_speedup);

  std::printf("\n");
  TextTable tt({"bench", "n", "time-sliced pct50", "no-probe pct50",
                "scalar pct50", "speedup"});
  for (const auto& r : trows) {
    tt.add_row({r.bench, std::to_string(r.num_clocks),
                format_fixed(r.sliced.pct50 * 1e3, 2) + "ms",
                format_fixed(r.bare.pct50 * 1e3, 2) + "ms",
                format_fixed(r.scalar.pct50 * 1e3, 2) + "ms",
                format_fixed(r.speedup(), 2) + "x"});
  }
  std::fputs(tt.render().c_str(), stdout);
  std::printf("\ntime-sliced speedup (aggregate): %.2fx (floor 4x)\n",
              time_sliced_speedup);
  std::printf("probe cost at S = 1 (aggregate): %.2fx (ceiling %.1fx)\n",
              time_sliced_probe, kProbeOverheadCeiling);

  std::printf("\n");
  TextTable bt({"bench", "n", "bundle pct50", "no-probe pct50",
                "lockstep pct50", "speedup"});
  for (const auto& r : brows) {
    bt.add_row({r.bench, std::to_string(r.num_clocks),
                format_fixed(r.sliced.pct50 * 1e3, 2) + "ms",
                format_fixed(r.bare.pct50 * 1e3, 2) + "ms",
                format_fixed(r.lockstep.pct50 * 1e3, 2) + "ms",
                format_fixed(r.speedup(), 2) + "x"});
  }
  std::fputs(bt.render().c_str(), stdout);
  std::printf("\ntime-sliced bundle speedup (aggregate): %.2fx (floor 4x)\n",
              bundle_speedup);
  std::printf("probe cost for the S = 2 bundle (aggregate): %.2fx (ceiling "
              "%.1fx)\n",
              bundle_probe, kBundleProbeOverheadCeiling);

  {
    std::ofstream js("BENCH_sim.json");
    js << "{\n  " << bench::host_json()
       << ",\n  \"computations\": " << kComputations
       << ",\n  \"configs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      js << "    {\"bench\": \"" << r.bench
         << "\", \"num_clocks\": " << r.num_clocks
         << ", \"comb_components\": " << r.comb_components
         << ",\n     \"oblivious\": {\"seconds\": " << r.oblivious.timing.pct50
         << ", \"steps_per_sec\": " << r.oblivious.steps_per_sec()
         << ", \"evals_per_step\": " << r.oblivious.evals_per_step()
         << ",\n       \"timing\": {";
      emit_timing(js, r.oblivious.timing);
      js << "}}"
         << ",\n     \"event\": {\"seconds\": " << r.event.timing.pct50
         << ", \"steps_per_sec\": " << r.event.steps_per_sec()
         << ", \"evals_per_step\": " << r.event.evals_per_step()
         << ",\n       \"timing\": {";
      emit_timing(js, r.event.timing);
      js << "}}"
         << ",\n     \"speedup\": "
         << r.event.steps_per_sec() / r.oblivious.steps_per_sec()
         << ", \"evals_ratio\": "
         << static_cast<double>(r.event.evals) /
                static_cast<double>(r.oblivious.evals)
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"sliced\": {\"streams\": " << kStreams
       << ", \"computations\": " << kSlicedComputations
       << ", \"batch_speedup\": " << batch_speedup
       << ", \"speedup_floor\": 8.0,\n  \"configs\": [\n";
    for (std::size_t i = 0; i < srows.size(); ++i) {
      const auto& r = srows[i];
      js << "    {\"bench\": \"" << r.bench
         << "\", \"num_clocks\": " << r.num_clocks
         << ", \"sliced_seconds\": " << r.sliced.pct50
         << ", \"serial_seconds\": " << r.serial.pct50
         << ",\n     \"sliced_timing\": {";
      emit_timing(js, r.sliced);
      js << "}, \"serial_timing\": {";
      emit_timing(js, r.serial);
      js << "},\n     \"sliced_lane_steps_per_sec\": " << r.sliced_throughput()
         << ", \"serial_lane_steps_per_sec\": " << r.serial_throughput()
         << ", \"speedup\": " << r.speedup() << "}"
         << (i + 1 < srows.size() ? "," : "") << "\n";
    }
    js << "  ]},\n  \"time_sliced\": {\"computations\": "
       << kTimeSlicedComputations
       << ", \"speedup\": " << time_sliced_speedup
       << ", \"speedup_floor\": 4.0,\n  \"probe_overhead\": "
       << time_sliced_probe << ", \"probe_overhead_ceiling\": "
       << kProbeOverheadCeiling << ",\n  \"configs\": [\n";
    for (std::size_t i = 0; i < trows.size(); ++i) {
      const auto& r = trows[i];
      js << "    {\"bench\": \"" << r.bench
         << "\", \"num_clocks\": " << r.num_clocks
         << ", \"sliced_seconds\": " << r.sliced.pct50
         << ", \"bare_seconds\": " << r.bare.pct50
         << ", \"scalar_seconds\": " << r.scalar.pct50
         << ",\n     \"sliced_timing\": {";
      emit_timing(js, r.sliced);
      js << "}, \"bare_timing\": {";
      emit_timing(js, r.bare);
      js << "}, \"scalar_timing\": {";
      emit_timing(js, r.scalar);
      js << "},\n     \"speedup\": " << r.speedup() << "}"
         << (i + 1 < trows.size() ? "," : "") << "\n";
    }
    js << "  ]},\n  \"bundle_sliced\": {\"streams\": " << kBundleStreams
       << ", \"computations\": " << kBundleComputations
       << ", \"speedup\": " << bundle_speedup
       << ", \"speedup_floor\": 4.0,\n  \"probe_overhead\": " << bundle_probe
       << ", \"probe_overhead_ceiling\": " << kBundleProbeOverheadCeiling
       << ",\n  \"configs\": [\n";
    for (std::size_t i = 0; i < brows.size(); ++i) {
      const auto& r = brows[i];
      js << "    {\"bench\": \"" << r.bench
         << "\", \"num_clocks\": " << r.num_clocks
         << ", \"sliced_seconds\": " << r.sliced.pct50
         << ", \"bare_seconds\": " << r.bare.pct50
         << ", \"lockstep_seconds\": " << r.lockstep.pct50
         << ",\n     \"sliced_timing\": {";
      emit_timing(js, r.sliced);
      js << "}, \"bare_timing\": {";
      emit_timing(js, r.bare);
      js << "}, \"lockstep_timing\": {";
      emit_timing(js, r.lockstep);
      js << "},\n     \"speedup\": " << r.speedup() << "}"
         << (i + 1 < brows.size() ? "," : "") << "\n";
    }
    js << "  ]},\n  \"identical_results\": " << (ok ? "true" : "false")
       << ",\n  \"guard\": \"event evals <= oblivious evals on every config; "
          "results bit-identical; sliced results bit-identical per stream; "
          "batch speedup (pct50) >= 8x; time-sliced results and waveform "
          "bit-identical to scalar; time-sliced speedup (pct50) >= 4x; "
          "time-sliced bundle results and waveform bit-identical to "
          "lockstep; bundle speedup (pct50) >= 4x; probe cost (pct50 with "
          "/ without) <= 2.5x at S = 1 and <= 2x for the S = 2 bundle\"\n}\n";
  }
  std::printf(
      "\nwrote BENCH_sim.json (%zu + %zu + %zu + %zu configs), guard %s\n",
      rows.size(), srows.size(), trows.size(), brows.size(),
      ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
