// One measurement of one synthesized design — the paper's §5.1 protocol.
//
// Every reported power/area number comes out of the same sequence: simulate
// the design on random computations, check every sampled output against
// the behaviour's golden model, then estimate power and area from the same
// run's Activity. measure() is that sequence, once. The explorer calls it
// per design point, and so do `mcrtl synth`/`table`/`experiment` and the
// examples, so every table the project prints is measured the same way.
//
// The run is one time-sliced pass of the bit-sliced kernel
// (Simulator::run_time_sliced): a single stream cut into 64 chunks, or a
// Monte-Carlo bundle of S streams cut into ⌊64/S⌋ chunks each (a design
// that fails time_sliceable() takes the lockstep layout). A run with a
// debug hook — a step observer (the VCD dump) or a heatmap — is the
// Oblivious reference kernel's run() instead. Either way the results are
// bit-identical to a scalar run of each stream.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/explorer.hpp"
#include "power/attribution.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"

namespace mcrtl::core {

/// The stimulus of one measurement: 1..64 streams of equal length and the
/// golden model's outputs for each.
struct Stimulus {
  std::vector<sim::InputStream> streams;
  std::vector<sim::GoldenOutputs> golden;
};

/// `streams` with their golden outputs from the interpreter of `graph`.
/// Throws mcrtl::Error (sim::check_stream_width) before evaluating any
/// stream if one of them is not `graph.inputs().size()` words wide.
Stimulus make_stimulus(const dfg::Graph& graph,
                       std::vector<sim::InputStream> streams);

/// The paper's protocol: one stream of `computations` uniform random input
/// vectors drawn from Rng(seed) (sim::stream_seed of a single stream).
Stimulus uniform_stimulus(const dfg::Graph& graph, std::size_t computations,
                          std::uint64_t seed);

/// Optional hooks on the measured run. The heatmap and the observer need a
/// single-stream stimulus and run the Oblivious reference kernel.
struct MeasureHooks {
  sim::PhaseHeatmap* heatmap = nullptr;
  sim::Simulator::StepObserver observer;
  /// Cooperative deadline (Simulator::set_deadline): an expired run throws
  /// mcrtl::TimeoutError.
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// Everything one measured run reports.
struct Measurement {
  /// Power, area, stats, Monte-Carlo spread (streams > 1), hotspot and
  /// crest. The label is the design's style name; options and the Pareto
  /// flag are the caller's to fill.
  ExplorationPoint point;
  /// The run's Activity, summed over the streams.
  sim::Activity activity;
  /// The hierarchical attribution of `activity`.
  power::AttributionReport attribution;
  /// The energy weights `probe` reads, owned here so the probe stays valid
  /// wherever the Measurement moves.
  std::unique_ptr<const power::Attribution> energy;
  /// The per-step, per-domain energy waveform of the run (the aggregate
  /// across streams for a bundle).
  sim::PowerProbe probe;
};

/// Simulate `design` (synthesized from a schedule of `graph`) on
/// `stimulus`, check every stream against its golden outputs and measure
/// the run. Throws mcrtl::Error naming the first mismatching computation if
/// any stream's outputs differ from the golden model: a non-equivalent
/// design is never reported.
Measurement measure(const rtl::Design& design, const dfg::Graph& graph,
                    const Stimulus& stimulus, const power::TechLibrary& tech,
                    const power::PowerParams& params = {},
                    const MeasureHooks& hooks = {});

}  // namespace mcrtl::core
