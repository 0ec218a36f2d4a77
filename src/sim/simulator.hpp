// Phase-accurate simulator for synthesized designs.
//
// One control step = one master clock cycle. Within a step:
//   1. the controller drives new control-line values (latched lines only
//      change at their partition boundary — ControlPlan::line_values);
//   2. at the period boundary, primary inputs take the next computation's
//      values;
//   3. combinational logic (muxes, ALUs) settles — every output word change
//      is a counted transition wave;
//   4. the clock edge ending the step fires for exactly one phase; storage
//      elements of that phase with an active load enable capture their D
//      input (all captures commit simultaneously);
//   5. combinational logic settles again on the new storage outputs.
//
// Primary outputs are sampled at the end of schedule step T of each period.
// All transitions — datapath, control lines, storage outputs, clock pins —
// are accumulated into an Activity record for the power model.
//
// A stream's inputs and a run's sampled outputs are WordTables: one row
// per computation in one block per stream, so no run allocates per
// computation. Every entry point checks the stream's width once, before it
// simulates anything (check_stream_width); the per-computation loops read
// row pointers unchecked.
//
// Three settle kernels implement step 3/5 with bit-identical results:
//
//  * EventDriven (the constructor default) — a levelized event-driven
//    worklist over the design's compiled tables (rtl::DesignTables: the net ->
//    combinational-fanout index and a topological level per combinational
//    component); write_net() enqueues the dirty fanout of every real value
//    change into a level-bucketed worklist, and settle() drains only the
//    affected cone in level order. In an n-clock design
//    only ~1/n of the datapath sees new values in any master cycle (the
//    paper's one-active-DPM property), so most components are never
//    touched. No library path measures on it: it is the kernel of the
//    benchmark's traced replay and the bench's scalar baseline.
//  * Oblivious — the reference kernel: re-evaluate every combinational
//    component in topological order on every settle, write every
//    control-line value every step, and re-derive the phase-edge capture
//    set from the live load nets at every edge — i.e.
//    the full pre-event-kernel inner loop. Retained as the
//    differential-testing baseline for the other kernels and their
//    precomputed control/edge schedules (and as the cost model of the
//    `sim.kernel.evals_skipped` counter). core::measure() runs its debug
//    hooks — a StepObserver (the VCD dump) or a PhaseHeatmap — on it.
//  * BitSliced — the measuring kernel: up to 64 lanes are packed
//    one-per-bit into bit-slice planes (util/bits.hpp layout: one uint64_t
//    plane per net bit), components are evaluated with SWAR logic plus
//    ripple-carry arithmetic on the planes, and one settle pass over the
//    levelized worklist advances all lanes at once. It reads the same
//    compiled levelized fanout index, tabulated controller deltas and static
//    phase-edge schedules; designs whose storage load enables are
//    not controller-driven (never produced by synthesize()) are rejected
//    at construction. It holds no scalar net state and takes no step
//    observer or heatmap. run_sliced() runs up to 64 independent streams in
//    lockstep, one per lane; per stream, its results are bit-identical to
//    an independent EventDriven run of that stream's stimulus.
//    run_time_sliced() fills the lanes in time instead: each of S streams
//    is cut into ⌊64/S⌋ consecutive chunks, one per lane, each preceded by
//    one uncounted warm-up computation, and each stream's counted records
//    are stitched back together in time order — bit-identical to run() of
//    each stream (S = 1, probe waveform included) and to run_sliced() of
//    the bundle (aggregate probe waveform included; DESIGN.md §7). Up to
//    five streams, a time-sliced pass counts plain per-stream toggle totals
//    (masked popcounts) instead of vertical counters.
//
// Because every combinational component is a pure function of its input
// nets and write_net() only counts transitions on real value changes, the
// kernels produce identical Activity, outputs and power-probe records (and
// the scalar kernels identical PhaseHeatmaps and per-step net values) —
// asserted across benchmarks, styles and fuzz graphs by
// tests/test_sim_kernel.cpp and (per stream) tests/test_sim_sliced.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "rtl/design.hpp"
#include "sim/activity.hpp"
#include "sim/power_probe.hpp"

namespace mcrtl::sim {

/// A computation-major table of words in one block: row c holds the words
/// of computation c, every row the same width. Input streams, sampled RTL
/// outputs and the golden model's outputs (sim::GoldenOutputs) all use it,
/// so a table of any length is one allocation and a ragged one cannot be
/// built.
class WordTable {
 public:
  WordTable() = default;
  /// `rows` zeroed rows of `words` words each.
  WordTable(std::size_t rows, std::size_t words)
      : rows_(rows), words_(words), values_(rows * words) {}

  /// Number of rows (computations).
  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  /// Words per row.
  std::size_t words() const { return words_; }

  std::span<const std::uint64_t> operator[](std::size_t row) const {
    return {values_.data() + row * words_, words_};
  }
  std::span<std::uint64_t> operator[](std::size_t row) {
    return {values_.data() + row * words_, words_};
  }

  /// Every word, row after row.
  std::span<const std::uint64_t> values() const { return values_; }
  std::span<std::uint64_t> values() { return values_; }

  bool operator==(const WordTable&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> values_;
};

/// Input stream: one row per computation, one word per input in
/// Graph::inputs() order.
using InputStream = WordTable;

/// Throws mcrtl::Error "expected N inputs per computation, got M" unless
/// the rows of `stream` hold `inputs` words — the one shape check of a
/// stream, made before anything is simulated or evaluated on it.
void check_stream_width(const InputStream& stream, std::size_t inputs);

/// Result of simulating a stream.
struct SimResult {
  /// One row per computation: the sampled primary outputs in the
  /// `output_order` the run was given.
  WordTable outputs;
  Activity activity;
};

/// sum_activities() over the Activity of each result, without copying them
/// out first (defined in activity.cpp).
Activity sum_activities(const std::vector<SimResult>& results);

class Simulator {
 public:
  /// Settle-kernel selection. BitSliced is the measuring kernel: it batches
  /// up to 64 streams per run_sliced() call and time-slices 1..64 streams
  /// in run_time_sliced(). EventDriven and Oblivious are the scalar kernels
  /// of run(); Oblivious is the reference for differential testing and the
  /// kernel of measure()'s debug hooks.
  enum class Mode { EventDriven, Oblivious, BitSliced };

  /// Maximum number of stimulus streams one run_sliced() call can batch —
  /// one lane per bit of the plane words.
  static constexpr std::size_t kMaxStreams = 64;

  explicit Simulator(const rtl::Design& design, Mode mode = Mode::EventDriven);

  Mode mode() const { return mode_; }

  /// Simulate `stream.size()` computations. `output_order` lists the output
  /// values in the order samples should be emitted. Not available in
  /// BitSliced mode (use run_time_sliced or run_sliced).
  SimResult run(const InputStream& stream,
                const std::vector<dfg::ValueId>& input_order,
                const std::vector<dfg::ValueId>& output_order);

  /// BitSliced mode only: simulate `streams.size()` (1..64) independent
  /// stimulus streams of equal length in one bit-sliced lockstep pass.
  /// Element s of the result is bit-identical to what an EventDriven run of
  /// streams[s] on a fresh Simulator would return — outputs and the full
  /// Activity record.
  std::vector<SimResult> run_sliced(
      const std::vector<InputStream>& streams,
      const std::vector<dfg::ValueId>& input_order,
      const std::vector<dfg::ValueId>& output_order);

  /// BitSliced mode only: simulate S = `streams.size()` (1..64) streams of
  /// equal length by time slicing. S × ⌊64/S⌋ lanes run in one bit-sliced
  /// pass; lane k·S + s runs the k-th consecutive chunk of stream s,
  /// starting one uncounted warm-up computation early, and a per-lane count
  /// mask keeps warm-ups and trailing computations out of every count.
  /// Element s of the result — outputs and the full Activity — is
  /// bit-identical to run() of streams[s] on a fresh EventDriven simulator
  /// under the same computation budget, and an attached PowerProbe receives
  /// exactly run_sliced()'s aggregate waveform of the bundle (for S = 1,
  /// run()'s waveform). Every call starts from the reset state. When
  /// ⌊64/S⌋ == 1 or the design is not time_sliceable() the pass uses the
  /// lockstep layout (one lane per stream). An empty stream gives run()'s
  /// result: no samples and an all-zero Activity.
  std::vector<SimResult> run_time_sliced(
      std::span<const InputStream> streams,
      const std::vector<dfg::ValueId>& input_order,
      const std::vector<dfg::ValueId>& output_order);

  /// BitSliced mode only: whether run_time_sliced() may slice this design.
  /// A static check over the schedule, no simulation: starting from an
  /// arbitrary state
  /// with only the controller lines, constants and input ports known, the
  /// boundary edge before a period plus that whole master period of the
  /// static schedule must leave every net and storage element determined by
  /// the period's inputs (and the next inputs, presented at its last step).
  /// A lane's single warm-up computation then reproduces the scalar run's
  /// state at the chunk boundary exactly.
  bool time_sliceable() const;

  /// Settle-kernel work accounting, accumulated over every run() of this
  /// Simulator. `evals` is the number of combinational evaluations the
  /// active kernel actually performed; `oblivious_evals` is what the
  /// Oblivious kernel would have performed over the same settle() calls
  /// (settles x combinational component count) — the two coincide in
  /// Oblivious mode, and their difference is the event-driven saving.
  struct KernelStats {
    std::uint64_t settles = 0;
    std::uint64_t evals = 0;
    std::uint64_t oblivious_evals = 0;
  };
  const KernelStats& kernel_stats() const { return kernel_stats_; }

  /// Optional per-step observer: called after each step settles with
  /// (global_step, net values). Used by the VCD tracer. Scalar kernels
  /// only: a BitSliced run with an observer attached throws mcrtl::Error
  /// before it simulates anything.
  using StepObserver =
      std::function<void(std::uint64_t step, const std::vector<std::uint64_t>&)>;
  void set_observer(StepObserver obs) { observer_ = std::move(obs); }

  /// Optional per-partition activity telemetry: run() fills `hm` (resized
  /// to the design's phase count x period) with storage write toggles and
  /// delivered clock edges per (phase, period step). Pass nullptr to
  /// detach; no collection cost when detached. Scalar kernels only, like
  /// the observer.
  void set_heatmap(PhaseHeatmap* hm) { heatmap_ = hm; }

  /// Optional per-domain energy telemetry (the power-attribution waveform):
  /// every counted transition is folded into `probe` with the weights of
  /// its EnergyModel — per step and per clock domain. run_sliced() gives
  /// the probe the aggregate across all lanes; run_time_sliced() gives it
  /// exactly run_sliced()'s aggregate, which for one stream is the scalar
  /// run's waveform. Pass nullptr to detach;
  /// no collection cost when detached, and attaching never changes results.
  void set_power_probe(PowerProbe* probe) { probe_ = probe; }

  /// Cooperative deadline: run() checks the clock once per computation
  /// (i.e. once per master period; the sliced runs once per lockstep
  /// computation of their lanes) and throws mcrtl::TimeoutError when the
  /// deadline has passed — the hook behind the explorer's --point-timeout,
  /// turning a pathologically slow configuration into an ordinary
  /// quarantinable failure instead of a hung sweep.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Cooperative computation budget (0 = unlimited, the default): run()
  /// stops cleanly after simulating `n` computations of the stream and
  /// returns the partial result — `n` output samples and the Activity of
  /// exactly those master periods. The check shares the per-computation
  /// stop point with set_deadline, but unlike the deadline it is not a
  /// failure: it is the search layer's prefix-run primitive (evaluate a
  /// short, deterministic prefix of the shared stimulus to bound a
  /// configuration's power before committing to a full-depth run). The
  /// budget applies per run() / run_time_sliced() call (run_sliced()
  /// ignores it) and the simulated prefix is bit-identical to the first `n`
  /// computations of an unbudgeted run.
  void set_computation_budget(std::size_t n) { computation_budget_ = n; }

 private:
  friend class SlicedKernel;  // sim/sliced.cpp: the BitSliced engine

  /// The checks run_sliced() and run_time_sliced() share (BitSliced mode,
  /// no observer or heatmap, 1..kMaxStreams streams of equal length and
  /// `inputs` words per computation); returns the streams' addresses. `fn`
  /// names the caller in the error.
  std::vector<const InputStream*> checked_bundle(
      std::span<const InputStream> streams, std::size_t inputs,
      const char* fn) const;
  /// The bit-sliced pass behind run_sliced() and run_time_sliced():
  /// `chunks` chunks per stream (1 = lockstep). A `time_sliced` pass starts
  /// from reset, honours the computation budget and gives the probe
  /// per-group rows; otherwise it is run_sliced(): it continues from the
  /// persistent plane state and ignores the budget.
  std::vector<SimResult> run_chunked(
      const std::vector<const InputStream*>& streams, std::size_t chunks,
      const std::vector<dfg::ValueId>& input_order,
      const std::vector<dfg::ValueId>& output_order, bool time_sliced);
  void settle(Activity& act, bool count);
  void settle_oblivious(Activity& act, bool count);
  void settle_event(Activity& act, bool count);
  std::uint64_t eval_comp(const rtl::Component& c) const;
  void write_net(rtl::NetId net, std::uint64_t value, Activity& act, bool count);
  /// Enqueue `cid` in its level's bucket unless it is already pending
  /// (event-driven mode only).
  void enqueue(rtl::CompId cid);
  /// Enqueue every combinational reader of `net`.
  void mark_fanout_dirty(rtl::NetId net);
  /// Enqueue every combinational component (the full re-evaluation the
  /// preamble of each run() needs: before the first settle no net has ever
  /// been written, yet components may produce nonzero outputs from
  /// all-zero inputs).
  void mark_all_dirty();

  const rtl::Design* design_;
  const rtl::DesignTables* tab_;  // design_->tables
  Mode mode_;
  // Scalar state (empty in BitSliced mode).
  std::vector<std::uint64_t> net_value_;
  std::vector<std::uint64_t> storage_q_;  // by CompId (storage comps only)

  // Event-driven worklist (empty in the other modes), bucketed by level in
  // one array: level L's pending components fill
  // queue_[level_offset[L] .. bucket_end_[L]), in enqueue order. A component
  // is queued at most once (in_queue_), so a level's slice never overflows.
  std::vector<rtl::CompId> queue_;
  std::vector<rtl::CompId*> bucket_end_;  // by level
  std::vector<std::uint8_t> in_queue_;      // by CompId
  std::size_t pending_ = 0;

  // Capture scratch, hoisted out of the step loop.
  std::vector<std::pair<rtl::CompId, std::uint64_t>> captures_;

  // Whether the step loop walks the design's static phase-edge schedule
  // (rtl::DesignTables::edge_captures and edge_clock_events) instead of
  // re-deriving the capture set from the live load nets at every edge. The
  // Oblivious kernel always re-derives — it is the semantic reference the
  // schedule is differentially tested against — and so does every kernel
  // on a hand-built netlist that drives a load pin from the datapath.
  bool static_edges_ = false;

  KernelStats kernel_stats_;
  StepObserver observer_;
  PowerProbe* probe_ = nullptr;
  PhaseHeatmap* heatmap_ = nullptr;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  std::size_t computation_budget_ = 0;  // 0 = unlimited

  // BitSliced kernel state (empty in the scalar modes). Plane values of
  // net i live in net_planes_[plane_offset_[i] .. plane_offset_[i+1]);
  // they persist across run_sliced() calls exactly as net_value_ persists
  // across run() calls.
  std::vector<std::uint32_t> plane_offset_;
  std::vector<std::uint64_t> net_planes_;
};

}  // namespace mcrtl::sim
