// Per-clock-domain energy accumulation fed straight from the simulator hot
// paths — the time-resolved half of the power-attribution subsystem
// (power::Attribution is the post-run, per-component half).
//
// The power layer prepares an EnergyModel: femtojoule weights per net
// bit-toggle (C_net·Vdd²), per delivered storage clock event (clock-pin +
// gating capacitance) and per clock-tree pulse, plus a clock-domain id for
// every net and storage element (0 = the global row: controller, IO,
// constants; 1..n = the paper's clock partitions).
//
// A step's energy row is class-weighted integer counts. The probe puts
// every net, storage clock and phase pulse into an energy class: the
// controller-driven items (phase pulses, storage clocks, then nets driven
// by a ControlSource or Constant) are numbered first, keyed by (exact fj
// bits, domain), then the data nets, keyed the same way. The hooks only add
// integer event counts to their class; end_step() weighs them once,
//
//     row[d] = Σ fj_c × n_c   over the classes c of domain d, in class order,
//
// and appends the row and its total (the row summed in domain order, for
// crest()) to the per-step record. Because the counts are integers, the
// row does not depend on the order in which a kernel met the events: the
// scalar kernels, the lockstep run_sliced() (which adds each class's count
// summed across lanes) and the per-group rows of run_time_sliced() produce
// the same counts and therefore the same row bits.
//
// run_time_sliced() runs G groups of lanes in lockstep, group g over a
// consecutive range of computations, and fills the record in its own
// layout (open_sliced()): local computation i's block holds, for each of
// its P steps, every domain's energy and the total in G group slots. It
// keeps a bit-sliced per-lane counter per data class, weighs the
// controller classes once per step (they count the same in every lane) and
// writes the rows straight into the block. The accessors map a step back
// to its group and slot, so no stitching pass copies the record.
//
// The folded (domain × period-step) profile is built on first use from the
// record; only a few consumers read it.
//
// Attachment follows the PhaseHeatmap pattern: explicit opt-in, nullptr to
// detach, no collection cost when detached (one pointer test on the
// already-taken "value changed" branch). The probe only observes — nothing
// it computes feeds back into the simulation, so results are bit-identical
// with a probe attached or not (asserted by tests/test_attribution.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace mcrtl::sim {

/// Energy weights and clock-domain map for one design, prepared by
/// power::Attribution::energy_model(). All energies are in femtojoules per
/// counted event; domains are 0 (global) .. num_domains (partitions).
struct EnergyModel {
  std::vector<double> net_fj;  ///< by NetId: fJ per bit toggle (C_net·Vdd²)
  std::vector<std::uint32_t> net_domain;  ///< by NetId: 0..n
  /// By NetId: 1 for a net driven by a ControlSource or a Constant — the
  /// same word in every lane of a sliced run. Empty means none.
  std::vector<std::uint8_t> net_controller;
  /// By CompId (zero for non-storage): fJ per delivered clock event —
  /// clock-pin capacitance plus, for gated storage, the gate-event charge.
  std::vector<double> storage_clock_fj;
  std::vector<std::uint32_t> storage_domain;  ///< by CompId: 0..n
  /// By phase 1..n (index 0 unused): clock-tree fJ per phase pulse,
  /// attributed to the pulsing phase's own domain.
  std::vector<double> phase_pulse_fj;
  int num_domains = 0;  ///< n — the design's clock-phase count
  int period = 0;       ///< master period P (steps per computation)
};

/// Accumulates per-step, per-domain energy during a run. One probe serves
/// one run (or one run_sliced batch); call reset() to reuse it.
class PowerProbe {
 public:
  explicit PowerProbe(const EnergyModel& model);

  // ---- hot-path hooks (simulator-only callers) --------------------------

  /// `flips` bit toggles on `net` this step (scalar kernels), or the
  /// aggregate toggle count across the counted lanes (sliced kernel).
  void add_net(std::size_t net, std::uint64_t flips) {
    counts_[net_class_[net]] += flips;
  }
  /// `events` clock events delivered to storage element `comp` (1 for the
  /// scalar kernels, the lane count for the sliced kernel).
  void add_storage_clock(std::size_t comp, std::uint64_t events = 1) {
    counts_[storage_class_[comp]] += events;
  }
  /// One pulse of phase `phase`'s clock-tree root (× `lanes` streams).
  void add_phase_pulse(int phase, std::uint64_t lanes = 1) {
    counts_[phase_class_[static_cast<std::size_t>(phase)]] += lanes;
  }
  /// Close the current step: weigh its counts into the next row of the
  /// record. A kernel that weighs the controller classes once per period
  /// step passes their row `ctrl_row` (weigh_counts() of them, n+1
  /// domains): it stands in for their counts, which are zero, and the data
  /// classes are weighed on top in class order — the same row.
  void end_step(const double* ctrl_row = nullptr);

  // ---- the time-sliced kernel's group rows ------------------------------

  std::size_t num_classes() const { return class_fj_.size(); }
  /// Classes 0 .. num_controller_classes()-1 count controller-driven
  /// events only; the rest count data-net toggles.
  std::size_t num_controller_classes() const { return controller_classes_; }
  std::uint32_t net_class(std::size_t net) const { return net_class_[net]; }
  double class_fj(std::size_t c) const { return class_fj_[c]; }
  std::uint32_t class_domain(std::size_t c) const { return class_domain_[c]; }
  /// Weigh the counts of classes 0 .. `classes`-1 added since the last
  /// close into `row` (n+1 domains) and clear them — with every class, the
  /// row end_step() appends.
  void weigh_counts(double* row, std::size_t classes);
  /// Restart the record as the time-sliced layout of `first.size()`
  /// groups over `computations` computations: group g runs local
  /// computation i as computation first[g] + i, for `local` local
  /// computations, and holds the steps of computations [g·per,
  /// min((g+1)·per, computations)). Every block must be filled before the
  /// results are read.
  void open_sliced(std::size_t computations, std::size_t per,
                   std::vector<std::size_t> first, std::size_t local);
  /// Block of local computation `i` of an open_sliced() record, to fill:
  /// step t (1..P) starts at entry (t-1)·(n+2)·G, holding the energy of
  /// domain d (0..n) of group g at entry d·G + g and its total — the
  /// energies summed in domain order — at (n+1)·G + g. Slots of steps that
  /// a group does not hold are ignored.
  double* sliced_block(std::size_t i) {
    return rows_.get() + i * static_cast<std::size_t>(model_->period) *
                             (domains_ + 1) * groups_;
  }

  // ---- results ----------------------------------------------------------

  const EnergyModel& model() const { return *model_; }
  int num_domains() const { return model_->num_domains; }
  int period() const { return model_->period; }
  std::size_t steps() const { return steps_; }

  /// Energy of domain `d` (0..n) in step `step` (0-based), fJ.
  double step_fj(std::size_t step, int d) const {
    return rows_[slot(step) + static_cast<std::size_t>(d) * groups_];
  }
  /// Whole-design energy of step `step` (its row summed in domain order),
  /// fJ.
  double step_total_fj(std::size_t step) const {
    return rows_[slot(step) + domains_ * groups_];
  }
  /// Folded (period-modulo) energy of domain `d` at period step t (1..P),
  /// summed over the whole run in step order.
  double profile_fj(int d, int period_step) const;
  /// Total energy of domain `d` over the run, fJ.
  double domain_total_fj(int d) const;
  /// Whole-design total over the run, fJ.
  double total_fj() const;
  /// Whole-design per-step energies (fJ), one entry per simulated step.
  std::vector<double> step_energies() const;
  /// Crest factor of the whole-design per-step energy: peak / mean.
  /// 0 when the run had no steps or burned no energy.
  double crest() const;

  /// Clear the record and any pending counts.
  void reset();

 private:
  /// Add fj × count of classes [first, last) to `row` in class order,
  /// clearing their counts.
  void add_counts(double* row, std::size_t first, std::size_t last);
  /// Entry of step `step`'s domain-0 energy in rows_.
  std::size_t slot(std::size_t step) const;
  /// Call f(step, slot(step)) for every step, in step order.
  template <class F>
  void each_step(F&& f) const;

  const EnergyModel* model_;
  std::size_t domains_;  ///< n + 1
  // The energy classes: weight and domain by class id, and the class of
  // every net, storage element (by CompId) and phase (index 0 unused).
  std::vector<double> class_fj_;
  std::vector<std::uint32_t> class_domain_;
  std::size_t controller_classes_ = 0;
  std::vector<std::uint32_t> net_class_;
  std::vector<std::uint32_t> storage_class_;
  std::vector<std::uint32_t> phase_class_;
  std::vector<std::uint64_t> counts_;  ///< by class, the open step

  // The record, in a buffer of capacity_ entries that is never zero-filled:
  // groups_ groups of per_ computations (see open_sliced()). An appended
  // record is one group whose steps' rows of n+2 entries follow each other.
  std::unique_ptr<double[]> rows_;
  std::size_t capacity_ = 0;
  std::size_t steps_ = 0;
  std::size_t groups_ = 1;
  std::size_t per_ = 0;
  std::vector<std::size_t> first_;
  /// (n+1) × P, row-major, folded from the record on first use.
  mutable std::vector<double> profile_;
  mutable bool profile_ready_ = false;
};

}  // namespace mcrtl::sim
