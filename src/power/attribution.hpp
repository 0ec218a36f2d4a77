// Hierarchical power attribution: per-net energy accounting rolled up to
// components, clock domains and DFG-level operations.
//
// The estimator (power/estimator.hpp) answers "how many mW does this design
// burn, by category?" from a whole-run Activity record. This module answers
// the profiler questions behind it: *which* component, serving *which* DFG
// operation, in *which* clock domain, burned the energy — and *when* within
// the master period. Two coupled pieces:
//
//  * `Attribution` — built once per design from the same TechLibrary the
//    estimator uses. It precomputes a per-net energy weight
//    (net_cap * Vdd^2, fJ per bit toggle), a per-storage-element clock
//    event weight (clock pin cap * width, plus the gate event cap when the
//    pin is gated) and a per-phase tree pulse weight
//    (clock_tree_cap(sinks) * Vdd^2), mirroring estimate_power()'s terms
//    exactly so the attributed total reconciles with the estimator's mW
//    figures (power_mw = total_fj * f_master / steps * 1e-12).
//  * `attribute(Activity)` — weights a finished run's toggle counts into an
//    AttributionReport: one row per component (plus one pseudo-row per
//    clock-tree root), each carrying its group (fu/mux/iso/storage/...),
//    clock domain (0 = global, 1..n = partition) and the synthesis-time
//    DFG-op label recorded in Design::comp_op. Integer toggle counts are
//    conserved exactly: the component rows' toggles sum to the Activity's
//    total net toggles, and every fJ of the report total is attributed to
//    exactly one row.
//
// For time-resolved views, `energy_model()` exports the same weights as a
// sim::EnergyModel, plus which nets the controller or a constant drives,
// and a sim::PowerProbe weighs each step's per-class event counts into
// per-domain energies while the simulator runs (see sim/power_probe.hpp) —
// the probe's
// whole-run totals agree with attribute() on the same Activity to FP
// rounding. `publish_power_tracks()` turns a probe's waveform into obs
// counter tracks so the per-domain power shows up as counter series in the
// Chrome trace next to the host-time spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "power/tech_library.hpp"
#include "rtl/design.hpp"
#include "sim/activity.hpp"
#include "sim/power_probe.hpp"

namespace mcrtl::power {

/// One leaf of the attribution hierarchy: a netlist component, or (for
/// group "clock_tree") one phase's clock distribution root.
struct AttributionRow {
  std::string component;  ///< component name, or "clk<p>.tree" for tree rows
  std::string group;      ///< fu|mux|iso|storage|control|io|const|clock_tree
  std::string op;         ///< DFG-op label (Design::comp_op); group if none
  int domain = 0;         ///< 0 = global, 1..n = clock partition
  std::uint64_t toggles = 0;  ///< output-net bit toggles (tree rows: pulses)
  std::uint64_t clock_events = 0;  ///< storage rows: delivered clock events
  double energy_fj = 0.0;  ///< everything attributable to this row, incl.
                           ///< clock pin + gate energy for storage rows
};

/// Category sums matching estimate_power()'s PowerBreakdown fields, in fJ.
/// Unlike the rows (where a storage element's clock-gate energy stays with
/// the element), gate energy counts as clock_tree here, exactly as the
/// estimator books it.
struct CategoryEnergy {
  double combinational_fj = 0.0;
  double storage_fj = 0.0;
  double clock_tree_fj = 0.0;
  double control_fj = 0.0;
  double io_fj = 0.0;
};

struct AttributionReport {
  /// Rows sorted hottest-first (energy desc, then name asc — deterministic
  /// under FP ties). Zero-energy, zero-toggle components are omitted.
  std::vector<AttributionRow> rows;
  /// Energy per clock domain, index 0 = global, 1..n = partitions.
  std::vector<double> domain_fj;
  CategoryEnergy category;
  double total_fj = 0.0;           ///< == sum of rows[].energy_fj
  std::uint64_t total_toggles = 0; ///< == sum of Activity::net_toggles
  std::uint64_t steps = 0;         ///< master cycles of the attributed run

  /// Average power of the whole report in mW at master frequency `f_hz`.
  double total_mw(double f_hz) const;

  /// Flamegraph collapsed-stack lines: "domain;component;op <fJ>\n" with
  /// integer-rounded fJ values, one line per row, hottest first. Feed to
  /// flamegraph.pl / speedscope / inferno as a folded-stacks file.
  std::string collapsed_stacks() const;

  /// Human-readable top-k hotspot table (util::table).
  std::string top_table(std::size_t k) const;
};

/// Per-design energy weights + the roll-up maps. Construct once per
/// synthesized design; `attribute()` is then a pure function of Activity.
class Attribution {
 public:
  Attribution(const rtl::Design& design, const TechLibrary& tech,
              double vdd = 4.65);

  /// The same weights in the simulator-facing form consumed by
  /// sim::PowerProbe. Valid as long as this Attribution is alive.
  const sim::EnergyModel& energy_model() const { return model_; }

  /// Weight a whole-run Activity record into the hierarchical report.
  AttributionReport attribute(const sim::Activity& activity) const;

 private:
  const rtl::Design* design_;
  sim::EnergyModel model_;
  /// Storage clock energy split the probe does not need but the category
  /// accounting does: pin (storage category) vs gate (clock_tree category),
  /// fJ per delivered clock event, indexed by CompId.
  std::vector<double> pin_fj_;
  std::vector<double> gate_fj_;
};

/// Publish a probe's per-domain waveform as obs counter tracks named
/// "power.global" / "power.clk<p>" (fJ per master cycle, timestamped by
/// step index). No-op while obs collection is disabled.
void publish_power_tracks(const sim::PowerProbe& probe);

/// Display label of a clock domain: "global" for 0, "clk<d>" otherwise.
std::string domain_label(int domain);

}  // namespace mcrtl::power
