// Top-level synthesis facade: one call from (graph, schedule, style) to a
// simulatable Design. The five styles are exactly the five rows of the
// paper's Tables 1–4.
#pragma once

#include <memory>
#include <string>

#include "core/integrated.hpp"
#include "core/split.hpp"
#include "rtl/design.hpp"

namespace mcrtl::core {

/// The design styles compared in the paper's evaluation.
enum class DesignStyle {
  ConventionalNonGated,  ///< single clock, DFFs, free-running clock pins
  ConventionalGated,     ///< single clock, DFFs, clock gated by load enables
  MultiClock,            ///< the paper's scheme: n clocks, latches, latched
                         ///< control ("1 Clock" = n == 1: latch-based
                         ///< allocation without partitioning)
};

/// Which multi-clock allocation algorithm to run (§4.1 vs §4.2).
enum class AllocMethod { Integrated, Split };

struct SynthesisOptions {
  DesignStyle style = DesignStyle::MultiClock;
  int num_clocks = 1;  ///< only meaningful for MultiClock
  AllocMethod method = AllocMethod::Integrated;
  /// Ablations (defaults reproduce the paper's scheme):
  bool use_latches = true;       ///< multi-clock memory elements
  bool latched_control = true;   ///< §3.2 control-line latching
  bool insert_transfers = true;  ///< §4.2 transfer temporaries (integrated)
  /// Register-merging strategy of the integrated method (the ActivityAware
  /// extension is profiled on random inputs; see core/integrated.hpp).
  StorageBinding storage_binding = StorageBinding::LeftEdge;
  /// Insert operand-isolation AND gates in front of every ALU (§2.2's
  /// "extra logic to isolate ALUs"); applicable to any style, off by
  /// default (the paper's gated baseline uses clock gating only).
  bool operand_isolation = false;
  /// Interconnect realization (the "MUX/BUS collapsing" choice of §4.1):
  /// gate-tree muxes (default) or shared tri-state buses.
  rtl::BuildOptions::Interconnect interconnect =
      rtl::BuildOptions::Interconnect::Mux;
  alloc::FuBindingOptions fu;

  bool operator==(const SynthesisOptions&) const = default;
};

/// A fully synthesized, simulatable design with its allocation artefacts.
struct Synthesized {
  SynthesisResult alloc;  ///< owns the (possibly transformed) graph/schedule
  std::unique_ptr<rtl::Design> design;
  SplitCleanupStats cleanup;  ///< populated for the Split method
};

/// Paper-style row label for a style/clock-count combination.
std::string style_label(DesignStyle style, int num_clocks);

/// Stable 64-bit hash of every SynthesisOptions field. Two options with the
/// same hash synthesize the same design for the same (graph, schedule):
/// the search layer's deduplication and its persistent result cache key on
/// it.
std::uint64_t config_hash(const SynthesisOptions& opts);

/// Hash of the SynthesisOptions fields the allocation half of synthesize()
/// reads. Options with equal hashes differ only in how the design is built
/// (control latching, operand isolation, interconnect, conventional clock
/// gating) and share one allocation of a given graph and schedule.
std::uint64_t allocation_hash(const SynthesisOptions& opts);

/// Hash of the SynthesisOptions fields that change how a design simulates.
/// Options with equal hashes differ only in the interconnect, which builds
/// a Bus where the other builds a Mux, with the same inputs, select and
/// output: every kernel evaluates the two alike, so for one graph, schedule
/// and stimulus both designs record the same Activity, and only their
/// capacitances (power, area) differ.
std::uint64_t simulation_hash(const SynthesisOptions& opts);

/// Retag every multi-source selector of `design` as the kind `ic` builds
/// (Mux or Bus). Between designs whose options share a simulation_hash()
/// that is the whole difference but for their names, so the retagged
/// design simulates and estimates power and area exactly like the other.
void set_interconnect(rtl::Design& design,
                      rtl::BuildOptions::Interconnect ic);

/// Synthesize `graph` (scheduled by `sched`) in the requested style.
Synthesized synthesize(const dfg::Graph& graph, const dfg::Schedule& sched,
                       const SynthesisOptions& opts);

/// synthesize() reusing the allocation of `base`, an earlier result for the
/// same graph and schedule with the same allocation_hash() as `opts`: only
/// the design is built, identical to a fresh synthesize(). The result owns
/// no allocation (its `alloc` is empty).
Synthesized synthesize(const Synthesized& base, const SynthesisOptions& opts);

}  // namespace mcrtl::core
