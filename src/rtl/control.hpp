// Controller model: control signals and their per-step value tables.
//
// The controller is a FSM stepping through the computation period. Each
// control signal (mux select, ALU function select, storage load enable)
// has a value per local step 1..period. Two delivery disciplines exist:
//
//  * direct  — the line carries table[t] in step t (conventional designs);
//  * latched — the line belongs to a clock partition k and is latched at
//    partition boundaries (paper §3.2): during step t it still carries the
//    value of the most recent step t' <= t with phase(t') == k. This keeps
//    mux/ALU control of a DPM stable through the other partitions' phases,
//    so the DPM's combinational logic sees at most one transition wave per
//    CLK_k cycle.
//
// Latching is functionally transparent because a partition's datapath only
// *acts* on its control in its own phase, where table[t] and the latched
// value coincide.
#pragma once

#include <string>
#include <vector>

#include "rtl/clock.hpp"
#include "rtl/netlist.hpp"

namespace mcrtl::rtl {

/// Role of a control signal (for reporting/power attribution).
enum class SignalRole : std::uint8_t { MuxSelect, FuncSelect, Load };

/// One controller output line (bound to one ControlSource component).
struct ControlSignal {
  unsigned index = 0;
  std::string name;
  SignalRole role = SignalRole::MuxSelect;
  unsigned width = 1;     ///< bits
  bool latched = false;   ///< latched-at-partition-boundary discipline
  int partition = 1;      ///< owning clock partition (for latched signals)
  CompId source;          ///< the ControlSource component in the netlist
};

/// The control table over one computation period.
class ControlPlan {
 public:
  explicit ControlPlan(const ClockScheme& clocks);

  /// Reserve room for `signals` signals.
  void reserve(std::size_t signals);

  /// Define a signal; values default to 0 for all steps.
  unsigned add_signal(std::string name, SignalRole role, unsigned width,
                      bool latched, int partition, CompId source);

  /// Set the tabulated value of signal `sig` at local step t (1..period).
  void set_value(unsigned sig, int t, std::uint64_t value);
  /// Tabulated (pre-latching) value.
  std::uint64_t table_value(unsigned sig, int t) const;

  /// The value the line physically carries during step t, honouring the
  /// latched discipline. Steps wrap across computations: for a latched
  /// signal at a step before its partition's first pulse, the value from
  /// the *previous* period's last pulse is returned.
  std::uint64_t line_value(unsigned sig, int t) const;

  /// line_value() of every signal at every step, step-major: the value of
  /// signal s during step t (1..period) is element (t-1)·signals + s.
  std::vector<std::uint64_t> line_values() const;

  /// How controller outputs behave in don't-care steps.
  enum class FillPolicy {
    /// The line keeps its previous value — an idealized glitch-free
    /// controller (what a latched output would do anyway).
    HoldLast,
    /// The line takes the *next* cared value as soon as the FSM leaves the
    /// last cared state — realistic Moore-FSM decode, where don't-care
    /// states minimize into neighbouring output values. This is the model
    /// under which the paper's §3.2 control-line latching has its effect:
    /// without latching, selects of a partition change during the other
    /// partitions' phases and fire extra combinational waves.
    NextCare,
  };

  /// Fill don't-care steps of `sig` according to `policy`. `care` flags per
  /// step (index 1..period) mark where the tabulated value matters; cared
  /// values are never changed.
  void hold_fill(unsigned sig, const std::vector<bool>& care,
                 FillPolicy policy = FillPolicy::HoldLast);

  const ClockScheme& clocks() const { return clocks_; }
  const std::vector<ControlSignal>& signals() const { return signals_; }
  const ControlSignal& signal(unsigned sig) const;
  int period() const { return clocks_.period(); }

  /// Total controller output bits (used by the area model).
  unsigned total_bits() const;

 private:
  /// The step whose tabulated value signal `sig` carries during step t.
  int line_step(const ControlSignal& s, int t) const;

  ClockScheme clocks_;  // by value: the plan outlives its builder
  std::vector<ControlSignal> signals_;
  /// Tabulated values, signal-major: values_[sig·period + t-1].
  std::vector<std::uint64_t> values_;
};

}  // namespace mcrtl::rtl
