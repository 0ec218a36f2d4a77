// Functional-unit (ALU) binding: the "iteratively greedy method to merge
// operations according to their partition" of the paper's §4.2 step 3.
//
// Operations scheduled in different steps may share an ALU; in multi-clock
// designs, only operations of the same clock partition may merge (so that
// each ALU belongs to exactly one DPM). The greedy merge prefers ALUs that
// already implement the operation's function — the paper observes that
// narrow function sets like (+-) synthesize to much smaller logic than wide
// multifunction ALUs, so gratuitous function-set growth costs area and
// capacitance.
#pragma once

#include "alloc/binding.hpp"

namespace mcrtl::alloc {

/// Options for FU binding.
struct FuBindingOptions {
  /// Only merge ops within the same clock partition (multi-clock designs).
  bool partition_constrained = false;
  /// Cost of adding a new function to an existing ALU, relative to opening
  /// a fresh single-function ALU. < 1 prefers multifunction ALUs (fewer,
  /// fatter units, the paper's resource-minimal style); >= 1 prefers
  /// single-function ALUs.
  double function_add_cost = 0.55;
  /// Never let one ALU implement more than this many distinct functions.
  unsigned max_functions = 4;

  bool operator==(const FuBindingOptions&) const = default;
};

/// Bind every node of the binding's schedule to a functional unit.
/// Precondition: `binding` has no FU assignments yet.
void allocate_func_units_greedy(Binding& binding, const FuBindingOptions& opts);

}  // namespace mcrtl::alloc
