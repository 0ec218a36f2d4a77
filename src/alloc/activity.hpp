// Profile-guided, switching-aware register binding.
//
// The left-edge algorithm minimizes register *count*; it is blind to what
// the merged values look like. But every time a register's tenant changes,
// the write toggles Hamming(old, new) output bits, and those transitions
// ripple into every mux and ALU pin the register feeds. This extension
// profiles the behaviour on representative inputs to estimate per-value bit
// statistics, then packs values so that consecutive tenants of a register
// are statistically similar — same storage count as plain left-edge is not
// guaranteed, so the packer only accepts assignments that do not increase
// the register count beyond left-edge's result unless `allow_extra` is set.
//
// This is an extension beyond the paper (its allocation is activity-blind);
// the ablation `mcrtl experiment E15` measures what it buys on top of the
// multi-clock scheme.
#pragma once

#include <vector>

#include "alloc/binding.hpp"
#include "util/rng.hpp"

namespace mcrtl::alloc {

/// Per-value bit statistics from interpreting the behaviour on a random
/// input stream.
class ActivityProfile {
 public:
  /// Profile `graph` over `samples` random computations.
  static ActivityProfile measure(const dfg::Graph& graph, std::size_t samples,
                                 Rng& rng);

  /// P(bit b of value v == 1) over the profiled stream.
  double bit_probability(dfg::ValueId v, unsigned bit) const;

  /// Expected Hamming distance between independent draws of values a and b
  /// (the expected write-toggle cost of storing b after a in one register).
  double expected_hamming(dfg::ValueId a, dfg::ValueId b) const;

  unsigned width() const { return width_; }

 private:
  unsigned width_ = 0;
  /// ones_[value.index()][bit] = count of 1s observed; samples_ = total.
  std::vector<std::vector<std::uint64_t>> ones_;
  std::size_t samples_ = 0;
};

/// Options for the activity-aware packer.
struct ActivityBindingOptions {
  StorageKind kind = StorageKind::Register;
  bool partition_constrained = false;
  /// Accept more storage units than left-edge would create when that
  /// reduces expected toggles (off by default: area parity with left-edge).
  bool allow_extra = false;
  /// A fresh unit is opened when the cheapest compatible unit's expected
  /// toggle cost exceeds this many bits (only with allow_extra).
  double new_unit_threshold_bits = 1.5;
};

/// Storage allocation minimizing expected write toggles. Precondition:
/// `binding` has no storage assignments yet.
void allocate_storage_activity_aware(Binding& binding,
                                     const ActivityProfile& profile,
                                     const ActivityBindingOptions& opts);

}  // namespace mcrtl::alloc
