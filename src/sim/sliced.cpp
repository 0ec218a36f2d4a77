// Mode::BitSliced — the batched settle kernel.
//
// One pass advances up to 64 lanes through the design at once. Every net's
// value is held as `width` bit-slice planes (util/bits.hpp layout: bit s of
// plane b is bit b of lane s's word), so a plane-wise SWAR operation
// computes all lanes at once: logic ops are one op per plane, add/sub/
// compare ripple a carry lane mask across the planes, muxes blend planes
// under per-lane select masks. Multiplication, division and data-dependent
// shifts drop to a transpose64 -> scalar eval_op per lane -> transpose64
// fallback — exact, and rare enough in the paper's datapaths not to matter.
//
// The lanes come from one of two layouts:
//
//  * run_sliced() — a Monte-Carlo bundle: lane s runs stream s from its
//    first computation and counts everything; one SimResult per lane.
//  * run_time_sliced() — one long stream cut into up to 64 consecutive
//    chunks. Lane k runs chunk k preceded by one uncounted warm-up
//    computation (exact by the static one-period warm-up check), and a
//    per-lane count mask keeps warm-ups and the trailing computation out of
//    every count; the lanes' records are stitched back into one SimResult.
//
// Per-lane toggle exactness is the contract: lane s of the result must be
// bit-identical to an independent EventDriven run. Toggle counts therefore
// cannot be folded into one popcount per plane — instead each changed write
// compresses its (count-masked) XOR-diff planes into a bit-sliced per-lane
// sum (slice_popcount_planes, a carry-save adder network) and adds that into
// a per-net "vertical" counter whose planes are again bit-sliced across
// lanes (slice_counter_add). At the end of the run one transpose64 per
// counter unpacks exact per-lane totals (or a popcount per plane sums them).
//
// The kernel reuses the event-driven machinery the Simulator constructor
// precomputes: the levelized fanout index, the tabulated controller deltas
// and the static phase-edge schedules. Control lines, clock events and phase
// pulses are controller-driven and therefore identical across lanes — they
// are counted once per master period and scaled by each lane's counted
// computations.
#include <algorithm>
#include <cstring>

#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace mcrtl::sim {

using rtl::CompId;
using rtl::CompKind;
using rtl::NetId;

namespace {
// Vertical-counter depth: per-net per-lane toggle totals up to 2^48.
// A run would need ~2^42 master cycles to overflow a 64-bit-wide net.
constexpr unsigned kCounterPlanes = 48;

// Total count across all lanes of a bit-sliced per-lane value: plane j holds
// bit j of every lane's count, so the sum is sum_j popcount(planes[j]) << j.
inline std::uint64_t lanes_total(const std::uint64_t* planes, unsigned k) {
  std::uint64_t total = 0;
  for (unsigned j = 0; j < k; ++j) {
    total += static_cast<std::uint64_t>(popcount64(planes[j])) << j;
  }
  return total;
}

/// Bit i of `b` (0..255) moved to bit 0 of byte i.
inline std::uint64_t spread_bits_to_bytes(std::uint64_t b) {
  const std::uint64_t x = (b * 0x0101010101010101ULL) & 0x8040201008040201ULL;
  return (((x + 0x7F7F7F7F7F7F7F7FULL) | x) & 0x8080808080808080ULL) >> 7;
}

/// The bit-sliced per-lane toggle counts of one write
/// (slice_popcount_planes); k == 0 when no counted lane toggled.
struct LaneSums {
  std::uint64_t p[7];
  unsigned k = 0;
};

/// One lane's share of a pass: local computation i runs computation
/// `first + i` of `*stream` (the last one repeats past the end), and
/// computations [count_begin, count_end) of the stream are counted.
struct SliceLane {
  const InputStream* stream = nullptr;
  std::size_t first = 0;
  std::size_t count_begin = 0;
  std::size_t count_end = 0;
};
}  // namespace

/// The per-run engine. Constructed by Simulator::run_sliced() and
/// run_time_sliced(); reads the Simulator's precomputed schedules and keeps
/// the persistent plane state in the Simulator (net_planes_), so repeated
/// run_sliced() calls behave like repeated scalar run() calls.
class SlicedKernel {
 public:
  /// `local_comps` computations per lane. `time_sliced` gives an attached
  /// PowerProbe exact per-lane rows (stitched by stitched_result()) instead
  /// of the aggregate across lanes.
  SlicedKernel(Simulator& sim, std::vector<SliceLane> lanes,
               std::size_t local_comps, bool time_sliced)
      : sim_(sim),
        design_(*sim.design_),
        nl_(design_.netlist),
        comps_(nl_.components()),
        lanes_(std::move(lanes)),
        n_(lanes_.size()),
        lane_mask_(n_ == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << n_) - 1),
        local_comps_(local_comps),
        time_sliced_(time_sliced),
        per_lane_probe_(time_sliced && sim.probe_ != nullptr),
        net_counters_(nl_.num_nets() * kCounterPlanes, 0),
        storage_counters_(nl_.num_components() * kCounterPlanes, 0),
        uniform_(nl_.num_nets(), 0),
        uniform_scalar_(nl_.num_nets(), 0),
        buckets_(sim.buckets_.size()),
        queued_(nl_.num_components(), 0) {
    for (const auto& net : nl_.nets()) {
      const CompKind k = nl_.comp(net.driver).kind;
      // Controller lines and constants carry the same word in every lane,
      // so selects fed by them read one lane instead of building masks.
      if (k == CompKind::ControlSource || k == CompKind::Constant) {
        uniform_[net.id.index()] = 1;
        // Seed the scalar cache from the persistent plane state (planes
        // survive across run_sliced() calls on one Simulator).
        uniform_scalar_[net.id.index()] =
            slice_extract_lane(planes(net.id), width(net.id), 0);
      }
    }
    // Lane l counts local computation i iff it falls in its counted range.
    count_mask_.assign(local_comps_, 0);
    for (std::size_t l = 0; l < n_; ++l) {
      const SliceLane& lane = lanes_[l];
      for (std::size_t g = lane.count_begin; g < lane.count_end; ++g) {
        count_mask_[g - lane.first] |= std::uint64_t{1} << l;
      }
    }
    if (per_lane_probe_) {
      const EnergyModel& m = sim.probe_->model();
      domains_ = static_cast<std::size_t>(m.num_domains) + 1;
      lane_row_.assign(domains_ * 64, 0.0);
      eval_gen_.assign(nl_.num_components(), 0);
      comp_changed_.assign(nl_.num_components(), 0);
      comp_sums_.resize(nl_.num_components());
      std::size_t computations = 0;
      for (const SliceLane& lane : lanes_) {
        computations = std::max(computations, lane.count_end);
      }
      waveform_.resize(computations *
                       static_cast<std::size_t>(design_.clocks.period()) *
                       domains_);
    }
  }

  /// Simulate every lane for `local_comps` computations.
  void simulate(const std::vector<dfg::ValueId>& input_order,
                const std::vector<dfg::ValueId>& output_order);
  /// One SimResult per lane (run_sliced), plus per-lane heatmaps.
  std::vector<SimResult> lane_results();
  /// The lanes' counted records concatenated in lane (= time) order
  /// (run_time_sliced), plus the probe waveform and heatmap.
  SimResult stitched_result();

 private:
  std::uint64_t* planes(NetId net) {
    return sim_.net_planes_.data() + sim_.plane_offset_[net.index()];
  }
  unsigned width(NetId net) const {
    return sim_.plane_offset_[net.index() + 1] -
           sim_.plane_offset_[net.index()];
  }
  /// Scalar word shared by every lane of a uniform net. Maintained by
  /// write_broadcast — the only writer of ControlSource/Constant nets — so
  /// select decodes read one word instead of re-extracting a lane.
  std::uint64_t uniform_value(NetId net) const {
    return uniform_scalar_[net.index()];
  }

  // The worklist holds (component, lanes) entries. A component is queued
  // for a lane at the first write that changes one of its inputs in that
  // lane, so the entries carrying lane l are in exactly the order the
  // scalar kernel's worklist would pop them in lane l's own run. It is
  // evaluated once, at its first entry; each entry then publishes the
  // write for its own lanes — which puts every lane's probe additions in
  // the scalar event order. Without a per-lane probe the order is
  // irrelevant and every component gets a single all-lanes entry.
  struct Entry {
    CompId cid;
    std::uint64_t lanes;
  };
  void mark_fanout_dirty(NetId net, std::uint64_t lanes) {
    if (!per_lane_probe_) lanes = lane_mask_;
    const std::uint32_t begin = sim_.fanout_offset_[net.index()];
    const std::uint32_t end = sim_.fanout_offset_[net.index() + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      const CompId cid = sim_.fanout_[k];
      const std::uint64_t fresh = lanes & ~queued_[cid.index()];
      if (fresh == 0) continue;
      queued_[cid.index()] |= fresh;
      buckets_[static_cast<std::size_t>(sim_.level_[cid.index()])].push_back(
          {cid, fresh});
      ++pending_;
    }
  }
  void mark_all_dirty() {
    for (CompId cid : sim_.comb_order_) {
      if (queued_[cid.index()] != 0) continue;
      queued_[cid.index()] = lane_mask_;
      buckets_[static_cast<std::size_t>(sim_.level_[cid.index()])].push_back(
          {cid, lane_mask_});
      ++pending_;
    }
  }

  void bump(std::uint64_t* counter, const LaneSums& s) {
    MCRTL_CHECK_MSG(slice_counter_add(counter, kCounterPlanes, s.p, s.k),
                    "bit-sliced toggle counter overflow");
  }

  /// Commit `val` planes (masked to the active lanes) into `net`, counting
  /// the toggles of the lanes in `count` into `sums` and the net's
  /// counter. Returns the lanes whose value changed.
  std::uint64_t commit(NetId net, const std::uint64_t* val,
                       std::uint64_t count, LaneSums& sums) {
    std::uint64_t* old = planes(net);
    const unsigned w = width(net);
    std::uint64_t diff[64];
    std::uint64_t any = 0;
    // Commit as we diff: XORing a zero diff is a no-op, so the unchanged
    // case needs no second pass either way.
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t d = (val[b] & lane_mask_) ^ old[b];
      diff[b] = d & count;
      any |= d;
      old[b] ^= d;
    }
    sums.k = (any & count) != 0 ? slice_popcount_planes(diff, w, sums.p) : 0;
    if (sums.k != 0) {
      bump(net_counters_.data() + net.index() * kCounterPlanes, sums);
    }
    return any;
  }

  /// Fold a write's counted toggles of `lanes` into the attached probe.
  void probe_net(NetId net, const LaneSums& s, std::uint64_t lanes) {
    if (s.k == 0 || sim_.probe_ == nullptr) return;
    if (!per_lane_probe_) {
      sim_.probe_->add_net(net.index(), lanes_total(s.p, s.k));
      return;
    }
    const EnergyModel& m = sim_.probe_->model();
    const double fj = m.net_fj[net.index()];
    double* row = lane_row_.data() + m.net_domain[net.index()] * 64;
    // Spread the bit-sliced sums into one count byte per lane, eight lanes
    // per word, then add fj x count to every lane's row in a loop the
    // compiler vectorizes; fj x 0 adds nothing.
    std::uint64_t words[8] = {};
    for (unsigned j = 0; j < s.k; ++j) {
      const std::uint64_t p = s.p[j] & lanes;
      for (unsigned g = 0; g < 8; ++g) {
        words[g] |= spread_bits_to_bytes((p >> (8 * g)) & 0xFF) << j;
      }
    }
    std::uint8_t cnt[64];
    for (unsigned g = 0; g < 8; ++g) {
      for (unsigned i = 0; i < 8; ++i) {
        cnt[8 * g + i] = static_cast<std::uint8_t>(words[g] >> (8 * i));
      }
    }
    for (unsigned l = 0; l < 64; ++l) {
      row[l] += fj * static_cast<double>(cnt[l]);
    }
  }
  /// Add one controller-driven event of `fj` in `domain` to every lane.
  void probe_every_lane(std::uint32_t domain, double fj) {
    double* row = lane_row_.data() + static_cast<std::size_t>(domain) * 64;
    for (unsigned l = 0; l < 64; ++l) row[l] += fj;
  }

  /// The generic write of every control/input/preamble write: commit,
  /// probe, dirty the fanout.
  void write_net(NetId net, const std::uint64_t* val, std::uint64_t count) {
    LaneSums sums;
    const std::uint64_t changed = commit(net, val, count, sums);
    if (changed == 0) return;
    probe_net(net, sums, lane_mask_);
    mark_fanout_dirty(net, changed);
  }

  /// Write a controller line or constant: the same word in every lane.
  void write_broadcast(NetId net, std::uint64_t value, std::uint64_t count) {
    std::uint64_t buf[64];
    slice_broadcast(value, width(net), buf);
    const std::uint64_t old = uniform_scalar_[net.index()];
    uniform_scalar_[net.index()] = truncate(value, width(net));
    LaneSums sums;
    const std::uint64_t changed = commit(net, buf, count, sums);
    if (changed == 0) return;
    if (per_lane_probe_ && sums.k != 0) {
      // Every lane flips the same bits: one constant add per lane.
      const EnergyModel& m = sim_.probe_->model();
      probe_every_lane(m.net_domain[net.index()],
                       m.net_fj[net.index()] *
                           static_cast<double>(
                               popcount64(old ^ uniform_scalar_[net.index()])));
    } else {
      probe_net(net, sums, lane_mask_);
    }
    mark_fanout_dirty(net, changed);
  }

  void eval_op_sliced(dfg::Op op, const std::uint64_t* a,
                      const std::uint64_t* b, unsigned w, std::uint64_t* out);
  /// Evaluate `c` and return a pointer to the result planes — either `out`,
  /// or (for pure selections: uniform mux/bus, Pass) the selected input's
  /// planes directly, skipping the copy that write_net would diff anyway.
  const std::uint64_t* eval_comp(const rtl::Component& c, std::uint64_t* out);
  void settle(std::uint64_t count);
  /// Present local computation `comp`'s inputs in every lane.
  void apply_inputs(std::size_t comp, std::uint64_t count);
  /// Move the open rows of the counted lanes to their place in the
  /// stitched waveform and start the next step's rows at zero.
  void close_lane_rows(std::uint64_t count) {
    for (std::size_t l = 0; l < n_; ++l) {
      if (((count >> l) & 1) == 0) continue;
      double* dst = lane_dst_[l];
      for (std::size_t d = 0; d < domains_; ++d) dst[d] = lane_row_[d * 64 + l];
      lane_dst_[l] = dst + domains_;
    }
    std::fill(lane_row_.begin(), lane_row_.end(), 0.0);
  }
  /// `computations` counted master periods' controller-driven records —
  /// clock events, phase pulses, steps — with zeroed toggle counts.
  Activity periods_activity(std::uint64_t computations) const;
  PhaseHeatmap periods_heatmap(std::uint64_t computations) const;

  Simulator& sim_;
  const rtl::Design& design_;
  const rtl::Netlist& nl_;
  const std::vector<rtl::Component>& comps_;
  const std::vector<SliceLane> lanes_;
  const std::size_t n_;
  const std::uint64_t lane_mask_;
  const std::size_t local_comps_;
  const bool time_sliced_;
  const bool per_lane_probe_;
  std::vector<std::uint64_t> count_mask_;  // by local computation

  std::vector<std::uint64_t> net_counters_;      // num_nets x kCounterPlanes
  std::vector<std::uint64_t> storage_counters_;  // num_comps x kCounterPlanes
  std::vector<std::uint64_t> heat_counters_;     // (phase x step) vertical
  std::vector<std::uint8_t> uniform_;            // by NetId
  std::vector<std::uint64_t> uniform_scalar_;    // by NetId, uniform nets only
  std::vector<std::uint64_t> capture_buf_;       // D planes, read-before-write

  std::vector<std::vector<Entry>> buckets_;     // worklist, by level
  std::size_t pending_ = 0;
  std::vector<std::uint64_t> queued_;           // by CompId: lanes queued
  std::uint32_t gen_ = 0;                       // settle generation
  // Per-lane probe only: the write of a component evaluated at its first
  // entry, published by its later entries.
  std::vector<std::uint32_t> eval_gen_;         // by CompId: last evaluated
  std::vector<std::uint64_t> comp_changed_;     // by CompId: changed lanes
  std::vector<LaneSums> comp_sums_;             // by CompId: counted toggles

  // Per-lane sampled outputs. Per-lane probe state: the open rows of the
  // current step (domain-major, 64 lanes per domain), the stitched
  // waveform (rows of counted steps in stream order) and each lane's next
  // row in it.
  std::vector<std::vector<OutputSample>> samples_;
  std::size_t domains_ = 0;
  std::vector<double> lane_row_;
  std::vector<double> waveform_;
  double* lane_dst_[64] = {};

  std::vector<std::pair<NetId, unsigned>> sliced_in_ports_;  // (net, width)
  /// A run of consecutive input ports whose widths sum to <= 64, packed by
  /// one shared transpose64 (or per-port slice_pack when that's cheaper).
  struct InChunk {
    std::size_t first = 0;
    std::size_t count = 0;
    bool transpose = false;
  };
  std::vector<InChunk> in_chunks_;
  std::vector<unsigned> in_bit_offset_;  // port's bit offset within its chunk
  std::uint64_t plane_evals_ = 0;
};

void SlicedKernel::eval_op_sliced(dfg::Op op, const std::uint64_t* a,
                                  const std::uint64_t* b, unsigned w,
                                  std::uint64_t* out) {
  using dfg::Op;
  switch (op) {
    case Op::Add: slice_add(a, b, w, out); return;
    case Op::Sub: slice_sub(a, b, w, out); return;
    case Op::And: for (unsigned i = 0; i < w; ++i) out[i] = a[i] & b[i]; return;
    case Op::Or:  for (unsigned i = 0; i < w; ++i) out[i] = a[i] | b[i]; return;
    case Op::Xor: for (unsigned i = 0; i < w; ++i) out[i] = a[i] ^ b[i]; return;
    case Op::Not: for (unsigned i = 0; i < w; ++i) out[i] = ~a[i]; return;
    case Op::Neg: {  // 0 - a  ==  ~a + 1 (ripple the +1 as a carry mask)
      std::uint64_t carry = ~std::uint64_t{0};
      for (unsigned i = 0; i < w; ++i) {
        const std::uint64_t x = ~a[i];
        out[i] = x ^ carry;
        carry &= x;
      }
      return;
    }
    case Op::Pass: std::copy(a, a + w, out); return;
    case Op::Eq: std::fill(out, out + w, 0); out[0] = slice_eq(a, b, w); return;
    case Op::Ne: std::fill(out, out + w, 0); out[0] = ~slice_eq(a, b, w); return;
    case Op::Lt:
      std::fill(out, out + w, 0);
      out[0] = slice_lt_signed(a, b, w);
      return;
    case Op::Gt:
      std::fill(out, out + w, 0);
      out[0] = slice_lt_signed(b, a, w);
      return;
    case Op::Le:
      std::fill(out, out + w, 0);
      out[0] = ~slice_lt_signed(b, a, w);
      return;
    case Op::Ge:
      std::fill(out, out + w, 0);
      out[0] = ~slice_lt_signed(a, b, w);
      return;
    case Op::Min: slice_mux(slice_lt_signed(a, b, w), a, b, w, out); return;
    case Op::Max: slice_mux(slice_lt_signed(b, a, w), a, b, w, out); return;
    case Op::Mul: {
      // Shift-add: bit-plane k of b is the per-lane mask of lanes whose
      // multiplier has bit k set, so the product mod 2^w is the masked sum
      // of the shifted multiplicands. O(w^2) plane ops — far cheaper than
      // the transpose fallback for the narrow widths RTL datapaths use,
      // and exact because truncate(a * b) ignores signs.
      std::uint64_t acc[64] = {0};
      for (unsigned k = 0; k < w; ++k) {
        const std::uint64_t mask = b[k];
        if (mask == 0) continue;
        std::uint64_t carry = 0;
        for (unsigned i = k; i < w; ++i) {
          const std::uint64_t x = acc[i], y = a[i - k] & mask;
          acc[i] = x ^ y ^ carry;
          carry = (x & y) | (carry & (x ^ y));
        }
      }
      std::copy(acc, acc + w, out);
      return;
    }
    case Op::Div:
    case Op::Mod:
    case Op::Shl:
    case Op::Shr: {
      // Transpose fallback: unpack both operands to lane words, evaluate
      // the scalar op per stream, pack the results back into planes.
      std::uint64_t la[64] = {0}, lb[64] = {0};
      std::copy(a, a + w, la);
      std::copy(b, b + w, lb);
      transpose64(la);
      transpose64(lb);
      for (std::size_t s = 0; s < n_; ++s) {
        la[s] = dfg::eval_op(op, la[s], lb[s], w);
      }
      std::fill(la + n_, la + 64, 0);
      transpose64(la);
      std::copy(la, la + w, out);
      return;
    }
  }
  MCRTL_CHECK(false);
}

const std::uint64_t* SlicedKernel::eval_comp(const rtl::Component& c,
                                             std::uint64_t* out) {
  const unsigned w = c.width;
  if (c.kind == CompKind::Mux || c.kind == CompKind::Bus) {
    if (uniform_[c.select.index()]) {
      const std::uint64_t code = uniform_value(c.select);
      MCRTL_CHECK_MSG(code < c.inputs.size(), "mux/bus '" << c.name
                          << "' select " << code << " out of range");
      return planes(c.inputs[code]);
    }
    const std::uint64_t* sel = planes(c.select);
    const unsigned ws = width(c.select);
    // Data-driven select: blend every input under its per-lane match mask.
    std::fill(out, out + w, 0);
    std::uint64_t cover = 0;
    for (std::size_t i = 0; i < c.inputs.size(); ++i) {
      const std::uint64_t m = slice_eq_const(sel, ws, i) & lane_mask_;
      if (m == 0) continue;
      cover |= m;
      const std::uint64_t* in = planes(c.inputs[i]);
      for (unsigned b = 0; b < w; ++b) out[b] |= m & in[b];
    }
    MCRTL_CHECK_MSG(cover == lane_mask_,
                    "mux/bus '" << c.name << "' select out of range");
    return out;
  }
  if (c.kind == CompKind::IsoGate) {
    const std::uint64_t* sel = planes(c.select);
    const unsigned ws = width(c.select);
    std::uint64_t en = 0;
    for (unsigned b = 0; b < ws; ++b) en |= sel[b];
    slice_mux(en, planes(c.inputs[0]), planes(c.output), w, out);
    return out;
  }
  // Alu
  const std::uint64_t* a = planes(c.inputs[0]);
  const std::uint64_t* b = planes(c.inputs[1]);
  if (!c.select.valid()) {
    if (c.funcs[0] == dfg::Op::Pass) return a;
    eval_op_sliced(c.funcs[0], a, b, w, out);
    return out;
  }
  if (uniform_[c.select.index()]) {
    const std::uint64_t code = uniform_value(c.select);
    MCRTL_CHECK_MSG(code < c.funcs.size(), "alu '" << c.name << "' func code "
                        << code << " out of range");
    if (c.funcs[code] == dfg::Op::Pass) return a;
    eval_op_sliced(c.funcs[code], a, b, w, out);
    return out;
  }
  const std::uint64_t* sel = planes(c.select);
  const unsigned ws = width(c.select);
  // Data-driven function select: evaluate each selected function and blend.
  std::fill(out, out + w, 0);
  std::uint64_t cover = 0;
  std::uint64_t tmp[64];
  for (std::size_t code = 0; code < c.funcs.size(); ++code) {
    const std::uint64_t m = slice_eq_const(sel, ws, code) & lane_mask_;
    if (m == 0) continue;
    cover |= m;
    eval_op_sliced(c.funcs[code], a, b, w, tmp);
    for (unsigned b2 = 0; b2 < w; ++b2) out[b2] |= m & tmp[b2];
  }
  MCRTL_CHECK_MSG(cover == lane_mask_,
                  "alu '" << c.name << "' func code out of range");
  return out;
}

void SlicedKernel::settle(std::uint64_t count) {
  ++sim_.kernel_stats_.settles;
  sim_.kernel_stats_.oblivious_evals += sim_.comb_order_.size();
  if (pending_ == 0) return;
  ++gen_;
  std::uint64_t out[64];
  for (auto& bucket : buckets_) {
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const Entry e = bucket[i];
      const std::size_t ci = e.cid.index();
      const rtl::Component& c = comps_[ci];
      // Every enqueue of this level happened before the level started.
      queued_[ci] = 0;
      if (!per_lane_probe_) {  // one all-lanes entry per component
        ++sim_.kernel_stats_.evals;
        plane_evals_ += c.width;
        LaneSums sums;
        const std::uint64_t changed =
            commit(c.output, eval_comp(c, out), count, sums);
        if (changed == 0) continue;
        probe_net(c.output, sums, lane_mask_);
        mark_fanout_dirty(c.output, changed);
        continue;
      }
      if (eval_gen_[ci] != gen_) {
        eval_gen_[ci] = gen_;
        ++sim_.kernel_stats_.evals;
        plane_evals_ += c.width;
        comp_changed_[ci] =
            commit(c.output, eval_comp(c, out), count, comp_sums_[ci]);
      }
      const std::uint64_t changed = comp_changed_[ci] & e.lanes;
      if (changed == 0) continue;
      probe_net(c.output, comp_sums_[ci], e.lanes);
      mark_fanout_dirty(c.output, changed);
    }
    pending_ -= bucket.size();
    bucket.clear();
    if (pending_ == 0) break;
  }
}

void SlicedKernel::apply_inputs(std::size_t comp, std::uint64_t count) {
  // Hoist the vector-of-vectors row lookups: one pointer per lane, then
  // plain array indexing in the per-port gather. Past the end of its
  // stream a lane re-presents its last computation, which changes nothing.
  const std::uint64_t* rows[64];
  for (std::size_t s = 0; s < n_; ++s) {
    const SliceLane& lane = lanes_[s];
    const auto& row =
        (*lane.stream)[std::min(lane.first + comp, lane.stream->size() - 1)];
    MCRTL_CHECK(row.size() == sliced_in_ports_.size());
    rows[s] = row.data();
  }
  // Ports are packed a chunk at a time: every port in a chunk is
  // concatenated into one word per lane at its precomputed bit offset,
  // and a single transpose64 slices the whole chunk — one 384-op transpose
  // amortized over all the chunk's ports, against 64 x width ops per port
  // for a slice_pack of each. Narrow chunks (see simulate()) keep the pack
  // path.
  std::uint64_t lanes[64];
  for (const auto& ch : in_chunks_) {
    if (!ch.transpose) {
      for (std::size_t i = ch.first; i < ch.first + ch.count; ++i) {
        const auto& [net, w] = sliced_in_ports_[i];
        for (std::size_t s = 0; s < n_; ++s) {
          lanes[s] = truncate(rows[s][i], w);
        }
        std::uint64_t pl[64];
        slice_pack(lanes, n_, w, pl);
        write_net(net, pl, count);
      }
      continue;
    }
    for (std::size_t s = 0; s < n_; ++s) {
      std::uint64_t word = 0;
      for (std::size_t i = ch.first; i < ch.first + ch.count; ++i) {
        word |= truncate(rows[s][i], sliced_in_ports_[i].second)
                << in_bit_offset_[i];
      }
      lanes[s] = word;
    }
    std::fill(lanes + n_, lanes + 64, 0);
    transpose64(lanes);
    for (std::size_t i = ch.first; i < ch.first + ch.count; ++i) {
      write_net(sliced_in_ports_[i].first, lanes + in_bit_offset_[i], count);
    }
  }
}

void SlicedKernel::simulate(const std::vector<dfg::ValueId>& input_order,
                            const std::vector<dfg::ValueId>& output_order) {
  const rtl::Design& d = design_;
  const int P = d.clocks.period();
  const int T = d.schedule_steps;
  const int nphases = d.clocks.num_phases();

  // Port maps, resolved once (as in the scalar run()).
  sliced_in_ports_.clear();
  for (dfg::ValueId v : input_order) {
    const rtl::Component& c = comps_[d.input_ports.at(v).index()];
    sliced_in_ports_.emplace_back(c.output, c.width);
  }
  // Group consecutive ports into <=64-bit chunks for apply_inputs. The
  // shared transpose costs ~384 plane ops; per-port slice_pack costs
  // 64 x width — so the transpose wins once a chunk carries more than a
  // handful of bits, and very narrow chunks keep the direct pack.
  in_chunks_.clear();
  in_bit_offset_.assign(sliced_in_ports_.size(), 0);
  for (std::size_t i = 0; i < sliced_in_ports_.size();) {
    InChunk ch;
    ch.first = i;
    unsigned bits = 0;
    while (i < sliced_in_ports_.size() &&
           bits + sliced_in_ports_[i].second <= 64) {
      in_bit_offset_[i] = bits;
      bits += sliced_in_ports_[i].second;
      ++i;
      ++ch.count;
    }
    ch.transpose = bits > 8;
    in_chunks_.push_back(ch);
  }
  std::vector<CompId> out_storage;
  out_storage.reserve(output_order.size());
  for (dfg::ValueId v : output_order) {
    out_storage.push_back(d.output_storage.at(v));
  }
  // Chunk the outputs for sampling exactly like the input ports: one shared
  // transpose64 unpacks every output in a <=64-bit chunk at once.
  std::vector<InChunk> out_chunks;
  std::vector<unsigned> out_bit_offset(out_storage.size(), 0);
  for (std::size_t i = 0; i < out_storage.size();) {
    InChunk ch;
    ch.first = i;
    unsigned bits = 0;
    while (i < out_storage.size() &&
           bits + comps_[out_storage[i].index()].width <= 64) {
      out_bit_offset[i] = bits;
      bits += comps_[out_storage[i].index()].width;
      ++i;
      ++ch.count;
    }
    ch.transpose = bits > 8;
    out_chunks.push_back(ch);
  }

  const bool heat = time_sliced_ ? sim_.heatmap_ != nullptr
                                 : sim_.stream_heatmaps_ != nullptr;
  if (heat) {
    heat_counters_.assign(
        static_cast<std::size_t>(nphases) * P * kCounterPlanes, 0);
  }

  // An edge only needs the read-all-D-before-any-Q staging buffer when a
  // register captured on it feeds another register captured on the same
  // edge (a shift chain); everywhere else the captures commit directly.
  std::vector<std::uint8_t> edge_needs_staging(
      sim_.edge_captures_.size(), 0);
  for (std::size_t t = 0; t < sim_.edge_captures_.size(); ++t) {
    const auto& caps = sim_.edge_captures_[t];
    for (CompId a : caps) {
      const NetId d_in = comps_[a.index()].inputs[0];
      for (CompId b : caps) {
        if (comps_[b.index()].output == d_in) {
          edge_needs_staging[t] = 1;
          break;
        }
      }
      if (edge_needs_staging[t]) break;
    }
  }
  PowerProbe* const probe = sim_.probe_;
  if (probe) probe->reset();  // one probe record per pass

  // ---- preamble (uncounted), mirroring the scalar run() exactly ----------
  {
    mark_all_dirty();
    for (const auto& [net, value] : sim_.control_reset_writes_) {
      write_broadcast(net, value, 0);
    }
    for (const auto& c : comps_) {
      if (c.kind == CompKind::Constant) {
        write_broadcast(c.output, from_signed(c.const_value, c.width), 0);
      }
    }
    if (local_comps_ > 0) apply_inputs(0, 0);
    settle(0);
    std::uint64_t buf[64];
    for (CompId cid :
         sim_.storage_by_phase_[static_cast<std::size_t>(nphases)]) {
      const rtl::Component& c = comps_[cid.index()];
      // Load enables are controller-driven (checked at construction), so
      // one lane answers for all of them.
      if (c.load.valid() && uniform_value(c.load) == 0) continue;
      const std::uint64_t* dval = planes(c.inputs[0]);
      std::copy(dval, dval + c.width, buf);
      write_net(c.output, buf, 0);
    }
    settle(0);
  }

  // ---- main loop ----------------------------------------------------------
  samples_.assign(n_, {});
  for (std::size_t comp = 0; comp < local_comps_; ++comp) {
    if (sim_.has_deadline_ &&
        std::chrono::steady_clock::now() > sim_.deadline_) {
      throw TimeoutError("sliced simulation exceeded its point deadline after " +
                         std::to_string(comp) + " of " +
                         std::to_string(local_comps_) + " computations");
    }
    const std::uint64_t count = count_mask_[comp];
    if (per_lane_probe_) {
      for (std::size_t l = 0; l < n_; ++l) {
        lane_dst_[l] = waveform_.data() + (lanes_[l].first + comp) *
                                              static_cast<std::size_t>(P) *
                                              domains_;
      }
    }
    for (int t = 1; t <= P; ++t) {
      for (const auto& [net, value] :
           sim_.control_step_writes_[static_cast<std::size_t>(t)]) {
        write_broadcast(net, value, count);
      }
      if (t == P) apply_inputs(comp + 1, count);
      settle(count);

      const int phase = sim_.phase_by_step_[static_cast<std::size_t>(t)];
      const std::size_t cell = static_cast<std::size_t>(phase - 1) * P +
                               static_cast<std::size_t>(t - 1);
      const auto& clocked =
          sim_.edge_clock_events_[static_cast<std::size_t>(t)];
      // Phase pulses and clock delivery are controller-driven and identical
      // in every lane; their counts come from the per-period schedule at
      // the end, so only the probe sees them here.
      if (per_lane_probe_) {
        const EnergyModel& m = probe->model();
        probe_every_lane(static_cast<std::uint32_t>(phase),
                         m.phase_pulse_fj[static_cast<std::size_t>(phase)]);
        for (CompId cid : clocked) {
          probe_every_lane(m.storage_domain[cid.index()],
                           m.storage_clock_fj[cid.index()]);
        }
      } else if (probe) {
        probe->add_phase_pulse(phase, n_);
        for (CompId cid : clocked) probe->add_storage_clock(cid.index(), n_);
      }

      // Captures commit simultaneously: when an edge chains registers,
      // stage every D input before any Q output changes.
      const auto& caps = sim_.edge_captures_[static_cast<std::size_t>(t)];
      const bool staged = edge_needs_staging[static_cast<std::size_t>(t)];
      if (staged) {
        capture_buf_.clear();
        for (CompId cid : caps) {
          const rtl::Component& c = comps_[cid.index()];
          const std::uint64_t* dval = planes(c.inputs[0]);
          capture_buf_.insert(capture_buf_.end(), dval, dval + c.width);
        }
      }
      std::size_t off = 0;
      for (CompId cid : caps) {
        const rtl::Component& c = comps_[cid.index()];
        const std::uint64_t* dval =
            staged ? capture_buf_.data() + off : planes(c.inputs[0]);
        off += c.width;
        std::uint64_t* q = planes(c.output);
        std::uint64_t diff[64];
        std::uint64_t counted[64];
        std::uint64_t any = 0;
        for (unsigned b = 0; b < c.width; ++b) {
          diff[b] = dval[b] ^ q[b];
          counted[b] = diff[b] & count;
          any |= diff[b];
        }
        if (any == 0) continue;
        LaneSums sums;
        sums.k = (any & count) != 0
                     ? slice_popcount_planes(counted, c.width, sums.p)
                     : 0;
        if (sums.k != 0) {
          bump(storage_counters_.data() + cid.index() * kCounterPlanes, sums);
          bump(net_counters_.data() + c.output.index() * kCounterPlanes,
               sums);
          if (heat) bump(heat_counters_.data() + cell * kCounterPlanes, sums);
        }
        for (unsigned b = 0; b < c.width; ++b) q[b] ^= diff[b];
        probe_net(c.output, sums, lane_mask_);
        mark_fanout_dirty(c.output, any);
      }
      settle(count);
      if (per_lane_probe_) {
        close_lane_rows(count);
      } else if (probe) {
        probe->end_step(t);
      }
      if (t == T) {
        std::uint64_t lanes[64];
        for (std::size_t s = 0; s < n_; ++s) {
          if ((count >> s) & 1) samples_[s].emplace_back(out_storage.size());
        }
        for (const auto& ch : out_chunks) {
          if (!ch.transpose) {
            for (std::size_t o = ch.first; o < ch.first + ch.count; ++o) {
              const rtl::Component& c = comps_[out_storage[o].index()];
              slice_unpack(planes(c.output), c.width, n_, lanes);
              for (std::size_t s = 0; s < n_; ++s) {
                if ((count >> s) & 1) samples_[s].back()[o] = lanes[s];
              }
            }
            continue;
          }
          unsigned bits = 0;
          for (std::size_t o = ch.first; o < ch.first + ch.count; ++o) {
            const rtl::Component& c = comps_[out_storage[o].index()];
            const std::uint64_t* pl = planes(c.output);
            std::copy(pl, pl + c.width, lanes + bits);
            bits += c.width;
          }
          std::fill(lanes + bits, lanes + 64, 0);
          transpose64(lanes);
          for (std::size_t o = ch.first; o < ch.first + ch.count; ++o) {
            const unsigned w = comps_[out_storage[o].index()].width;
            const unsigned shift = out_bit_offset[o];
            for (std::size_t s = 0; s < n_; ++s) {
              if ((count >> s) & 1) {
                samples_[s].back()[o] = (lanes[s] >> shift) & bit_mask(w);
              }
            }
          }
        }
      }
    }
  }
  if (obs::enabled()) {
    const std::string p = time_sliced_ ? "sim.time_sliced" : "sim.sliced";
    obs::count(p + ".runs");
    obs::count(p + (time_sliced_ ? ".lanes" : ".streams"), n_);
    obs::count(p + ".steps", local_comps_ * static_cast<std::size_t>(P) * n_);
    obs::count(p + ".plane_evals", plane_evals_);
  }
}

Activity SlicedKernel::periods_activity(std::uint64_t computations) const {
  const int P = design_.clocks.period();
  Activity act;
  act.net_toggles.assign(nl_.num_nets(), 0);
  act.storage_write_toggles.assign(nl_.num_components(), 0);
  act.storage_clock_events.assign(nl_.num_components(), 0);
  act.phase_pulses.assign(
      static_cast<std::size_t>(design_.clocks.num_phases()) + 1, 0);
  for (int t = 1; t <= P; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    act.phase_pulses[static_cast<std::size_t>(sim_.phase_by_step_[ts])] +=
        computations;
    for (CompId cid : sim_.edge_clock_events_[ts]) {
      act.storage_clock_events[cid.index()] += computations;
    }
  }
  act.steps = computations * static_cast<std::uint64_t>(P);
  act.computations = computations;
  return act;
}

PhaseHeatmap SlicedKernel::periods_heatmap(std::uint64_t computations) const {
  const int P = design_.clocks.period();
  PhaseHeatmap hm;
  hm.resize(design_.clocks.num_phases(), P);
  for (int t = 1; t <= P; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    hm.clock_events[hm.at(sim_.phase_by_step_[ts], t)] +=
        computations * sim_.edge_clock_events_[ts].size();
  }
  return hm;
}

std::vector<SimResult> SlicedKernel::lane_results() {
  std::vector<SimResult> results(n_);
  for (std::size_t s = 0; s < n_; ++s) {
    results[s].activity =
        periods_activity(lanes_[s].count_end - lanes_[s].count_begin);
    results[s].outputs = std::move(samples_[s]);
  }
  std::uint64_t lanes[64];
  auto unpack = [&](const std::uint64_t* counter, auto&& sink) {
    std::fill(lanes, lanes + 64, 0);
    std::copy(counter, counter + kCounterPlanes, lanes);
    transpose64(lanes);  // counter planes -> per-lane totals
    for (std::size_t s = 0; s < n_; ++s) sink(s, lanes[s]);
  };
  for (std::size_t i = 0; i < nl_.num_nets(); ++i) {
    unpack(net_counters_.data() + i * kCounterPlanes,
           [&](std::size_t s, std::uint64_t v) {
             results[s].activity.net_toggles[i] = v;
           });
  }
  for (std::size_t i = 0; i < nl_.num_components(); ++i) {
    unpack(storage_counters_.data() + i * kCounterPlanes,
           [&](std::size_t s, std::uint64_t v) {
             results[s].activity.storage_write_toggles[i] = v;
           });
  }
  if (sim_.stream_heatmaps_) {
    auto& hms = *sim_.stream_heatmaps_;
    hms.clear();
    for (std::size_t s = 0; s < n_; ++s) {
      hms.push_back(
          periods_heatmap(lanes_[s].count_end - lanes_[s].count_begin));
    }
    for (std::size_t cell = 0; cell < hms.front().write_toggles.size();
         ++cell) {
      unpack(heat_counters_.data() + cell * kCounterPlanes,
             [&](std::size_t s, std::uint64_t v) {
               hms[s].write_toggles[cell] = v;
             });
    }
  }
  return results;
}

SimResult SlicedKernel::stitched_result() {
  std::uint64_t total = 0;
  for (const SliceLane& lane : lanes_) {
    total += lane.count_end - lane.count_begin;
  }
  SimResult r;
  r.activity = periods_activity(total);
  for (auto& lane_samples : samples_) {
    r.outputs.insert(r.outputs.end(),
                     std::make_move_iterator(lane_samples.begin()),
                     std::make_move_iterator(lane_samples.end()));
  }
  for (std::size_t i = 0; i < nl_.num_nets(); ++i) {
    r.activity.net_toggles[i] =
        lanes_total(net_counters_.data() + i * kCounterPlanes, kCounterPlanes);
  }
  for (std::size_t i = 0; i < nl_.num_components(); ++i) {
    r.activity.storage_write_toggles[i] = lanes_total(
        storage_counters_.data() + i * kCounterPlanes, kCounterPlanes);
  }
  if (sim_.heatmap_) {
    PhaseHeatmap& hm = *sim_.heatmap_;
    hm = periods_heatmap(total);
    for (std::size_t cell = 0; cell < hm.write_toggles.size(); ++cell) {
      hm.write_toggles[cell] = lanes_total(
          heat_counters_.data() + cell * kCounterPlanes, kCounterPlanes);
    }
  }
  if (per_lane_probe_) sim_.probe_->assign_steps(std::move(waveform_));
  return r;
}

std::vector<SimResult> Simulator::run_sliced(
    const std::vector<InputStream>& streams,
    const std::vector<dfg::ValueId>& input_order,
    const std::vector<dfg::ValueId>& output_order) {
  obs::Span span("sim.run");
  fault::inject("sim.run");
  MCRTL_CHECK_MSG(mode_ == Mode::BitSliced,
                  "run_sliced() requires a Mode::BitSliced simulator");
  MCRTL_CHECK_MSG(!streams.empty() && streams.size() <= kMaxStreams,
                  "run_sliced() batches 1.." << kMaxStreams << " streams, got "
                                             << streams.size());
  for (const auto& s : streams) {
    MCRTL_CHECK_MSG(s.size() == streams[0].size(),
                    "all sliced streams must have equal length");
  }
  const std::size_t C = streams[0].size();
  std::vector<SliceLane> lanes(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    lanes[s] = SliceLane{&streams[s], 0, 0, C};
  }
  SlicedKernel kernel(*this, std::move(lanes), C, false);
  kernel.simulate(input_order, output_order);
  return kernel.lane_results();
}

SimResult Simulator::run_time_sliced(
    const InputStream& stream, const std::vector<dfg::ValueId>& input_order,
    const std::vector<dfg::ValueId>& output_order) {
  obs::Span span("sim.run");
  fault::inject("sim.run");
  MCRTL_CHECK_MSG(mode_ == Mode::BitSliced,
                  "run_time_sliced() requires a Mode::BitSliced simulator");
  // Both paths start from the reset state, as a fresh simulator would.
  if (computation_budget_ > 0 || observer_ || stream.empty() ||
      !time_sliceable()) {
    obs::count("sim.time_sliced.fallbacks");
    std::fill(net_value_.begin(), net_value_.end(), 0);
    std::fill(storage_q_.begin(), storage_q_.end(), 0);
    return run_scalar(stream, input_order, output_order);
  }
  std::fill(net_planes_.begin(), net_planes_.end(), 0);
  // Lane layout (DESIGN.md §7): lane k counts computations
  // [k*per, min((k+1)*per, N)) and simulates `local` computations starting
  // one earlier — an uncounted warm-up — or at 0 for lane 0, whose last
  // simulated computation is an uncounted trailer instead. The next
  // lane's first inputs are presented at the counted chunk's last step, as
  // the scalar run() does. A lane that would run past N is right-aligned
  // to end at N-1; its extra leading computations only lengthen the
  // warm-up.
  const std::size_t N = stream.size();
  const std::size_t per = (N + kMaxStreams - 1) / kMaxStreams;
  const std::size_t local = std::min(per + 1, N);
  std::vector<SliceLane> lanes;
  for (std::size_t begin = 0; begin < N; begin += per) {
    const std::size_t first = begin == 0 ? 0 : std::min(begin - 1, N - local);
    lanes.push_back(SliceLane{&stream, first, begin, std::min(begin + per, N)});
  }
  SlicedKernel kernel(*this, std::move(lanes), local, true);
  kernel.simulate(input_order, output_order);
  return kernel.stitched_result();
}

// ---- the static warm-up check ---------------------------------------------
//
// A forward "known" analysis over one master period of the static schedule.
// Before the period only the controller lines (tabulated per step), the
// constants and the input ports (which hold this period's inputs, and take
// the next ones at step P) are known to agree between a lane and the scalar
// run; every storage element, isolation gate and datapath net may hold
// anything. The boundary edge that precedes the period — the scalar run's
// step P, a lane's preamble capture — is replayed first: both capture from
// the same inputs and controller state. A combinational output is known
// when the inputs it actually reads at that step are: a mux or bus under a
// controller select reads one input, an ALU under a known function reads
// one operand for unary ops, a disabled isolation gate holds its own
// output. A captured storage element takes its D input's state. If every
// net is known after the period, one uncounted warm-up computation puts a
// lane in exactly the scalar run's state at the next boundary. The check
// is sound (unknown selects demand every input) but not complete.
bool Simulator::time_sliceable() const {
  MCRTL_CHECK_MSG(mode_ == Mode::BitSliced,
                  "time_sliceable() requires a Mode::BitSliced simulator");
  const rtl::Design& d = *design_;
  const rtl::Netlist& nl = d.netlist;
  const auto& comps = nl.components();
  const int P = d.clocks.period();
  std::vector<int> sig_of_net(nl.num_nets(), -1);
  for (const auto& sig : d.control.signals()) {
    sig_of_net[nl.comp(sig.source).output.index()] =
        static_cast<int>(sig.index);
  }
  std::vector<std::uint8_t> known(nl.num_nets(), 0);
  for (const auto& c : comps) {
    if (c.kind == CompKind::InputPort || c.kind == CompKind::ControlSource ||
        c.kind == CompKind::Constant) {
      known[c.output.index()] = 1;
    }
  }
  // The value a controller line or constant carries during step t.
  auto static_value = [&](NetId net, int t, std::uint64_t& v) {
    const rtl::Component& drv = comps[nl.net(net).driver.index()];
    if (drv.kind == CompKind::Constant) {
      v = from_signed(drv.const_value, drv.width);
      return true;
    }
    const int sig = sig_of_net[net.index()];
    if (sig < 0) return false;
    v = d.control.line_value(static_cast<unsigned>(sig), t);
    return true;
  };
  auto settle = [&](int t) {
    for (CompId cid : comb_order_) {
      const rtl::Component& c = comps[cid.index()];
      const auto k = [&](NetId net) { return known[net.index()] != 0; };
      std::uint64_t v = 0;
      bool out = false;
      if (c.kind == CompKind::Mux || c.kind == CompKind::Bus) {
        if (static_value(c.select, t, v)) {
          out = v < c.inputs.size() && k(c.inputs[v]);
        } else {
          out = k(c.select) && std::all_of(c.inputs.begin(), c.inputs.end(), k);
        }
      } else if (c.kind == CompKind::IsoGate) {
        if (static_value(c.select, t, v)) {
          out = v != 0 ? k(c.inputs[0]) : k(c.output);
        } else {
          out = k(c.select) && k(c.inputs[0]) && k(c.output);
        }
      } else {  // Alu
        bool unary = false;
        if (!c.select.valid()) {
          unary = dfg::op_arity(c.funcs[0]) == 1;
          out = true;
        } else if (static_value(c.select, t, v)) {
          out = v < c.funcs.size();
          unary = out && dfg::op_arity(c.funcs[v]) == 1;
        } else {
          out = k(c.select);
        }
        out = out && k(c.inputs[0]) && (unary || k(c.inputs[1]));
      }
      known[c.output.index()] = out ? 1 : 0;
    }
  };
  std::vector<std::uint8_t> captured;
  auto edge = [&](int t) {
    const auto& caps = edge_captures_[static_cast<std::size_t>(t)];
    captured.clear();
    for (CompId cid : caps) {
      captured.push_back(known[comps[cid.index()].inputs[0].index()]);
    }
    for (std::size_t i = 0; i < caps.size(); ++i) {
      known[comps[caps[i].index()].output.index()] = captured[i];
    }
  };
  // The boundary edge before the period: the scalar run's step P and a
  // lane's preamble both capture from the same inputs and controller state.
  settle(P);
  edge(P);
  settle(P);
  for (int t = 1; t <= P; ++t) {
    settle(t);
    edge(t);
    settle(t);
  }
  return std::all_of(known.begin(), known.end(),
                     [](std::uint8_t x) { return x != 0; });
}

}  // namespace mcrtl::sim
