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
//  * run_sliced() — a Monte-Carlo bundle in lockstep: lane s runs stream s
//    from its first computation and counts everything; one SimResult per
//    lane.
//  * run_time_sliced() — S streams, each cut into up to ⌊64/S⌋ consecutive
//    chunks. Lane k·S + s runs chunk k of stream s preceded by one uncounted
//    warm-up computation (exact by the static one-period warm-up check), and
//    a per-lane count mask keeps warm-ups and the trailing computation out
//    of every count; each stream's lanes are stitched back into one
//    SimResult. With one chunk per stream this is the lockstep layout.
//
// Per-stream toggle exactness is the contract: stream s of the result must
// be bit-identical to an independent EventDriven run. A time-sliced pass of
// at most kMaxTotalsStreams streams keeps one plain 64-bit total per stream
// in each counter: a counted write adds, per stream, the popcounts of its
// (count-masked) XOR-diff planes under the stream's lane mask — or of the
// bit-sliced per-lane sums (slice_popcount_planes) when a probe needs those
// anyway. Larger bundles and the lockstep run_sliced() keep a per-net
// "vertical" counter whose planes are bit-sliced across lanes. A counted
// write adds each diff plane into its bit's small kSmallPlanes-plane
// counter, branch-free; after kFlushWrites counted writes to a net, before
// any lane's count of one bit can pass what the small counter holds, the
// net's small counters are summed into its deep counter once. At the end
// of the run one transpose64 per counter unpacks exact per-lane totals (or
// a popcount per plane sums them for one stream). A storage element's
// write toggles are its Q net's: captures are the only counted writes to
// a Q net.
//
// The kernel reads the design's compiled tables (rtl::DesignTables): the
// levelized fanout index, the tabulated controller deltas and the static
// phase-edge schedules. Control lines, clock events and phase pulses are
// controller-driven and therefore identical across lanes — their counts
// come from the per-period schedule (DesignTables::line_toggles for the
// lines), scaled by each lane's counted computations, so a line write only
// updates the planes.
//
// An attached PowerProbe counts integer events per energy class
// (sim/power_probe.hpp). The controller classes' row is the same for every
// step t of every period and is weighed once per pass from the static
// schedule. Lockstep passes give the probe one aggregate row per step,
// that row plus the data classes' counts summed across lanes; a
// time-sliced pass keeps one row per group of lanes at the same step: a
// bit-sliced per-lane counter per data class, sized by a static per-step
// bound, is weighed into the group rows of the probe's record when the
// step closes, after the controller row.
#include <algorithm>
#include <array>
#include <bit>
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
// Vertical-counter depth: per-lane toggle totals up to 2^48. A run would
// need ~2^42 master cycles to overflow a 64-bit-wide net.
constexpr unsigned kCounterPlanes = 48;

/// Planes of a vertical pass's small per-(net, bit) counters, and the
/// counted writes to a net after which they are summed into its deep
/// counter: one write adds at most 1 to a lane's count of one bit, so
/// kFlushWrites writes fill but never overflow them (DESIGN.md §7).
constexpr unsigned kSmallPlanes = 4;
constexpr unsigned kFlushWrites = (1u << kSmallPlanes) - 1;

/// Largest time-sliced bundle whose counters hold plain per-stream totals
/// (S masked popcounts per plane of a write) instead of vertical counters
/// (a small-counter increment per plane, a flush every kFlushWrites
/// writes, one transpose64 per counter at the end): the measured crossover
/// on the suite's designs (DESIGN.md §7).
constexpr std::size_t kMaxTotalsStreams = 4;

constexpr std::uint64_t kEvenLanes = 0x5555555555555555;

/// Bit 2g of `x` moved to bit g for g < 32 (the odd bits must be zero):
/// the even lanes of a plane packed into its low half.
constexpr std::uint64_t pack_even_lanes(std::uint64_t x) {
  x = (x | (x >> 1)) & 0x3333333333333333;
  x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0F;
  x = (x | (x >> 4)) & 0x00FF00FF00FF00FF;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFF;
  return (x | (x >> 16)) & 0x00000000FFFFFFFF;
}

/// Counter depth that holds any per-lane toggle total of a pass of `steps`
/// steps: a net is written at most twice per step (once per settle, or once
/// by its controller, port or capture) and a storage element captures at
/// most once, each write flipping at most 64 bits. Short passes — the
/// search's prefix runs — then zero and unpack a fraction of the planes; an
/// overflow would still be caught.
unsigned counter_depth(std::uint64_t steps) {
  const std::uint64_t most = steps * 2 * 64;
  unsigned depth = 1;
  while (depth < kCounterPlanes && most >> depth != 0) ++depth;
  return depth;
}

// Total count across all lanes of a bit-sliced per-lane value: plane j holds
// bit j of every lane's count, so the sum is sum_j popcount(planes[j]) << j.
inline std::uint64_t lanes_total(const std::uint64_t* planes, unsigned k) {
  std::uint64_t total = 0;
  for (unsigned j = 0; j < k; ++j) {
    total += static_cast<std::uint64_t>(popcount64(planes[j])) << j;
  }
  return total;
}

/// Set bits across `w` planes: the toggles of a write summed over lanes.
inline std::uint64_t planes_total(const std::uint64_t* planes, unsigned w) {
  std::uint64_t total = 0;
  for (unsigned b = 0; b < w; ++b) total += popcount64(planes[b]);
  return total;
}

/// Entry b: bit i of `b` (0..255) moved to bit 0 of byte i.
constexpr auto kSpreadBytes = [] {
  std::array<std::uint64_t, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    for (unsigned i = 0; i < 8; ++i) {
      t[b] |= std::uint64_t{(b >> i) & 1} << (8 * i);
    }
  }
  return t;
}();

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

/// The time-sliced lane layout (DESIGN.md §7) of `streams` over their first
/// `n` computations, `chunks` chunks per stream: lane k·S + s runs chunk k
/// of stream s. Chunk k counts computations [k·per, min((k+1)·per, n)) and
/// simulates `local` computations starting one earlier — an uncounted
/// warm-up — or at 0 for chunk 0, whose last simulated computation is an
/// uncounted trailer instead. The next chunk's first inputs are presented
/// at the counted chunk's last step, as the scalar run() does. A chunk that
/// would run past n is right-aligned to end at n-1; its extra leading
/// computations only lengthen the warm-up. One chunk is the lockstep
/// layout.
std::vector<SliceLane> chunk_lanes(
    const std::vector<const InputStream*>& streams, std::size_t n,
    std::size_t chunks, std::size_t& local) {
  const std::size_t per = n == 0 ? 0 : (n + chunks - 1) / chunks;
  local = std::min(per + 1, n);
  std::vector<SliceLane> lanes;
  lanes.reserve(chunks * streams.size());
  for (std::size_t begin = 0; lanes.empty() || begin < n; begin += per) {
    const std::size_t first = begin == 0 ? 0 : std::min(begin - 1, n - local);
    for (const InputStream* s : streams) {
      lanes.push_back(SliceLane{s, first, begin, std::min(begin + per, n)});
    }
  }
  return lanes;
}
}  // namespace

/// The per-run engine. Constructed by Simulator::run_sliced() and
/// run_time_sliced(); reads the design's compiled tables and keeps
/// the persistent plane state in the Simulator (net_planes_), so repeated
/// run_sliced() calls behave like repeated scalar run() calls.
class SlicedKernel {
 public:
  /// `local_comps` computations per lane; lane l belongs to stream
  /// l % `streams`, and the `streams` lanes of one chunk form a group.
  /// `time_sliced` gives an attached PowerProbe one row per group and step
  /// (put at the group's place in time) instead of one aggregate row across
  /// lanes — the same thing when there is one group.
  SlicedKernel(Simulator& sim, std::vector<SliceLane> lanes,
               std::size_t local_comps, std::size_t streams, bool time_sliced)
      : sim_(sim),
        design_(*sim.design_),
        tab_(design_.tables),
        nl_(design_.netlist),
        comps_(nl_.components()),
        lanes_(std::move(lanes)),
        n_(lanes_.size()),
        lane_mask_(n_ == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << n_) - 1),
        local_comps_(local_comps),
        computations_(lanes_.back().count_end),
        streams_(streams),
        groups_(n_ / streams),
        totals_(time_sliced && streams <= kMaxTotalsStreams),
        words_(totals_ ? static_cast<unsigned>(streams)
                       : counter_depth(static_cast<std::uint64_t>(local_comps) *
                                       static_cast<std::uint64_t>(
                                           design_.clocks.period()))),
        time_sliced_(time_sliced),
        per_group_probe_(time_sliced && groups_ > 1 && sim.probe_ != nullptr),
        net_counters_(nl_.num_nets() * words_, 0),
        small_counters_(totals_ ? 0 : sim.net_planes_.size() * kSmallPlanes,
                        0),
        unflushed_(totals_ ? 0 : nl_.num_nets(), 0),
        uniform_(nl_.num_nets(), 0),
        uniform_scalar_(nl_.num_nets(), 0),
        queue_(tab_.comb_order.size()),
        bucket_end_(tab_.depth()),
        queued_(nl_.num_components(), 0) {
    for (std::size_t l = 0; l < bucket_end_.size(); ++l) {
      bucket_end_[l] = queue_.data() + tab_.level_offset[l];
    }
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
      if (totals_) stream_mask_[l % streams_] |= std::uint64_t{1} << l;
    }
    if (sim.probe_ != nullptr) init_probe(*sim.probe_);
  }

  /// Simulate every lane for `local_comps` computations.
  void simulate(const std::vector<dfg::ValueId>& input_order,
                const std::vector<dfg::ValueId>& output_order);
  /// One SimResult per stream: its lanes' counted records concatenated in
  /// lane (= time) order.
  std::vector<SimResult> results();

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

  // The worklist holds one all-lanes entry per queued component: a
  // component is queued at the first write that changes one of its inputs
  // in any lane. The probe counts integer toggles per energy class, so the
  // order in which lanes meet their events does not matter.
  void mark_fanout_dirty(NetId net) {
    for (CompId cid : tab_.fanout[net.index()]) {
      if (queued_[cid.index()] != 0) continue;
      queued_[cid.index()] = 1;
      enqueue(cid);
    }
  }
  void mark_all_dirty() {
    for (CompId cid : tab_.comb_order) {
      if (queued_[cid.index()] != 0) continue;
      queued_[cid.index()] = 1;
      enqueue(cid);
    }
  }
  void enqueue(CompId cid) {
    const auto l = static_cast<std::size_t>(tab_.level[cid.index()]);
    *bucket_end_[l]++ = cid;
    ++pending_;
  }

  /// Commit `val` planes (masked to the active lanes) into `net`, leaving
  /// the XOR-diff planes masked to the counted lanes `count` in `diff`.
  /// Returns the lanes whose value changed.
  std::uint64_t commit(NetId net, const std::uint64_t* val,
                       std::uint64_t count, std::uint64_t* diff) {
    std::uint64_t* old = planes(net);
    const unsigned w = width(net);
    std::uint64_t any = 0;
    // Commit as we diff: XORing a zero diff is a no-op, so the unchanged
    // case needs no second pass either way.
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t d = (val[b] & lane_mask_) ^ old[b];
      diff[b] = d & count;
      any |= d;
      old[b] ^= d;
    }
    return any;
  }

  /// The bit-sliced per-lane sums of a counted write's `diff` planes when a
  /// per-group probe needs them (k == 0 otherwise).
  LaneSums lane_sums(const std::uint64_t* diff, unsigned w) const {
    LaneSums sums;
    if (per_group_probe_) sums.k = slice_popcount_planes(diff, w, sums.p);
    return sums;
  }

  /// Count one write's toggles — `diff`, `w` planes masked to the counted
  /// lanes, not all zero — into `net`'s counter and the attached probe.
  /// Plain totals take each stream's masked popcounts of the planes (of the
  /// per-lane sums, when a probe needs those anyway); vertical counters add
  /// the planes into the net's small counters.
  void count_toggles(NetId net, const std::uint64_t* diff, unsigned w) {
    const LaneSums sums = lane_sums(diff, w);
    if (totals_) {
      std::uint64_t* const c = net_counters_.data() + net.index() * words_;
      for (std::size_t s = 0; s < streams_; ++s) {
        const std::uint64_t m = stream_mask_[s];
        std::uint64_t total = 0;
        if (sums.k != 0) {
          for (unsigned j = 0; j < sums.k; ++j) {
            total += static_cast<std::uint64_t>(popcount64(sums.p[j] & m))
                     << j;
          }
        } else {
          for (unsigned b = 0; b < w; ++b) total += popcount64(diff[b] & m);
        }
        c[s] += total;
      }
    } else {
      add_small(net, diff, w);
    }
    if (sim_.probe_ != nullptr) probe_net(net, diff, w, sums);
  }

  /// Add each diff plane into its bit's small counter (a branch-free
  /// bit-sliced increment), and flush the net after kFlushWrites writes.
  void add_small(NetId net, const std::uint64_t* diff, unsigned w) {
    std::uint64_t* c = small_counters(net);
    for (unsigned b = 0; b < w; ++b, c += kSmallPlanes) {
      std::uint64_t carry = diff[b];
      for (unsigned j = 0; j + 1 < kSmallPlanes; ++j) {
        const std::uint64_t x = c[j];
        c[j] = x ^ carry;
        carry &= x;
      }
      c[kSmallPlanes - 1] ^= carry;
    }
    if (++unflushed_[net.index()] == kFlushWrites) flush(net);
  }
  std::uint64_t* small_counters(NetId net) {
    return small_counters_.data() +
           std::size_t{sim_.plane_offset_[net.index()]} * kSmallPlanes;
  }
  /// Sum `net`'s small counters into its deep vertical counter, clearing
  /// them.
  void flush(NetId net);

  /// Count a write's counted toggles into the attached probe: their total
  /// across lanes for an aggregate row, else the per-lane sums `s` into the
  /// counter of the net's (data) energy class, weighed when the step closes.
  void probe_net(NetId net, const std::uint64_t* diff, unsigned w,
                 const LaneSums& s) {
    if (!per_group_probe_) {
      sim_.probe_->add_net(net.index(), planes_total(diff, w));
      return;
    }
    const std::uint32_t c = sim_.probe_->net_class(net.index());
    const DataClass& dc = classes_[c - first_data_];
    MCRTL_CHECK_MSG(slice_counter_add(class_counters_.data() + dc.offset,
                                      dc.depth, s.p, s.k),
                    "bit-sliced class counter overflow");
    touched_[c / 64] |= std::uint64_t{1} << (c % 64);
  }

  /// The generic write of every input, settle, capture and preamble write:
  /// commit, count, dirty the fanout.
  void write_net(NetId net, const std::uint64_t* val, std::uint64_t count) {
    std::uint64_t diff[64];
    const std::uint64_t any = commit(net, val, count, diff);
    if (any == 0) return;
    if ((any & count) != 0) count_toggles(net, diff, width(net));
    mark_fanout_dirty(net);
  }

  /// Write a controller line or constant: the same word in every lane. Its
  /// toggles are counted from the static schedule, and so is its probe
  /// class, unless the energy model weighs it as data.
  void write_broadcast(NetId net, std::uint64_t value, std::uint64_t count) {
    const unsigned w = width(net);
    std::uint64_t buf[64];
    slice_broadcast(value, w, buf);
    uniform_scalar_[net.index()] = truncate(value, w);
    std::uint64_t diff[64];
    const std::uint64_t any = commit(net, buf, count, diff);
    if (any == 0) return;
    if ((any & count) != 0 && sim_.probe_ != nullptr &&
        sim_.probe_->net_class(net.index()) >= first_data_) {
      probe_net(net, diff, w, lane_sums(diff, w));
    }
    mark_fanout_dirty(net);
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
  /// Weigh the controller classes' row of every period step of `probe`
  /// for a group of S lanes. For per-group rows, also size one bit-sliced
  /// per-lane counter per data class, deep enough for any step: a net is
  /// written at most twice per step, each write flipping at most its width.
  void init_probe(PowerProbe& probe);
  /// Move a data class counter of `depth` planes into `sum` (room for
  /// depth + 1 planes) as 32 pair totals: lane pair g's sum is lane g of
  /// `sum`, clearing the counter. Returns the depth of `sum` (one more
  /// plane when a pair's total carries into it).
  static unsigned fold_pairs(std::uint64_t* counter, unsigned depth,
                             std::uint64_t* sum);
  /// Move the counts of the first `kLanes` lanes (a multiple of 8) out of
  /// a bit-sliced per-lane counter of `depth` planes into `cnt`, clearing
  /// the counter.
  template <unsigned kLanes>
  static void unpack_counts(std::uint64_t* counter, unsigned depth,
                            std::int32_t* cnt);
  /// Close step t (1..P) of local computation `comp` for the per-group
  /// probe: weigh the controller classes once and add fj × (the group's
  /// count) of every touched data class to the group rows, which are the
  /// step's rows of the probe's record.
  void close_group_rows(std::size_t comp, int t);
  /// `computations` counted master periods' controller-driven records —
  /// clock events, phase pulses, steps, controller-line toggles — with
  /// zeroed datapath toggle counts.
  Activity periods_activity(std::uint64_t computations) const;

  Simulator& sim_;
  const rtl::Design& design_;
  const rtl::DesignTables& tab_;
  const rtl::Netlist& nl_;
  const std::vector<rtl::Component>& comps_;
  const std::vector<SliceLane> lanes_;
  const std::size_t n_;
  const std::uint64_t lane_mask_;
  const std::size_t local_comps_;
  // Counted computations of every stream: its lanes' counted ranges tile
  // [0, computations_), the last lane's range ending it.
  const std::size_t computations_;
  const std::size_t streams_;  // S: lanes per group
  const std::size_t groups_;   // chunks per stream
  // A small time-sliced bundle needs only each stream's toggle totals:
  // then every counter is S plain totals, else a bit-sliced per-lane
  // vertical counter. words_ is the counter's size either way.
  const bool totals_;
  const unsigned words_;
  std::uint64_t stream_mask_[kMaxTotalsStreams] = {};  // lanes of stream s
  const bool time_sliced_;
  const bool per_group_probe_;
  std::vector<std::uint64_t> count_mask_;  // by local computation

  std::vector<std::uint64_t> net_counters_;  // num_nets x words_
  // Vertical passes: bit b of net i counts into kSmallPlanes planes at
  // plane (plane_offset_[i] + b) x kSmallPlanes; unflushed_ holds each
  // net's counted writes since its last flush.
  std::vector<std::uint64_t> small_counters_;
  std::vector<std::uint8_t> unflushed_;         // by NetId
  std::uint64_t flushes_ = 0;                   // adds into deep counters
  std::vector<std::uint8_t> uniform_;           // by NetId
  std::vector<std::uint64_t> uniform_scalar_;   // by NetId, uniform nets only
  std::vector<std::uint64_t> capture_buf_;      // D planes, read-before-write

  // The worklist, bucketed by level in one array: level L's entries fill
  // queue_[level_offset[L] .. bucket_end_[L]) in enqueue order.
  std::vector<CompId> queue_;
  std::vector<CompId*> bucket_end_;             // by level
  std::size_t pending_ = 0;
  std::vector<std::uint8_t> queued_;            // by CompId

  // Sampled outputs, one table per stream (moved into its SimResult): row
  // g for computation g, written by whichever lane counts it.
  std::vector<WordTable> samples_;

  // Probe state. ctrl_rows_ holds each period step's controller row.
  // Per-group rows: data class c (c >= first_data_) counts into
  // class_counters_[offset .. offset + depth); touched_ flags the classes
  // counted in the open step. While a step closes, a domain's group slots
  // in the record are valid once row_init_ says so, else they hold the
  // step's controller row.
  struct DataClass {
    std::size_t offset = 0;
    unsigned depth = 0;
  };
  std::size_t first_data_ = 0;
  std::vector<DataClass> classes_;
  std::vector<std::uint64_t> class_counters_;
  std::vector<std::uint64_t> touched_;
  std::size_t domains_ = 0;
  std::vector<double> ctrl_rows_;  // P × domains_: each step's controller row
  std::vector<std::uint8_t> row_init_;

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

void SlicedKernel::init_probe(PowerProbe& probe) {
  domains_ = static_cast<std::size_t>(probe.num_domains()) + 1;
  first_data_ = probe.num_controller_classes();
  std::vector<std::uint64_t> bound(probe.num_classes() - first_data_, 0);
  for (const auto& net : nl_.nets()) {
    const std::uint32_t c = probe.net_class(net.id.index());
    if (c >= first_data_) {
      bound[c - first_data_] += 2 * std::uint64_t{width(net.id)};
    } else {
      // Controller classes are weighed from the static schedule, which
      // only the controller and the constants drive.
      MCRTL_CHECK_MSG(uniform_[net.id.index()] != 0,
                      "energy model puts datapath net '"
                          << net.name << "' in a controller class");
    }
  }
  // Controller-driven events are the same in every lane and every period:
  // weigh each step's once, for a group of S lanes (all n_ = S lanes of an
  // aggregate row).
  const int P = design_.clocks.period();
  ctrl_rows_.resize(static_cast<std::size_t>(P) * domains_);
  std::vector<std::uint64_t> line(nl_.num_nets(), 0);
  const auto lines = tab_.lines_at(P);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const NetId net = tab_.line_net[i];
    line[net.index()] = truncate(lines[i], width(net));
  }
  for (int t = 1; t <= P; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    for (const auto& w : tab_.step_writes[ts]) {
      const std::uint64_t value = truncate(w.value, width(w.net));
      if (probe.net_class(w.net.index()) < first_data_) {
        probe.add_net(w.net.index(),
                      popcount64(line[w.net.index()] ^ value) * streams_);
      }
      line[w.net.index()] = value;
    }
    probe.add_phase_pulse(tab_.phase_by_step[ts], streams_);
    for (CompId cid : tab_.edge_clock_events[ts]) {
      probe.add_storage_clock(cid.index(), streams_);
    }
    probe.weigh_counts(ctrl_rows_.data() + (ts - 1) * domains_, first_data_);
  }
  if (!per_group_probe_) return;
  row_init_.resize(domains_);
  classes_.resize(bound.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < bound.size(); ++i) {
    classes_[i].offset = offset;
    classes_[i].depth =
        std::max(1u, static_cast<unsigned>(std::bit_width(bound[i])));
    offset += classes_[i].depth;
  }
  class_counters_.assign(offset, 0);
  touched_.assign((probe.num_classes() + 63) / 64, 0);
}

void SlicedKernel::flush(NetId net) {
  std::uint64_t* c = small_counters(net);
  // One net's counts after kFlushWrites writes: at most kFlushWrites x 64
  // per lane, kSmallPlanes + 6 planes.
  std::uint64_t sum[kSmallPlanes + 6] = {};
  unsigned k = kSmallPlanes;
  for (unsigned b = width(net); b != 0; --b, c += kSmallPlanes) {
    std::uint64_t carry = slice_add(sum, c, kSmallPlanes, sum);
    for (unsigned j = kSmallPlanes; carry != 0; ++j) {
      const std::uint64_t x = sum[j];
      sum[j] = x ^ carry;
      carry &= x;
      k = std::max(k, j + 1);
    }
    std::fill(c, c + kSmallPlanes, 0);
  }
  MCRTL_CHECK_MSG(slice_counter_add(net_counters_.data() + net.index() * words_,
                                    words_, sum, k),
                  "bit-sliced toggle counter overflow");
  unflushed_[net.index()] = 0;
  ++flushes_;
}

void SlicedKernel::close_group_rows(std::size_t comp, int t) {
  PowerProbe& probe = *sim_.probe_;
  // Step t's rows in the record: domain-major, G group slots per domain,
  // then the slots' totals.
  const std::size_t G = groups_;
  double* const rows = probe.sliced_block(comp) +
                       static_cast<std::size_t>(t - 1) * (domains_ + 1) * G;
  const double* const ctrl_row =
      ctrl_rows_.data() + static_cast<std::size_t>(t - 1) * domains_;
  std::fill(row_init_.begin(), row_init_.end(), 0);
  for (std::size_t w = 0; w < touched_.size(); ++w) {
    for (std::uint64_t bits = touched_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t c =
          w * 64 + static_cast<unsigned>(std::countr_zero(bits));
      const DataClass& dc = classes_[c - first_data_];
      std::uint64_t* const counter = class_counters_.data() + dc.offset;
      std::int32_t cnt[64];
      if (streams_ == 2) {
        // One bit-sliced add folds each lane pair into one group count.
        std::uint64_t sum[65];
        unpack_counts<32>(sum, fold_pairs(counter, dc.depth, sum), cnt);
      } else {
        unpack_counts<64>(counter, dc.depth, cnt);
        if (streams_ > 1) {
          for (std::size_t g = 0; g < G; ++g) {
            std::int32_t total = 0;
            for (std::size_t l = g * streams_; l < (g + 1) * streams_; ++l) {
              total += cnt[l];
            }
            cnt[g] = total;
          }
        }
      }
      // fj × count in every group slot, after the controller classes of
      // the domain and the data classes before this one.
      const double fj = probe.class_fj(c);
      const std::uint32_t d = probe.class_domain(c);
      double* const row = rows + d * G;
      if (row_init_[d] == 0) {
        row_init_[d] = 1;
        const double base = ctrl_row[d];
        for (std::size_t g = 0; g < G; ++g) {
          row[g] = base + fj * static_cast<double>(cnt[g]);
        }
      } else {
        for (std::size_t g = 0; g < G; ++g) {
          row[g] += fj * static_cast<double>(cnt[g]);
        }
      }
    }
    touched_[w] = 0;
  }
  for (std::size_t d = 0; d < domains_; ++d) {
    if (row_init_[d] == 0) std::fill(rows + d * G, rows + d * G + G, ctrl_row[d]);
  }
  // Every slot's total in domain order (0.0 + x == x).
  double* const totals = rows + domains_ * G;
  std::copy(rows, rows + G, totals);
  for (std::size_t d = 1; d < domains_; ++d) {
    for (std::size_t g = 0; g < G; ++g) totals[g] += rows[d * G + g];
  }
}

unsigned SlicedKernel::fold_pairs(std::uint64_t* counter, unsigned depth,
                                  std::uint64_t* sum) {
  std::uint64_t carry = 0;
  for (unsigned j = 0; j < depth; ++j) {
    const std::uint64_t x = counter[j] & kEvenLanes;
    const std::uint64_t y = (counter[j] >> 1) & kEvenLanes;
    counter[j] = 0;
    sum[j] = pack_even_lanes(x ^ y ^ carry);
    carry = (x & y) | (carry & (x ^ y));
  }
  sum[depth] = pack_even_lanes(carry);
  return carry != 0 ? depth + 1 : depth;
}

template <unsigned kLanes>
void SlicedKernel::unpack_counts(std::uint64_t* counter, unsigned depth,
                                 std::int32_t* cnt) {
  // Each plane's bits spread into one count byte per lane, eight lanes per
  // word, eight planes at a time. The counts of a step rarely need more
  // than four planes, so that case runs a fixed four.
  constexpr unsigned kWords = kLanes / 8;
  std::uint8_t bytes[kLanes];
  auto spread = [&](const std::uint64_t* planes, unsigned n) {
    std::uint64_t words[kWords] = {};
    for (unsigned j = 0; j < n; ++j) {
      for (unsigned g = 0; g < kWords; ++g) {
        words[g] |= kSpreadBytes[(planes[j] >> (8 * g)) & 0xFF] << j;
      }
    }
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(bytes, words, sizeof bytes);
    } else {
      for (unsigned g = 0; g < kWords; ++g) {
        for (unsigned i = 0; i < 8; ++i) {
          bytes[8 * g + i] = static_cast<std::uint8_t>(words[g] >> (8 * i));
        }
      }
    }
  };
  std::uint64_t high = 0;
  for (unsigned j = 4; j < depth; ++j) high |= counter[j];
  if (high == 0) {
    std::uint64_t planes[4] = {};
    std::copy(counter, counter + std::min(depth, 4u), planes);
    std::fill(counter, counter + std::min(depth, 4u), 0);
    spread(planes, 4);
    for (unsigned l = 0; l < kLanes; ++l) cnt[l] = bytes[l];
    return;
  }
  std::fill(cnt, cnt + kLanes, 0);
  for (unsigned base = 0; base < depth; base += 8) {
    spread(counter + base, std::min(depth - base, 8u));
    for (unsigned l = 0; l < kLanes; ++l) {
      cnt[l] += std::int32_t{bytes[l]} << base;
    }
  }
  std::fill(counter, counter + depth, 0);
}

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
  sim_.kernel_stats_.oblivious_evals += tab_.comb_order.size();
  if (pending_ == 0) return;
  std::uint64_t out[64];
  // Evaluating level L only enqueues deeper levels, so a level's fill is
  // final when the sweep reaches it.
  for (std::size_t l = 0; l < bucket_end_.size(); ++l) {
    CompId* const bucket = queue_.data() + tab_.level_offset[l];
    const auto n = static_cast<std::size_t>(bucket_end_[l] - bucket);
    for (std::size_t i = 0; i < n; ++i) {
      const rtl::Component& c = comps_[bucket[i].index()];
      // Every enqueue of this level happened before the level started.
      queued_[bucket[i].index()] = 0;
      ++sim_.kernel_stats_.evals;
      plane_evals_ += c.width;
      write_net(c.output, eval_comp(c, out), count);
    }
    pending_ -= n;
    bucket_end_[l] = bucket;
    if (pending_ == 0) break;
  }
}

void SlicedKernel::apply_inputs(std::size_t comp, std::uint64_t count) {
  // One row pointer per lane, then plain array indexing in the per-port
  // gather. Past the end of its stream a lane re-presents its last
  // computation, which changes nothing.
  const std::uint64_t* rows[64];
  for (std::size_t s = 0; s < n_; ++s) {
    const SliceLane& lane = lanes_[s];
    const std::size_t c = std::min(lane.first + comp, lane.stream->size() - 1);
    rows[s] = (*lane.stream)[c].data();
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

  // One probe record per pass: per-group rows fill the record in the
  // kernel's own layout, an aggregate row is appended per step.
  PowerProbe* const probe = sim_.probe_;
  if (per_group_probe_) {
    // Group g is chunk g: its lanes count computations [g·per, (g+1)·per).
    std::vector<std::size_t> first(groups_);
    for (std::size_t g = 0; g < groups_; ++g) {
      first[g] = lanes_[g * streams_].first;
    }
    probe->open_sliced(computations_, lanes_.front().count_end,
                       std::move(first), local_comps_);
  } else if (probe) {
    probe->reset();
  }

  // ---- preamble (uncounted), mirroring the scalar run() exactly ----------
  {
    mark_all_dirty();
    const auto lines = tab_.lines_at(P);
    for (std::size_t s = 0; s < lines.size(); ++s) {
      write_broadcast(tab_.line_net[s], lines[s], 0);
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
         tab_.storage_by_phase[static_cast<std::size_t>(nphases)]) {
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
  samples_.assign(streams_, WordTable(computations_, out_storage.size()));
  for (std::size_t comp = 0; comp < local_comps_; ++comp) {
    if (sim_.has_deadline_ &&
        std::chrono::steady_clock::now() > sim_.deadline_) {
      throw TimeoutError("sliced simulation exceeded its point deadline after " +
                         std::to_string(comp) + " of " +
                         std::to_string(local_comps_) + " computations");
    }
    const std::uint64_t count = count_mask_[comp];
    for (int t = 1; t <= P; ++t) {
      for (const auto& w : tab_.step_writes[static_cast<std::size_t>(t)]) {
        write_broadcast(w.net, w.value, count);
      }
      if (t == P) apply_inputs(comp + 1, count);
      settle(count);

      // Captures commit simultaneously: when an edge chains registers,
      // stage every D input before any Q output changes.
      const auto caps = tab_.edge_captures[static_cast<std::size_t>(t)];
      const bool staged = tab_.edge_chained[static_cast<std::size_t>(t)] != 0;
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
        write_net(c.output,
                  staged ? capture_buf_.data() + off : planes(c.inputs[0]),
                  count);
        off += c.width;
      }
      settle(count);
      if (per_group_probe_) {
        close_group_rows(comp, t);
      } else if (probe) {
        probe->end_step(ctrl_rows_.data() +
                        static_cast<std::size_t>(t - 1) * domains_);
      }
      if (t == T) {
        // Each counted lane writes its sample straight to its computation's
        // row of its stream's flat sample array.
        std::uint64_t* row[64];
        for (std::size_t s = 0; s < n_; ++s) {
          row[s] = (count >> s) & 1
                       ? samples_[s % streams_][lanes_[s].first + comp].data()
                       : nullptr;
        }
        std::uint64_t lanes[64];
        for (const auto& ch : out_chunks) {
          if (!ch.transpose) {
            for (std::size_t o = ch.first; o < ch.first + ch.count; ++o) {
              const rtl::Component& c = comps_[out_storage[o].index()];
              slice_unpack(planes(c.output), c.width, n_, lanes);
              for (std::size_t s = 0; s < n_; ++s) {
                if (row[s] != nullptr) row[s][o] = lanes[s];
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
              if (row[s] != nullptr) {
                row[s][o] = (lanes[s] >> shift) & bit_mask(w);
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
    if (time_sliced_ && streams_ > 1) {
      obs::count("sim.time_sliced.bundle_runs");
      obs::count("sim.time_sliced.bundle_streams", streams_);
    }
    if (totals_) obs::count("sim.time_sliced.stream_totals");
    if (time_sliced_ && sim_.computation_budget_ > 0) {
      obs::count("sim.time_sliced.budgeted_runs");
    }
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
    act.phase_pulses[static_cast<std::size_t>(tab_.phase_by_step[ts])] +=
        computations;
    for (CompId cid : tab_.edge_clock_events[ts]) {
      act.storage_clock_events[cid.index()] += computations;
    }
  }
  for (std::size_t s = 0; s < tab_.num_signals(); ++s) {
    act.net_toggles[tab_.line_net[s].index()] +=
        tab_.line_toggles[s] * computations;
  }
  act.steps = computations * static_cast<std::uint64_t>(P);
  act.computations = computations;
  return act;
}

std::vector<SimResult> SlicedKernel::results() {
  if (!totals_) {
    for (const auto& net : nl_.nets()) {
      if (unflushed_[net.id.index()] != 0) flush(net.id);
    }
    if (obs::enabled()) obs::count("sim.sliced.counter_flushes", flushes_);
  }
  std::vector<SimResult> results(streams_);
  for (std::size_t s = 0; s < streams_; ++s) {
    results[s].activity = periods_activity(computations_);
    results[s].outputs = std::move(samples_[s]);
  }
  // Per-stream totals of a counter: plain totals as they are, one stream's
  // vertical counter by popcounts, otherwise one transpose64 unpacks every
  // lane's total.
  std::uint64_t lanes[64];
  auto unpack = [&](const std::uint64_t* counter, auto&& add) {
    if (totals_) {
      for (std::size_t s = 0; s < streams_; ++s) add(s, counter[s]);
      return;
    }
    if (streams_ == 1) {
      add(0, lanes_total(counter, words_));
      return;
    }
    std::fill(lanes, lanes + 64, 0);
    std::copy(counter, counter + words_, lanes);
    transpose64(lanes);  // counter planes -> per-lane totals
    for (std::size_t l = 0; l < n_; ++l) add(l % streams_, lanes[l]);
  };
  for (std::size_t i = 0; i < nl_.num_nets(); ++i) {
    unpack(net_counters_.data() + i * words_,
           [&](std::size_t s, std::uint64_t v) {
             results[s].activity.net_toggles[i] += v;
           });
  }
  // A storage element's write toggles are its Q net's: captures are the
  // only counted writes to it.
  for (SimResult& r : results) {
    for (CompId cid : tab_.storage_by_phase.items) {
      r.activity.storage_write_toggles[cid.index()] =
          r.activity.net_toggles[comps_[cid.index()].output.index()];
    }
  }
  return results;
}

std::vector<const InputStream*> Simulator::checked_bundle(
    std::span<const InputStream> streams, std::size_t inputs,
    const char* fn) const {
  MCRTL_CHECK_MSG(mode_ == Mode::BitSliced,
                  fn << " requires a Mode::BitSliced simulator");
  MCRTL_CHECK_MSG(!observer_ && heatmap_ == nullptr,
                  fn << " takes no step observer or heatmap; attach them to "
                        "a scalar simulator's run()");
  MCRTL_CHECK_MSG(!streams.empty() && streams.size() <= kMaxStreams,
                  fn << " batches 1.." << kMaxStreams << " streams, got "
                     << streams.size());
  std::vector<const InputStream*> ptrs;
  for (const auto& s : streams) {
    MCRTL_CHECK_MSG(s.size() == streams[0].size(),
                    "all sliced streams must have equal length");
    check_stream_width(s, inputs);
    ptrs.push_back(&s);
  }
  return ptrs;
}

std::vector<SimResult> Simulator::run_sliced(
    const std::vector<InputStream>& streams,
    const std::vector<dfg::ValueId>& input_order,
    const std::vector<dfg::ValueId>& output_order) {
  obs::Span span("sim.run");
  fault::inject("sim.run");
  return run_chunked(
      checked_bundle(streams, input_order.size(), "run_sliced()"), 1,
      input_order, output_order, false);
}

std::vector<SimResult> Simulator::run_time_sliced(
    std::span<const InputStream> streams,
    const std::vector<dfg::ValueId>& input_order,
    const std::vector<dfg::ValueId>& output_order) {
  obs::Span span("sim.run");
  fault::inject("sim.run");
  const auto ptrs =
      checked_bundle(streams, input_order.size(), "run_time_sliced()");
  std::size_t chunks = kMaxStreams / streams.size();
  if (chunks > 1 && !time_sliceable()) {
    obs::count("sim.time_sliced.fallbacks");
    chunks = 1;  // the lockstep layout, exact for any design
  }
  return run_chunked(ptrs, chunks, input_order, output_order, true);
}

std::vector<SimResult> Simulator::run_chunked(
    const std::vector<const InputStream*>& streams, std::size_t chunks,
    const std::vector<dfg::ValueId>& input_order,
    const std::vector<dfg::ValueId>& output_order, bool time_sliced) {
  std::size_t n = streams.front()->size();
  if (time_sliced) {
    std::fill(net_planes_.begin(), net_planes_.end(), 0);
    // A budget truncates the layout, not the streams: the last boundary
    // still presents computation n's inputs, as a budgeted run() does.
    if (computation_budget_ > 0) n = std::min(computation_budget_, n);
  }
  std::size_t local = 0;
  auto lanes = chunk_lanes(streams, n, chunks, local);
  SlicedKernel kernel(*this, std::move(lanes), local, streams.size(),
                      time_sliced);
  kernel.simulate(input_order, output_order);
  return kernel.results();
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
  const rtl::Netlist& nl = design_->netlist;
  const auto& comps = nl.components();
  const int P = design_->clocks.period();
  std::vector<std::uint8_t> known(nl.num_nets(), 0);
  // The value every controller line and constant carries in the step being
  // settled: the boundary state (step P), then the tabulated per-step
  // controller deltas.
  std::vector<std::uint8_t> is_static(nl.num_nets(), 0);
  std::vector<std::uint64_t> static_val(nl.num_nets(), 0);
  for (const auto& c : comps) {
    if (c.kind == CompKind::InputPort || c.kind == CompKind::ControlSource ||
        c.kind == CompKind::Constant) {
      known[c.output.index()] = 1;
    }
    if (c.kind == CompKind::Constant) {
      is_static[c.output.index()] = 1;
      static_val[c.output.index()] = from_signed(c.const_value, c.width);
    }
  }
  const auto lines = tab_->lines_at(P);
  for (std::size_t s = 0; s < lines.size(); ++s) {
    is_static[tab_->line_net[s].index()] = 1;
    static_val[tab_->line_net[s].index()] = lines[s];
  }
  auto static_value = [&](NetId net, std::uint64_t& v) {
    v = static_val[net.index()];
    return is_static[net.index()] != 0;
  };
  auto settle = [&] {
    for (CompId cid : tab_->comb_order) {
      const rtl::Component& c = comps[cid.index()];
      const auto k = [&](NetId net) { return known[net.index()] != 0; };
      std::uint64_t v = 0;
      bool out = false;
      if (c.kind == CompKind::Mux || c.kind == CompKind::Bus) {
        if (static_value(c.select, v)) {
          out = v < c.inputs.size() && k(c.inputs[v]);
        } else {
          out = k(c.select) && std::all_of(c.inputs.begin(), c.inputs.end(), k);
        }
      } else if (c.kind == CompKind::IsoGate) {
        if (static_value(c.select, v)) {
          out = v != 0 ? k(c.inputs[0]) : k(c.output);
        } else {
          out = k(c.select) && k(c.inputs[0]) && k(c.output);
        }
      } else {  // Alu
        bool unary = false;
        if (!c.select.valid()) {
          unary = dfg::op_arity(c.funcs[0]) == 1;
          out = true;
        } else if (static_value(c.select, v)) {
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
    const auto caps = tab_->edge_captures[static_cast<std::size_t>(t)];
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
  settle();
  edge(P);
  settle();
  for (int t = 1; t <= P; ++t) {
    for (const auto& w : tab_->step_writes[static_cast<std::size_t>(t)]) {
      static_val[w.net.index()] = w.value;
    }
    settle();
    edge(t);
    settle();
  }
  return std::all_of(known.begin(), known.end(),
                     [](std::uint8_t x) { return x != 0; });
}

}  // namespace mcrtl::sim
