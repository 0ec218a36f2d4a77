// Design-space exploration over the paper's knobs.
//
// The paper ends on "there is an obvious trade-off between the amount of
// power reduction and the amount of area increase" with diminishing returns
// in the clock count. The explorer automates that trade-off study: it
// enumerates configurations (clock counts, allocation method, memory
// element style, the conventional baselines), measures each by simulation,
// verifies functional equivalence, marks the power/area Pareto frontier,
// and can answer "lowest power under an area budget".
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/synthesizer.hpp"
#include "power/estimator.hpp"

namespace mcrtl::core {

/// One evaluated configuration.
struct ExplorationPoint {
  SynthesisOptions options;
  std::string label;
  power::PowerBreakdown power;
  power::AreaBreakdown area;
  rtl::DesignStats stats;
  /// Monte-Carlo spread of the total-power estimate across the stimulus
  /// streams (ExplorerConfig::streams): sample standard deviation and the
  /// 95% confidence half-width of `power.total`. Zero when streams == 1 —
  /// a single stream carries no spread information.
  double power_stddev = 0.0;
  double power_ci95 = 0.0;
  /// Power-attribution profile of the point's run (power::Attribution):
  /// the hottest component (most attributed fJ; deterministic energy-desc /
  /// name-asc tie-break), its share of the run's total attributed energy,
  /// and the crest factor (peak/mean) of the per-master-cycle energy
  /// waveform. With streams > 1 these describe the aggregate across all
  /// streams (integer toggle counts add, so the aggregate is
  /// stream-permutation invariant).
  std::string hotspot;
  double hotspot_share = 0.0;
  double crest = 0.0;
  bool pareto = false;  ///< on the power/area frontier
};

/// The objective vector of a design point — the one place that defines
/// which measured fields trade off against each other. Both the explorer's
/// result ordering / Pareto marking and the search layer's ParetoFront and
/// dominance early-abort compare points through these accessors, so the
/// two can never disagree on what "better" means (and nothing re-derives
/// area or period from report strings).
struct PointMetrics {
  double power = 0.0;   ///< mW (PowerBreakdown::total)
  double area = 0.0;    ///< λ² (AreaBreakdown::total)
  double period = 0.0;  ///< master cycles per computation (DesignStats)
};

PointMetrics point_metrics(const ExplorationPoint& p);

/// Weak Pareto dominance over (power, area, period): `a` is no worse in
/// every objective and strictly better in at least one.
bool dominates(const PointMetrics& a, const PointMetrics& b);

/// The historical explorer dominance: power/area only (period ignored) —
/// the frontier the `ExplorationPoint::pareto` flag marks.
bool dominates_power_area(const PointMetrics& a, const PointMetrics& b);

/// The explorer's result ordering: ascending power, area-then-period
/// tie-break. Strict weak ordering; used by explore()'s final sort and by
/// the search layer so fresh, cached and exhaustive row sets agree
/// byte-for-byte on order.
bool point_order_less(const ExplorationPoint& a, const ExplorationPoint& b);

struct ExplorerConfig {
  int max_clocks = 4;
  bool include_conventional = true;
  bool include_split = true;
  bool include_dff_variant = false;  ///< also try multi-clock with DFFs
  std::size_t computations = 1500;
  std::uint64_t seed = 1;
  /// Independent Monte-Carlo stimulus streams per point (1..64), stream s
  /// drawn from sim::stream_seed(seed, streams, s). 1 (the default) is the
  /// paper's protocol: one stream from Rng(seed). N > 1 evaluates every
  /// point over N independently seeded streams in one pass: the reported
  /// power becomes the per-stream sample mean and each point additionally
  /// carries power_stddev / power_ci95. Each of the N streams is
  /// `computations` long, so the per-point simulated work scales with N
  /// (while the settle cost is shared across the 64 lanes).
  std::size_t streams = 1;
  power::PowerParams power_params;
  /// Worker threads for point evaluation. 1 = serial (no pool is created,
  /// existing callers are unaffected); <= 0 = auto (hardware concurrency).
  /// The result is bit-identical for every value of `jobs` — see the
  /// determinism contract on explore().
  int jobs = 1;
  /// Optional progress hook, called once per evaluated point *before* the
  /// final sort (i.e. in no particular order). With jobs > 1 it is invoked
  /// concurrently from worker threads; the callback must be thread-safe.
  /// Exceptions thrown here propagate out of explore() even with quarantine
  /// on (the hook is caller code, not a design point). Points replayed from
  /// the checkpoint journal are reported through the hook like freshly
  /// evaluated ones.
  std::function<void(const ExplorationPoint&)> on_point;

  // ---- crash safety / fault isolation (see DESIGN.md §9) -------------------
  /// Append-only checkpoint journal (core/checkpoint.hpp). Empty =
  /// disabled. When set, completed points are journalled (fsync'd) as they
  /// finish, and a re-run with the same configuration replays them instead
  /// of re-evaluating — the resumed result is byte-identical to an
  /// uninterrupted run. A journal written by a *different* configuration
  /// throws JournalMismatchError; an unreadable journal degrades to a
  /// fresh sweep.
  std::string checkpoint_file;
  /// Fault isolation: instead of aborting the sweep, record a failing
  /// configuration in ExplorationResult::failed_points and keep going.
  /// Every point is evaluated exactly once: a point is a deterministic
  /// simulation, so a failure would recur on any retry. Off by default —
  /// the historical contract (the earliest enumerated failure is thrown)
  /// is unchanged unless requested.
  bool quarantine = false;
  /// Per-point deadline in seconds (0 = none), enforced cooperatively
  /// inside the simulation loop (sim::Simulator::set_deadline). An expired
  /// point fails with mcrtl::TimeoutError and follows the normal
  /// quarantine path.
  double point_timeout_s = 0.0;
  /// Evaluate exactly these (options, label) pairs instead of the built-in
  /// enumeration (empty = the historical enumeration over the knobs
  /// above). This is how the search layer runs its full-depth survivor
  /// re-simulation through the ordinary explorer pipeline — journal,
  /// quarantine and determinism contracts included. Labels should be
  /// distinct; configurations need not be (every pair is evaluated, so the
  /// caller passes one per design it wants measured).
  std::vector<std::pair<SynthesisOptions, std::string>> explicit_configs;
};

/// A configuration whose evaluation failed under
/// ExplorerConfig::quarantine.
struct FailedPoint {
  SynthesisOptions options;
  std::string label;
  std::string error;  ///< what() of the failure
};

/// Result of an exploration.
struct ExplorationResult {
  std::vector<ExplorationPoint> points;  ///< sorted by ascending power
  /// Quarantined configurations (ExplorerConfig::quarantine), in
  /// enumeration order. Always empty when quarantine is off.
  std::vector<FailedPoint> failed_points;
  /// Points restored from the checkpoint journal instead of re-evaluated.
  std::size_t replayed_points = 0;

  /// Lowest-power point whose total area is <= `area_budget` (λ²);
  /// nullopt if none fits.
  std::optional<ExplorationPoint> best_under_area(double area_budget) const;
  /// The overall lowest-power point (points are sorted; front()).
  const ExplorationPoint& best_power() const;
};

/// The (fixed) configuration enumeration order `explore()` evaluates for
/// `cfg`, as (options, label) pairs. Exposed so callers (the CLI's
/// `--progress` ETA, tests) can know the point count and labels up front
/// without running anything.
std::vector<std::pair<SynthesisOptions, std::string>> enumerate_configurations(
    const ExplorerConfig& cfg);

/// Number of design points explore() evaluates for `cfg` — the size of
/// the enumeration.
std::size_t num_configurations(const ExplorerConfig& cfg);

/// Explore `graph`/`sched`. Every point is simulated with the same input
/// stream and checked equivalent to the golden model (throws on mismatch —
/// a broken configuration must never be reported as a design point). Each
/// point runs the RTL simulation exactly once: the sampled outputs feed the
/// equivalence check and the same run's Activity feeds the power estimate.
/// With jobs > 1, points are submitted to the pool in descending cost rank
/// (clock count, then allocation method), which spreads the expensive
/// configurations over the worker queues; the streams' stimulus and golden
/// outputs are prepared on the same pool first, one task per stream. The
/// result is unaffected.
///
/// Determinism contract: the stimulus stream is derived from `cfg.seed`
/// before any point is evaluated, and shared read-only by all workers; each configuration writes its measurement into a slot indexed
/// by its position in the (fixed) enumeration order, and the final
/// stable sort + Pareto marking run after the join. The returned
/// ExplorationResult is therefore bit-identical for every `jobs` value.
/// If several points fail, the exception of the *earliest* configuration
/// in enumeration order is thrown — the same one a serial run reports.
///
/// Crash safety: with `cfg.checkpoint_file` set, every completed point is
/// journalled before the sweep moves on, and a re-run replays the journal
/// and evaluates only what is missing; the returned result (and hence any
/// CSV/JSON report derived from it) is byte-identical to an uninterrupted
/// run, for any jobs value on either side of the interruption. With
/// `cfg.quarantine` set, failing configurations (including per-point
/// deadline expiries) are collected into `failed_points` instead of
/// aborting the sweep.
ExplorationResult explore(const dfg::Graph& graph, const dfg::Schedule& sched,
                          const ExplorerConfig& cfg = {});

}  // namespace mcrtl::core
