// Guided design-space search: successive-halving budgets, dominance
// early-abort, and a fingerprint-keyed persistent result cache.
//
// The exhaustive explorer (core/explorer.hpp) simulates every enumerated
// configuration at full depth. That is the right tool for one behaviour
// and a dozen variants, but a grid over {benchmark × width × schedule ×
// synthesis knobs} has thousands of points, almost all of which are
// nowhere near the power/area/period frontier the paper's trade-off study
// cares about. `core::search()` finds the same frontier for a fraction of
// the simulated cycles:
//
//  1. **Successive halving.** Every candidate is first simulated for a
//     short prefix of the stimulus (Simulator::set_computation_budget —
//     the same cooperative-stop plumbing as the per-point deadline — on
//     the time-sliced bit-sliced kernel, bit-identical to a budgeted
//     scalar run). Power estimates are per-cycle normalized, so a prefix
//     estimate is directly comparable to a full-depth one. Rung budgets
//     grow geometrically (`budget_rungs` rungs, the last at half depth),
//     but only *contested* candidates climb them: the promoted top
//     `promote_fraction` and any candidate nothing dominates even without
//     the slack are settled at the first rung that decides them and go
//     straight to full depth — re-measuring a settled candidate at a
//     deeper prefix cannot change its verdict. A contested candidate
//     (protected only by the slack) gets a sharper estimate at the next
//     rung, which may abort it.
//  2. **Dominance early-abort.** A candidate below the promotion cut is
//     aborted only if its *optimistic* objective vector — prefix power
//     scaled down by `optimism`, exact area, exact period — is Pareto-
//     dominated by a fully-evaluated row or by any active peer's
//     *pessimistic* vector (prefix power scaled up by 1/optimism) in the
//     same dominance group. Peers that themselves abort are still sound
//     references: weak dominance is transitive, so every abort chain
//     terminates at a protected survivor whose pessimistic bound covers
//     the whole chain. A below-cut candidate nothing dominates is
//     protected and advances anyway: rank pruning alone could drop a
//     unique low-area point whose power rank is mediocre, which would
//     corrupt the front.
//  3. **Full-depth re-simulation.** Final survivors are re-evaluated at
//     full depth *through `explore()`* (ExplorerConfig::explicit_configs),
//     so every reported row went through exactly the exhaustive pipeline —
//     equivalence check, Monte-Carlo streams, attribution — and is
//     bit-identical to the row an exhaustive sweep would report.
//  4. **Result cache.** With `cache_db` set, full rows are persisted keyed
//     by measurement_fingerprint(behaviour) ^ config_hash(options) — valid
//     across sweeps, so overlapping grids reuse each other's work — and
//     pruned candidates are persisted as markers keyed by the whole-sweep
//     fingerprint (a pruning decision depends on the entire grid, so it is
//     only replayable for the identical search). A repeated search is
//     100% cache hits and simulates nothing.
//
// Determinism contract: prefix measurements are written into slots indexed
// by candidate order and every promote/abort decision happens at a rung
// barrier on the complete, deterministic estimate set — the surviving set,
// the final rows, and the Pareto front are bit-identical for every `jobs`
// value and for cached-vs-fresh runs (tests/test_search.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/explorer.hpp"

namespace mcrtl::core {

/// One behaviour (graph + schedule) of the search space. Non-owning: the
/// caller keeps the graph/schedule alive for the duration of search().
struct SearchBehaviour {
  std::string name;  ///< e.g. "facet/w4/lim2"
  const dfg::Graph* graph = nullptr;
  const dfg::Schedule* sched = nullptr;
  /// Dominance group. Behaviours sharing a group compete on a single
  /// Pareto front and may abort each other's candidates — use it for
  /// alternative implementations of the *same* function under the same
  /// workload (e.g. different schedules of one benchmark at one width,
  /// group "facet/w4"). Empty = the behaviour is its own group. Grouping
  /// behaviours whose per-computation power is not comparable (different
  /// benchmarks, different widths) makes the front meaningless.
  std::string group;
};

/// One candidate design point: a behaviour crossed with a synthesis
/// configuration. Labels must be unique across the space.
struct SearchCandidate {
  std::size_t behaviour = 0;  ///< index into SearchSpace::behaviours
  SynthesisOptions options;
  std::string label;
};

struct SearchSpace {
  std::vector<SearchBehaviour> behaviours;
  std::vector<SearchCandidate> candidates;
};

/// The synthesis-knob axis of a default search grid: conventional
/// baselines plus multi-clock {n × method × memory element × operand
/// isolation × interconnect} ablations (58 variants at max_clocks = 4).
std::vector<std::pair<SynthesisOptions, std::string>> search_variants(
    int max_clocks = 4);

/// Cross every behaviour already in `space` with `variants`: appends one
/// candidate per (behaviour, variant), labelled
/// "<behaviour.name>/<variant label>".
void cross_variants(
    SearchSpace& space,
    const std::vector<std::pair<SynthesisOptions, std::string>>& variants);

/// Upper bound on SearchConfig::budget_rungs (search() rejects more): past
/// 16 halvings every rung of a realistic depth is at the 8-computation
/// floor.
constexpr int kMaxBudgetRungs = 16;

struct SearchConfig {
  std::size_t computations = 1500;
  std::uint64_t seed = 1;
  /// Monte-Carlo streams for the *full-depth* evaluation (prefix rungs
  /// always rank on the first stream — the ranking needs speed, not
  /// confidence intervals).
  std::size_t streams = 1;
  power::PowerParams power_params;
  int jobs = 1;
  /// Number of prefix rungs before full depth, 0..kMaxBudgetRungs. Rung r
  /// simulates max(8, computations >> (budget_rungs - r)) computations, so
  /// the last rung runs at half depth. 0 = no prefix stage: every candidate
  /// is evaluated at full depth (the search degenerates to a cached
  /// exhaustive sweep).
  int budget_rungs = 3;
  /// Fraction of a dominance group's active candidates promoted
  /// unconditionally at each rung (by ascending prefix power; area/period
  /// tie-breaks). Promoted candidates are never abort candidates at that
  /// rung, whatever dominates them.
  double promote_fraction = 0.4;
  /// Prefix-estimate slack in (0, 1]: a candidate's optimistic power bound
  /// is `estimate * optimism`, a promoted peer's pessimistic bound is
  /// `estimate / optimism`. 1.0 trusts prefixes exactly; lower values
  /// prune less and protect the front against prefix noise.
  double optimism = 0.85;
  /// Never abort a dominance group below this many surviving candidates.
  std::size_t min_survivors = 4;
  /// Persistent result-cache DB (empty = no cache). Missing file = cold
  /// cache; corrupt lines are skipped (obs counter
  /// `search.cache.bad_lines`), never fatal.
  std::string cache_db;
};

/// A fully-evaluated row of the search result.
struct SearchRow {
  std::string behaviour;
  /// Dominance group the row competes in (the behaviour's group, or the
  /// behaviour name when no group was set).
  std::string group;
  ExplorationPoint point;
  /// On the 3-objective (power, area, period) Pareto front *within its
  /// dominance group* — cross-benchmark dominance is meaningless.
  bool pareto = false;
  /// Label of the lowest-power same-group row that dominates this one
  /// (empty iff `pareto`).
  std::string dominated_by;
  bool from_cache = false;  ///< replayed from the cache DB, not simulated
};

/// A candidate aborted before full depth.
struct PrunedCandidate {
  std::string behaviour;
  std::string label;
  int rung = 0;  ///< rung index (0-based) at which it was aborted
  /// Label of the reference point whose bound dominated this candidate's
  /// optimistic bound.
  std::string dominated_by;
  bool from_cache = false;  ///< replayed from a sweep-fingerprint marker
};

struct SearchResult {
  /// Fully-evaluated rows, sorted by (behaviour, power asc, area, period,
  /// label) — a deterministic total order.
  std::vector<SearchRow> rows;
  /// Aborted candidates, in candidate-enumeration order.
  std::vector<PrunedCandidate> pruned;
  std::size_t cache_hits = 0;    ///< rows + markers replayed from cache_db
  std::size_t cache_misses = 0;  ///< candidates that needed simulation
  std::size_t aborted = 0;       ///< freshly aborted this run
  std::size_t full_evaluations = 0;  ///< freshly simulated at full depth
  int rungs_run = 0;
  std::uint64_t sweep_fingerprint = 0;
};

/// The (power, area, period) Pareto front of a search result.
struct ParetoFront {
  /// Indices into `rows` that are on their behaviour's front, in row
  /// order.
  std::vector<std::size_t> indices;
  static ParetoFront compute(const std::vector<SearchRow>& rows);
};

/// Set `pareto` / `dominated_by` on every row (per dominance group —
/// `group`, falling back to `behaviour` when empty — 3-objective weak
/// dominance). `rows` may be in any order; annotation is
/// order-independent. Returns the front.
ParetoFront annotate_front(std::vector<SearchRow>& rows);

/// Persistent search result cache ("mcrtl-cache v1"): a line-oriented DB
/// of full-row records (`r <key> <point fields> <crc>`, valid across
/// sweeps) and pruned markers (`x <sweep_fp> <key> <rung> <by> <crc>`,
/// valid only for the identical sweep). Tolerant of damage anywhere in the
/// file — a bad line is skipped and counted, never trusted.
class ResultCache {
 public:
  struct PrunedMark {
    int rung = 0;
    std::string dominated_by;
  };

  /// Merge the DB at `path` into this cache (later records win). Missing
  /// file = no-op. Returns the number of malformed lines skipped.
  std::size_t load(const std::string& path);

  /// What load_and_compact() found and did.
  struct CompactStats {
    std::size_t bad_lines = 0;   ///< corrupt lines dropped
    std::size_t superseded = 0;  ///< records shadowed by a later same-key line
    bool rewritten = false;      ///< the on-disk DB was rewritten
  };

  /// load() plus housekeeping: a DB that has accumulated superseded
  /// duplicates (append-heavy histories) or corrupt lines is rewritten in
  /// place (atomic save) so it does not grow with every run. A clean DB is
  /// left untouched byte-for-byte. The surviving records are exactly what
  /// load() would have yielded, so a compacted DB replays identically
  /// (asserted by tests/test_search.cpp).
  CompactStats load_and_compact(const std::string& path);

  const ExplorationPoint* find_row(std::uint64_t key) const;
  const PrunedMark* find_pruned(std::uint64_t sweep_fp,
                                std::uint64_t key) const;

  void put_row(std::uint64_t key, const ExplorationPoint& p);
  void put_pruned(std::uint64_t sweep_fp, std::uint64_t key,
                  const PrunedMark& mark);

  /// Rewrite `path` atomically (tmp + rename) with every record this cache
  /// holds, in sorted key order. Returns false on I/O failure (the search
  /// result is unaffected — a broken disk degrades the cache, never the
  /// sweep).
  bool save(const std::string& path) const;

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_pruned() const { return pruned_.size(); }

 private:
  std::map<std::uint64_t, ExplorationPoint> rows_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, PrunedMark> pruned_;
  /// Within-call duplicate-key count of the most recent load().
  std::size_t last_superseded_ = 0;
};

/// Run the guided search over `space`. Throws on evaluation failure (the
/// earliest failing candidate in enumeration order, like explore()).
SearchResult search(const SearchSpace& space, const SearchConfig& cfg = {});

/// CSV of a search result: full rows (status=full) followed by pruned
/// candidates (status=pruned). Deliberately omits cache provenance so a
/// cached re-run's CSV is byte-identical to the fresh run's.
std::string search_to_csv(const SearchResult& res, bool pareto_only = false);

/// JSON array mirroring search_to_csv's rows.
std::string search_to_json(const SearchResult& res, bool pareto_only = false);

}  // namespace mcrtl::core
