#include "core/search.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "core/checkpoint.hpp"
#include "core/record.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace mcrtl::core {

namespace {

using record::fnv1a64;

/// Floor on a rung's prefix length: below this the toggle statistics are
/// too thin to rank anything.
constexpr std::size_t kMinPrefixComputations = 8;

constexpr const char* kCacheMagic = "mcrtl-cache v1";

/// Most distinct option sets search() remembers the config_hash() of.
constexpr std::size_t kHashMemo = 256;

/// Whether config_hash() reads the same input from `a` and `b`: equal
/// options, with function_add_cost compared bit for bit (0.0 and -0.0
/// compare equal but format, and so hash, differently).
bool same_hash_input(const SynthesisOptions& a, const SynthesisOptions& b) {
  return a == b && std::bit_cast<std::uint64_t>(a.fu.function_add_cost) ==
                       std::bit_cast<std::uint64_t>(b.fu.function_add_cost);
}

}  // namespace

// ---- search space construction ---------------------------------------------

std::vector<std::pair<SynthesisOptions, std::string>> search_variants(
    int max_clocks) {
  MCRTL_CHECK(max_clocks >= 1);
  std::vector<std::pair<SynthesisOptions, std::string>> v;
  {
    SynthesisOptions o;
    o.style = DesignStyle::ConventionalNonGated;
    v.emplace_back(o, "conv");
    o.style = DesignStyle::ConventionalGated;
    v.emplace_back(o, "conv-gated");
  }
  for (int n = 1; n <= max_clocks; ++n) {
    for (const AllocMethod method :
         {AllocMethod::Integrated, AllocMethod::Split}) {
      if (method == AllocMethod::Split && n == 1) continue;
      for (const bool latches : {true, false}) {
        for (const bool iso : {false, true}) {
          for (const auto ic : {rtl::BuildOptions::Interconnect::Mux,
                                rtl::BuildOptions::Interconnect::TristateBus}) {
            SynthesisOptions o;
            o.style = DesignStyle::MultiClock;
            o.num_clocks = n;
            o.method = method;
            o.use_latches = latches;
            o.operand_isolation = iso;
            o.interconnect = ic;
            v.emplace_back(
                o, str_format(
                       "%dclk-%s-%s%s%s", n,
                       method == AllocMethod::Split ? "split" : "int",
                       latches ? "latch" : "dff", iso ? "-iso" : "",
                       ic == rtl::BuildOptions::Interconnect::TristateBus
                           ? "-bus"
                           : ""));
          }
        }
      }
    }
  }
  return v;
}

void cross_variants(
    SearchSpace& space,
    const std::vector<std::pair<SynthesisOptions, std::string>>& variants) {
  space.candidates.reserve(space.candidates.size() +
                           space.behaviours.size() * variants.size());
  for (std::size_t b = 0; b < space.behaviours.size(); ++b) {
    for (const auto& [opts, label] : variants) {
      space.candidates.push_back(
          SearchCandidate{b, opts, space.behaviours[b].name + "/" + label});
    }
  }
}

// ---- Pareto front -----------------------------------------------------------

namespace {

/// Grouping key of a row: its dominance group, or the behaviour when the
/// caller never set one.
const std::string& row_group(const SearchRow& r) {
  return r.group.empty() ? r.behaviour : r.group;
}

}  // namespace

ParetoFront annotate_front(std::vector<SearchRow>& rows) {
  // Rows only compete inside their dominance group: bucket the row indices
  // by group once (ascending within a bucket) and take every row's metrics
  // once, so each row scans its own group instead of every row.
  std::vector<PointMetrics> metrics;
  metrics.reserve(rows.size());
  std::unordered_map<std::string_view, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    metrics.push_back(point_metrics(rows[i].point));
    groups[row_group(rows[i])].push_back(i);
  }
  for (const auto& [group, members] : groups) {
    for (std::size_t i : members) {
      // The minimal dominator under the explorer's point order is an
      // order-independent choice, so a cached re-run annotates identically
      // however its rows happened to be assembled.
      const SearchRow* best = nullptr;
      for (std::size_t j : members) {
        if (!dominates(metrics[j], metrics[i])) continue;
        if (best == nullptr || point_order_less(rows[j].point, best->point) ||
            (!point_order_less(best->point, rows[j].point) &&
             rows[j].point.label < best->point.label)) {
          best = &rows[j];
        }
      }
      rows[i].pareto = best == nullptr;
      rows[i].dominated_by = best ? best->point.label : std::string();
      rows[i].point.pareto = rows[i].pareto;
    }
  }
  ParetoFront front;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].pareto) front.indices.push_back(i);
  }
  return front;
}

ParetoFront ParetoFront::compute(const std::vector<SearchRow>& rows) {
  std::vector<SearchRow> copy = rows;
  return annotate_front(copy);
}

// ---- result cache -----------------------------------------------------------

std::size_t ResultCache::load(const std::string& path) {
  last_superseded_ = 0;
  std::string content;
  if (!record::read_file(path, content)) return 0;
  const std::string_view text = content;
  std::size_t bad = 0;
  std::size_t pos = 0;
  bool saw_header = false;
  std::string_view toks[1 + record::kPointTokens];
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    // A torn final line (crash mid-save before the rename) still carries a
    // checksum if it is complete in substance; parse it like any other.
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (!saw_header) {
      saw_header = true;
      if (line != kCacheMagic) {
        // Foreign or damaged header: nothing in this file can be trusted,
        // but the search must not die over a cache — treat as empty.
        return 1;
      }
      continue;
    }
    if (line.empty()) continue;
    std::string_view payload;
    if (!record::checked_payload(line, payload) ||
        (line[0] != 'r' && line[0] != 'x')) {
      ++bad;
      continue;
    }
    const std::size_t n = record::split(payload, toks);
    if (line[0] == 'r') {
      std::uint64_t key = 0;
      ExplorationPoint p;
      if (n != std::size(toks) || !record::decode_u64(toks[0], key) ||
          !record::decode_point_fields(std::span(toks).subspan<1>(), p)) {
        ++bad;
        continue;
      }
      if (!rows_.insert_or_assign(key, std::move(p)).second) {
        ++last_superseded_;
      }
    } else {
      std::uint64_t fp = 0, key = 0;
      PrunedMark mark;
      if (n != 4 || !record::decode_u64(toks[0], fp) ||
          !record::decode_u64(toks[1], key) ||
          !record::decode_int(toks[2], mark.rung) ||
          !record::decode_str(toks[3], mark.dominated_by)) {
        ++bad;
        continue;
      }
      if (!pruned_.insert_or_assign({fp, key}, std::move(mark)).second) {
        ++last_superseded_;
      }
    }
  }
  return bad;
}

ResultCache::CompactStats ResultCache::load_and_compact(
    const std::string& path) {
  CompactStats st;
  // Parse into a scratch cache so the duplicate count reflects the file
  // alone, not records this cache already held.
  ResultCache scratch;
  st.bad_lines = scratch.load(path);
  st.superseded = scratch.last_superseded_;
  const bool dirty = st.bad_lines > 0 || st.superseded > 0;
  // Never rewrite a file we parsed zero records from: an all-corrupt (or
  // foreign) file is worth more to the user as evidence than as an empty
  // fresh DB.
  if (dirty && scratch.rows_.size() + scratch.pruned_.size() > 0) {
    st.rewritten = scratch.save(path);
  }
  // The file's records win: keep ours only where it has none, then adopt
  // the merged nodes without copying a point.
  scratch.rows_.merge(rows_);
  scratch.pruned_.merge(pruned_);
  rows_.swap(scratch.rows_);
  pruned_.swap(scratch.pruned_);
  return st;
}

const ExplorationPoint* ResultCache::find_row(std::uint64_t key) const {
  const auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

const ResultCache::PrunedMark* ResultCache::find_pruned(
    std::uint64_t sweep_fp, std::uint64_t key) const {
  const auto it = pruned_.find({sweep_fp, key});
  return it == pruned_.end() ? nullptr : &it->second;
}

void ResultCache::put_row(std::uint64_t key, const ExplorationPoint& p) {
  rows_[key] = p;
}

void ResultCache::put_pruned(std::uint64_t sweep_fp, std::uint64_t key,
                             const PrunedMark& mark) {
  pruned_[{sweep_fp, key}] = mark;
}

bool ResultCache::save(const std::string& path) const {
  // tmp + rename keeps a reader (or a crashed writer) from ever seeing a
  // half-written DB: either the old file or the complete new one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    // One record at a time through one line buffer: the DB is never held
    // in memory twice.
    std::string line = kCacheMagic;
    line += '\n';
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    for (const auto& [key, p] : rows_) {
      line.clear();
      const std::size_t at = record::begin_record(line, 'r');
      record::append_u64(line, key);
      line += ' ';
      record::append_point_fields(line, p);
      record::end_record(line, at);
      out.write(line.data(), static_cast<std::streamsize>(line.size()));
    }
    for (const auto& [fpkey, mark] : pruned_) {
      line.clear();
      const std::size_t at = record::begin_record(line, 'x');
      record::append_u64(line, fpkey.first);
      line += ' ';
      record::append_u64(line, fpkey.second);
      line += ' ';
      record::append_decimal(line, mark.rung);
      line += ' ';
      record::append_str(line, mark.dominated_by);
      record::end_record(line, at);
      out.write(line.data(), static_cast<std::streamsize>(line.size()));
    }
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// ---- the search -------------------------------------------------------------

SearchResult search(const SearchSpace& space, const SearchConfig& cfg) {
  obs::Span span("search");
  MCRTL_CHECK_MSG(!space.behaviours.empty(), "search space has no behaviours");
  MCRTL_CHECK_MSG(!space.candidates.empty(), "search space has no candidates");
  MCRTL_CHECK_MSG(cfg.budget_rungs >= 0 && cfg.budget_rungs <= kMaxBudgetRungs,
                  "budget_rungs must be in 0.." << kMaxBudgetRungs << ", got "
                                                << cfg.budget_rungs);
  MCRTL_CHECK_MSG(cfg.promote_fraction > 0.0 && cfg.promote_fraction <= 1.0,
                  "promote_fraction must be in (0, 1]");
  MCRTL_CHECK_MSG(cfg.optimism > 0.0 && cfg.optimism <= 1.0,
                  "optimism must be in (0, 1]");
  MCRTL_CHECK(cfg.computations >= 1);
  MCRTL_CHECK_MSG(cfg.streams >= 1 && cfg.streams <= sim::Simulator::kMaxStreams,
                  "SearchConfig::streams must be in 1.."
                      << sim::Simulator::kMaxStreams);
  for (const auto& b : space.behaviours) {
    MCRTL_CHECK_MSG(b.graph != nullptr && b.sched != nullptr,
                    "behaviour '" << b.name << "' has no graph/schedule");
    b.graph->validate();
    b.sched->validate();
  }
  {
    std::unordered_set<std::string_view> labels;
    labels.reserve(space.candidates.size());
    for (const auto& c : space.candidates) {
      MCRTL_CHECK_MSG(c.behaviour < space.behaviours.size(),
                      "candidate '" << c.label
                                    << "' references an unknown behaviour");
      MCRTL_CHECK_MSG(labels.insert(c.label).second,
                      "duplicate candidate label '" << c.label << "'");
    }
  }

  const auto tech = power::TechLibrary::cmos08();
  const std::size_t nb = space.behaviours.size();
  const std::size_t nc = space.candidates.size();

  // Dense dominance-group ids (behaviours with no group are their own).
  std::vector<std::size_t> gid(nb);
  std::size_t ng = 0;
  {
    std::unordered_map<std::string, std::size_t> ids;
    for (std::size_t b = 0; b < nb; ++b) {
      const auto& bh = space.behaviours[b];
      const std::string& g = bh.group.empty() ? bh.name : bh.group;
      gid[b] = ids.emplace(g, ids.size()).first->second;
    }
    ng = ids.size();
  }

  // Per-behaviour measurement identity.
  std::vector<std::uint64_t> bfp(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    const auto& bh = space.behaviours[b];
    bfp[b] = measurement_fingerprint(*bh.graph, *bh.sched, cfg.computations,
                                     cfg.seed, cfg.streams, cfg.power_params);
  }

  // Per-candidate cache keys and in-space deduplication (identical
  // behaviour + options evaluate once; duplicates are fanned out at
  // assembly). A grid crosses every behaviour with the same few dozen
  // option sets, so each distinct set is hashed once; the scan for it
  // starts after the previous hit, where the next candidate's set usually
  // sits. Past kHashMemo distinct sets, a new one is hashed directly, so
  // a space of all-distinct options never pays a quadratic scan.
  std::vector<std::uint64_t> key(nc);
  std::vector<std::size_t> canonical(nc);
  {
    std::vector<std::pair<const SynthesisOptions*, std::uint64_t>> hashes;
    std::size_t next = 0;
    std::unordered_map<std::uint64_t, std::size_t> first;
    first.reserve(nc);
    for (std::size_t i = 0; i < nc; ++i) {
      const SynthesisOptions& opts = space.candidates[i].options;
      std::size_t at = hashes.size();
      for (std::size_t k = 0; k < hashes.size(); ++k) {
        const std::size_t j = (next + k) % hashes.size();
        if (same_hash_input(*hashes[j].first, opts)) {
          at = j;
          break;
        }
      }
      std::uint64_t hash = 0;
      if (at < hashes.size()) {
        hash = hashes[at].second;
        next = at + 1;
      } else {
        hash = config_hash(opts);
        if (hashes.size() < kHashMemo) hashes.emplace_back(&opts, hash);
      }
      key[i] = bfp[space.candidates[i].behaviour] ^ hash;
      canonical[i] = first.emplace(key[i], i).first->second;
    }
  }

  // The sweep fingerprint pins everything a pruning decision depends on:
  // the full candidate key list (order included), each candidate's
  // dominance group, and the pruning knobs. A pruned marker from any
  // other sweep must not be replayed — the point might survive a
  // different grid or a different grouping. The bytes are hashed line by
  // line as they are formed.
  std::uint64_t sweep_fp = 0;
  {
    std::string line = "mcrtl-search v2\n";
    record::append_decimal(line, cfg.budget_rungs);
    line += ' ';
    record::append_double(line, cfg.promote_fraction);
    line += ' ';
    record::append_double(line, cfg.optimism);
    line += ' ';
    record::append_decimal(line, cfg.min_survivors);
    line += '\n';
    sweep_fp = fnv1a64(line);
    for (std::size_t i = 0; i < nc; ++i) {
      line.clear();
      record::append_u64(line, key[i]);
      line += ' ';
      record::append_decimal(line, gid[space.candidates[i].behaviour]);
      line += '\n';
      sweep_fp = fnv1a64(line, sweep_fp);
    }
  }

  SearchResult result;
  result.sweep_fingerprint = sweep_fp;

  ResultCache cache;
  const bool use_cache = !cfg.cache_db.empty();
  if (use_cache) {
    obs::Span load_span("search.cache.load");
    // Compacting load: superseded duplicates and corrupt lines are dropped
    // from the DB on disk right away, so an append-heavy cache file cannot
    // grow without bound across runs.
    const auto cst = cache.load_and_compact(cfg.cache_db);
    if (cst.bad_lines > 0) obs::count("search.cache.bad_lines", cst.bad_lines);
    if (cst.superseded > 0) {
      obs::count("search.cache.superseded", cst.superseded);
    }
    if (cst.rewritten) obs::count("search.cache.compacted");
  }

  // Canonical-candidate state machine: Active -> (Locked | Row | Pruned).
  // Active candidates are still climbing prefix rungs; Locked ones are
  // settled survivors awaiting full depth (no further prefix measurement —
  // their last estimate still serves as a reference bound).
  enum class St : char { Active, Locked, Row, Pruned };
  std::vector<St> state(nc, St::Active);
  std::vector<ExplorationPoint> row(nc);
  std::vector<char> row_from_cache(nc, 0);
  std::vector<ResultCache::PrunedMark> pmark(nc);
  std::vector<char> pruned_from_cache(nc, 0);

  for (std::size_t i = 0; i < nc; ++i) {
    if (canonical[i] != i) continue;
    if (use_cache) {
      if (const ExplorationPoint* p = cache.find_row(key[i])) {
        row[i] = *p;
        row[i].options = space.candidates[i].options;
        row[i].label = space.candidates[i].label;
        row[i].pareto = false;  // re-annotated below
        row_from_cache[i] = 1;
        state[i] = St::Row;
        ++result.cache_hits;
        continue;
      }
      if (const ResultCache::PrunedMark* m =
              cache.find_pruned(sweep_fp, key[i])) {
        pmark[i] = *m;
        pruned_from_cache[i] = 1;
        state[i] = St::Pruned;
        ++result.cache_hits;
        continue;
      }
    }
    ++result.cache_misses;
  }
  if (result.cache_hits > 0) obs::count("search.cache.hit", result.cache_hits);
  if (result.cache_misses > 0) {
    obs::count("search.cache.miss", result.cache_misses);
  }

  // ---- successive-halving rungs -------------------------------------------
  // The (shared, read-only) prefix stimulus, built when the first rung runs.
  // The prefix ranks on stream 0 of the full-depth evaluation's stimulus
  // (sim::stream_seed), so a prefix estimate is a true prefix of a real
  // measurement, not a differently-seeded proxy.
  std::vector<sim::InputStream> prefix_stream;
  const unsigned jobs = ThreadPool::resolve_jobs(cfg.jobs);
  std::vector<PointMetrics> est(nc);
  for (int r = 0; r < cfg.budget_rungs; ++r) {
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < nc; ++i) {
      if (canonical[i] == i && state[i] == St::Active) active.push_back(i);
    }
    if (active.empty()) break;
    obs::Span rung_span("search.rung");
    obs::count("search.rungs");
    ++result.rungs_run;
    for (std::size_t b = 0; prefix_stream.size() < nb; ++b) {
      const auto& bh = space.behaviours[b];
      Rng rng(sim::stream_seed(cfg.seed, cfg.streams, 0));
      prefix_stream.push_back(sim::uniform_stream(rng,
                                                  bh.graph->inputs().size(),
                                                  cfg.computations,
                                                  bh.graph->width()));
    }

    std::size_t budget = cfg.computations >> (cfg.budget_rungs - r);
    budget = std::max(budget, kMinPrefixComputations);
    budget = std::min(budget, cfg.computations);

    // Prefix-measure every active candidate. Slot-indexed writes + a full
    // barrier before any decision: the estimate set is bit-identical for
    // every jobs value. No equivalence check and no attribution here —
    // the prefix only ranks; the survivors' full-depth run does the
    // checking.
    //
    // Consecutive active candidates of one behaviour whose options share an
    // allocation (allocation_hash: they differ only in how the design is
    // built, e.g. isolation or interconnect) form a run. A run allocates
    // once and builds each candidate's design from that allocation. Run
    // members that also share a simulation_hash differ only in the
    // interconnect and record the same Activity: the first one is built
    // and simulated, and a later one retags that design to its own
    // interconnect (set_interconnect) and weighs the same prefix with it.
    std::vector<std::size_t> run_begin;  // into `active`, plus the end
    std::uint64_t prev_akey = 0;
    for (std::size_t k = 0; k < active.size(); ++k) {
      const auto& cand = space.candidates[active[k]];
      const std::uint64_t akey = allocation_hash(cand.options);
      if (k == 0 || akey != prev_akey ||
          cand.behaviour != space.candidates[active[k - 1]].behaviour) {
        run_begin.push_back(k);
      }
      prev_akey = akey;
    }
    run_begin.push_back(active.size());
    const std::size_t runs = run_begin.size() - 1;
    auto eval_run = [&](std::size_t run) {
      // The run's simulated designs with their prefix Activity; the first
      // owns the allocation the others are built from.
      struct Prefix {
        std::uint64_t sim_key = 0;
        Synthesized syn;
        sim::Activity activity;
      };
      std::vector<Prefix> prefixes;
      for (std::size_t k = run_begin[run]; k < run_begin[run + 1]; ++k) {
        obs::Span pspan("search.prefix");
        const std::size_t i = active[k];
        const auto& cand = space.candidates[i];
        const auto& bh = space.behaviours[cand.behaviour];
        const std::uint64_t sim_key = simulation_hash(cand.options);
        auto p = std::find_if(
            prefixes.begin(), prefixes.end(),
            [&](const Prefix& q) { return q.sim_key == sim_key; });
        if (p != prefixes.end()) {
          set_interconnect(*p->syn.design, cand.options.interconnect);
          obs::count("search.prefix.shared");
        } else {
          auto syn = prefixes.empty()
                         ? synthesize(*bh.graph, *bh.sched, cand.options)
                         : synthesize(prefixes.front().syn, cand.options);
          sim::Simulator simulator(*syn.design,
                                   sim::Simulator::Mode::BitSliced);
          simulator.set_computation_budget(budget);
          // No output order: the prefix only ranks, so it samples no
          // outputs.
          auto res = simulator.run_time_sliced(
              {&prefix_stream[cand.behaviour], 1}, bh.graph->inputs(), {});
          prefixes.push_back(Prefix{sim_key, std::move(syn),
                                    std::move(res.front().activity)});
          p = prefixes.end() - 1;
        }
        const rtl::Design& design = *p->syn.design;
        est[i].power = power::estimate_power(design, p->activity, tech,
                                             cfg.power_params)
                           .total;
        est[i].area = power::estimate_area(design, tech).total;
        est[i].period = static_cast<double>(design.stats.period);
      }
    };
    if (jobs <= 1 || runs == 1) {
      for (std::size_t run = 0; run < runs; ++run) eval_run(run);
    } else {
      // Like explore(): collect failures and rethrow the earliest in
      // enumeration order, so a failing grid reports the same error for
      // every jobs value. Runs partition `active` in order and a run stops
      // at its first failure, so the first failed run holds it.
      std::vector<std::exception_ptr> errors(runs);
      ThreadPool pool(jobs);
      pool.parallel_for_index(runs, [&](std::size_t run) {
        try {
          eval_run(run);
        } catch (...) {
          errors[run] = std::current_exception();
        }
      });
      for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    }

    // Rung decisions, per dominance group (cross-benchmark dominance is
    // meaningless — a small behaviour would "dominate" every larger one —
    // but behaviours sharing a group, e.g. the schedule variants of one
    // benchmark at one width, compete on a single front).
    for (std::size_t g = 0; g < ng; ++g) {
      std::vector<std::size_t> act_g;
      for (const std::size_t i : active) {
        if (gid[space.candidates[i].behaviour] == g) act_g.push_back(i);
      }
      if (act_g.empty()) continue;

      std::vector<std::size_t> rank = act_g;
      std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t c) {
        if (est[a].power != est[c].power) return est[a].power < est[c].power;
        if (est[a].area != est[c].area) return est[a].area < est[c].area;
        if (est[a].period != est[c].period) return est[a].period < est[c].period;
        return a < c;
      });
      const std::size_t keep = std::max(
          cfg.min_survivors,
          static_cast<std::size_t>(std::ceil(
              cfg.promote_fraction * static_cast<double>(act_g.size()))));

      // Reference set: exact rows of this group (cache hits — and, on
      // later sweeps, anything already evaluated), in candidate order,
      // plus every measured peer below (Active this rung or Locked at an
      // earlier one).
      std::vector<std::size_t> exact;
      std::vector<std::size_t> peers;
      for (std::size_t i = 0; i < nc; ++i) {
        if (canonical[i] != i || gid[space.candidates[i].behaviour] != g) {
          continue;
        }
        if (state[i] == St::Row) exact.push_back(i);
        if (state[i] == St::Locked) peers.push_back(i);
      }
      peers.insert(peers.end(), rank.begin(), rank.end());

      // Promoted candidates are settled: they go straight to full depth
      // instead of paying for the remaining prefix rungs.
      for (std::size_t k = 0; k < keep && k < rank.size(); ++k) {
        state[rank[k]] = St::Locked;
      }

      for (std::size_t k = keep; k < rank.size(); ++k) {
        const std::size_t i = rank[k];
        const PointMetrics opt{est[i].power * cfg.optimism, est[i].area,
                               est[i].period};
        const std::string* by = nullptr;
        for (const std::size_t e : exact) {
          if (dominates(point_metrics(row[e]), opt)) {
            by = &row[e].label;
            break;
          }
        }
        if (by == nullptr) {
          // Every measured peer is a sound reference, aborted-this-rung
          // ones included: weak dominance is transitive, so an abort chain
          // always bottoms out at a protected survivor whose pessimistic
          // bound covers the whole chain (see the header contract).
          // Equal estimate vectors never dominate each other (dominates()
          // requires one strict inequality), so no mutual abort.
          for (const std::size_t p : peers) {
            if (p == i) continue;
            const PointMetrics pess{est[p].power / cfg.optimism, est[p].area,
                                    est[p].period};
            if (dominates(pess, opt)) {
              by = &space.candidates[p].label;
              break;
            }
          }
        }
        if (by != nullptr) {
          state[i] = St::Pruned;
          pmark[i] = ResultCache::PrunedMark{r, *by};
          ++result.aborted;
          obs::count("search.aborted");
          continue;
        }
        // Nothing dominates this below-cut candidate's optimistic bound:
        // it might be on the front, so it is protected. If it is not even
        // dominated *without* the slack, a deeper prefix cannot change the
        // verdict — settle it for full depth now. Otherwise it is
        // contested (protected only by the slack) and climbs to the next
        // rung, where a sharper estimate may abort it.
        bool contested = false;
        for (const std::size_t e : exact) {
          if (dominates(point_metrics(row[e]), est[i])) {
            contested = true;
            break;
          }
        }
        for (std::size_t p_idx = 0; !contested && p_idx < peers.size();
             ++p_idx) {
          const std::size_t p = peers[p_idx];
          if (p != i && dominates(est[p], est[i])) contested = true;
        }
        if (!contested) state[i] = St::Locked;
      }
    }
  }

  // ---- full-depth evaluation of the survivors ------------------------------
  // Through explore() with explicit_configs: the survivors get exactly the
  // exhaustive pipeline (equivalence check, Monte-Carlo streams,
  // attribution, jobs-independent slotting), so a search row is
  // bit-identical to the exhaustive sweep's row for the same point.
  for (std::size_t b = 0; b < nb; ++b) {
    std::vector<std::pair<SynthesisOptions, std::string>> cfgs;
    std::vector<std::size_t> idxs;
    for (std::size_t i = 0; i < nc; ++i) {
      if (canonical[i] == i &&
          (state[i] == St::Active || state[i] == St::Locked) &&
          space.candidates[i].behaviour == b) {
        cfgs.emplace_back(space.candidates[i].options,
                          space.candidates[i].label);
        idxs.push_back(i);
      }
    }
    if (cfgs.empty()) continue;
    ExplorerConfig ec;
    ec.computations = cfg.computations;
    ec.seed = cfg.seed;
    ec.streams = cfg.streams;
    ec.power_params = cfg.power_params;
    ec.jobs = cfg.jobs;
    ec.explicit_configs = std::move(cfgs);
    const auto& bh = space.behaviours[b];
    auto er = explore(*bh.graph, *bh.sched, ec);
    MCRTL_CHECK(er.points.size() == idxs.size());
    std::unordered_map<std::string, ExplorationPoint*> by_label;
    for (auto& p : er.points) by_label.emplace(p.label, &p);
    for (const std::size_t i : idxs) {
      const auto it = by_label.find(space.candidates[i].label);
      MCRTL_CHECK(it != by_label.end());
      row[i] = std::move(*it->second);
      row[i].pareto = false;  // re-annotated on the 3-objective front below
      state[i] = St::Row;
      ++result.full_evaluations;
    }
  }

  // ---- write-back, assembly, annotation ------------------------------------
  // A run that added nothing leaves the DB as loaded (and as compacted).
  if (use_cache) {
    bool added = false;
    for (std::size_t i = 0; i < nc; ++i) {
      if (canonical[i] != i) continue;
      if (state[i] == St::Row && !row_from_cache[i]) {
        cache.put_row(key[i], row[i]);
        added = true;
      } else if (state[i] == St::Pruned && !pruned_from_cache[i]) {
        cache.put_pruned(sweep_fp, key[i], pmark[i]);
        added = true;
      }
    }
    if (added) {
      obs::Span save_span("search.cache.save");
      if (!cache.save(cfg.cache_db)) obs::count("search.cache.save_errors");
    }
  }

  std::size_t num_rows = 0;
  for (std::size_t i = 0; i < nc; ++i) {
    num_rows += state[canonical[i]] == St::Row ? 1 : 0;
  }
  std::vector<std::pair<std::size_t, SearchRow>> assembled;
  assembled.reserve(num_rows);
  result.pruned.reserve(nc - num_rows);
  for (std::size_t i = 0; i < nc; ++i) {
    const std::size_t c = canonical[i];
    const auto& cand = space.candidates[i];
    const std::string& bname = space.behaviours[cand.behaviour].name;
    MCRTL_CHECK(state[c] == St::Row || state[c] == St::Pruned);
    if (state[c] == St::Row) {
      SearchRow sr;
      sr.behaviour = bname;
      const auto& bh = space.behaviours[cand.behaviour];
      sr.group = bh.group.empty() ? bh.name : bh.group;
      sr.point = row[c];
      sr.point.options = cand.options;
      sr.point.label = cand.label;
      sr.from_cache = row_from_cache[c] != 0;
      assembled.emplace_back(cand.behaviour, std::move(sr));
      if (i != c) obs::count("search.deduped");
    } else {
      result.pruned.push_back(PrunedCandidate{bname, cand.label, pmark[c].rung,
                                              pmark[c].dominated_by,
                                              pruned_from_cache[c] != 0});
    }
  }
  // Deterministic total order: behaviour, then the explorer's point order,
  // then label (duplicates share metrics and need the label tie-break).
  std::sort(assembled.begin(), assembled.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              if (point_order_less(a.second.point, b.second.point)) return true;
              if (point_order_less(b.second.point, a.second.point)) {
                return false;
              }
              return a.second.point.label < b.second.point.label;
            });
  result.rows.reserve(assembled.size());
  for (auto& [b, sr] : assembled) result.rows.push_back(std::move(sr));
  annotate_front(result.rows);
  obs::count("search.points", nc);
  return result;
}

// ---- reports ----------------------------------------------------------------

namespace {

constexpr const char* kSearchCsvHeader =
    "behaviour,label,status,power_mw,power_stddev_mw,power_ci95_mw,"
    "area_l2,period,clocks,alus,mem_cells,pareto,dominated_by,rung\n";

void csv_row(std::ostringstream& os, const SearchRow& r) {
  os << csv_escape(r.behaviour) << ',' << csv_escape(r.point.label)
     << ",full," << str_format("%.6f", r.point.power.total) << ','
     << str_format("%.6f", r.point.power_stddev) << ','
     << str_format("%.6f", r.point.power_ci95) << ','
     << str_format("%.0f", r.point.area.total) << ',' << r.point.stats.period
     << ',' << r.point.stats.num_clocks << ',' << r.point.stats.num_alus << ','
     << r.point.stats.num_memory_cells << ',' << (r.pareto ? 1 : 0) << ','
     << csv_escape(r.dominated_by) << ",\n";
}

void csv_pruned(std::ostringstream& os, const PrunedCandidate& p) {
  os << csv_escape(p.behaviour) << ',' << csv_escape(p.label)
     << ",pruned,,,,,,,,,0," << csv_escape(p.dominated_by) << ',' << p.rung
     << '\n';
}

}  // namespace

std::string search_to_csv(const SearchResult& res, bool pareto_only) {
  std::ostringstream os;
  os << kSearchCsvHeader;
  for (const auto& r : res.rows) {
    if (pareto_only && !r.pareto) continue;
    csv_row(os, r);
  }
  if (!pareto_only) {
    for (const auto& p : res.pruned) csv_pruned(os, p);
  }
  return os.str();
}

std::string search_to_json(const SearchResult& res, bool pareto_only) {
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& r : res.rows) {
    if (pareto_only && !r.pareto) continue;
    sep();
    os << "  {\"behaviour\": \"" << json_escape(r.behaviour)
       << "\", \"label\": \"" << json_escape(r.point.label)
       << "\", \"status\": \"full\",\n   "
       << str_format(
              "\"power_mw\": %.6f, \"power_stddev_mw\": %.6f, "
              "\"power_ci95_mw\": %.6f, \"area_l2\": %.0f, \"period\": %d, "
              "\"clocks\": %d,",
              r.point.power.total, r.point.power_stddev, r.point.power_ci95,
              r.point.area.total, r.point.stats.period,
              r.point.stats.num_clocks)
       << "\n   \"pareto\": " << (r.pareto ? "true" : "false")
       << ", \"dominated_by\": \"" << json_escape(r.dominated_by) << "\"}";
  }
  if (!pareto_only) {
    for (const auto& p : res.pruned) {
      sep();
      os << "  {\"behaviour\": \"" << json_escape(p.behaviour)
         << "\", \"label\": \"" << json_escape(p.label)
         << "\", \"status\": \"pruned\", \"rung\": " << p.rung
         << ", \"dominated_by\": \"" << json_escape(p.dominated_by) << "\"}";
    }
  }
  os << "\n]\n";
  return os.str();
}

}  // namespace mcrtl::core
