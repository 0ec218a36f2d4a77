#include "core/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>

#include "core/checkpoint.hpp"
#include "core/measure.hpp"
#include "obs/obs.hpp"
#include "sim/stimulus.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace mcrtl::core {

std::optional<ExplorationPoint> ExplorationResult::best_under_area(
    double area_budget) const {
  for (const auto& p : points) {
    if (p.area.total <= area_budget) return p;
  }
  return std::nullopt;
}

const ExplorationPoint& ExplorationResult::best_power() const {
  MCRTL_CHECK(!points.empty());
  return points.front();
}

PointMetrics point_metrics(const ExplorationPoint& p) {
  return PointMetrics{p.power.total, p.area.total,
                      static_cast<double>(p.stats.period)};
}

bool dominates(const PointMetrics& a, const PointMetrics& b) {
  if (a.power > b.power || a.area > b.area || a.period > b.period) {
    return false;
  }
  return a.power < b.power || a.area < b.area || a.period < b.period;
}

bool dominates_power_area(const PointMetrics& a, const PointMetrics& b) {
  return (a.power < b.power && a.area <= b.area) ||
         (a.power <= b.power && a.area < b.area);
}

bool point_order_less(const ExplorationPoint& a, const ExplorationPoint& b) {
  const PointMetrics ma = point_metrics(a);
  const PointMetrics mb = point_metrics(b);
  if (ma.power != mb.power) return ma.power < mb.power;
  if (ma.area != mb.area) return ma.area < mb.area;
  return ma.period < mb.period;
}

std::vector<std::pair<SynthesisOptions, std::string>> enumerate_configurations(
    const ExplorerConfig& cfg) {
  if (!cfg.explicit_configs.empty()) return cfg.explicit_configs;
  std::vector<std::pair<SynthesisOptions, std::string>> configs;
  if (cfg.include_conventional) {
    SynthesisOptions opts;
    opts.style = DesignStyle::ConventionalNonGated;
    configs.emplace_back(opts, style_label(opts.style, 1));
    opts.style = DesignStyle::ConventionalGated;
    configs.emplace_back(opts, style_label(opts.style, 1));
  }
  for (int n = 1; n <= cfg.max_clocks; ++n) {
    std::vector<AllocMethod> methods{AllocMethod::Integrated};
    if (cfg.include_split && n > 1) methods.push_back(AllocMethod::Split);
    std::vector<bool> latch_variants{true};
    if (cfg.include_dff_variant && n > 1) latch_variants.push_back(false);
    for (const auto method : methods) {
      for (const bool latches : latch_variants) {
        SynthesisOptions opts;
        opts.style = DesignStyle::MultiClock;
        opts.num_clocks = n;
        opts.method = method;
        opts.use_latches = latches;
        configs.emplace_back(
            opts,
            str_format("%d clk / %s / %s", n,
                       method == AllocMethod::Split ? "split" : "integrated",
                       latches ? "latch" : "dff"));
      }
    }
  }
  return configs;
}

std::size_t num_configurations(const ExplorerConfig& cfg) {
  return enumerate_configurations(cfg).size();
}

namespace {

/// The explorer's final step: stable sort by point_order_less, then
/// recompute the power/area Pareto flags. `points` must be in enumeration
/// order — stable_sort only yields one answer for equal keys when the
/// pre-sort order is fixed.
void finalize_points(std::vector<ExplorationPoint>& points) {
  obs::Span sort_span("explore.sort");
  std::stable_sort(points.begin(), points.end(), point_order_less);
  for (auto& p : points) {
    const PointMetrics mp = point_metrics(p);
    p.pareto = std::none_of(points.begin(), points.end(),
                            [&](const ExplorationPoint& q) {
                              return dominates_power_area(point_metrics(q), mp);
                            });
  }
}

}  // namespace

ExplorationResult explore(const dfg::Graph& graph, const dfg::Schedule& sched,
                          const ExplorerConfig& cfg) {
  obs::Span span("explore");
  MCRTL_CHECK(cfg.max_clocks >= 1);
  MCRTL_CHECK_MSG(cfg.computations >= 1,
                  "ExplorerConfig::computations must be at least 1");
  MCRTL_CHECK_MSG(cfg.streams >= 1 &&
                      cfg.streams <= sim::Simulator::kMaxStreams,
                  "ExplorerConfig::streams must be in 1.."
                      << sim::Simulator::kMaxStreams);
  graph.validate();
  sched.validate();

  const auto tech = power::TechLibrary::cmos08();

  // Enumerate every configuration first; evaluation writes into the slot
  // matching this (fixed) order, so the pre-sort point array is identical
  // for any thread count.
  const auto configs = enumerate_configurations(cfg);

  // Checkpoint replay: restore journalled points into their slots before
  // anything is scheduled. A stale journal (different configuration) is a
  // hard error; an unreadable one degrades to a fresh sweep that journals
  // nothing, so the file is left as it was for the next run to replay.
  std::vector<std::optional<ExplorationPoint>> replayed(configs.size());
  std::size_t replayed_count = 0;
  std::uint64_t journal_fp = 0;
  bool journal_unreadable = false;
  if (!cfg.checkpoint_file.empty()) {
    journal_fp = CheckpointJournal::fingerprint(cfg, graph, sched);
    {
      obs::Span replay_span("explore.journal.replay");
      try {
        auto loaded =
            CheckpointJournal::load(cfg.checkpoint_file, journal_fp, configs);
        replayed = std::move(loaded.points);
        replayed_count = loaded.replayed;
      } catch (const JournalMismatchError&) {
        throw;
      } catch (const std::exception&) {
        obs::count("explore.journal.errors");
        journal_unreadable = true;
      }
    }
    if (replayed_count > 0) {
      obs::count("explore.journal.replayed", replayed_count);
    }
  }
  // Only a slot the journal did not replay appends, and only an append
  // needs a torn tail cut first: a full replay leaves the file alone.
  const bool evaluates = replayed_count < configs.size();
  std::unique_ptr<CheckpointJournal> journal;
  if (!cfg.checkpoint_file.empty() && !journal_unreadable && evaluates) {
    journal = std::make_unique<CheckpointJournal>(cfg.checkpoint_file,
                                                  journal_fp);
  }

  // One pool serves the per-stream preamble below and then the points; a
  // sweep that evaluates nothing replays inline and starts no thread.
  const unsigned jobs = ThreadPool::resolve_jobs(cfg.jobs);
  std::optional<ThreadPool> pool;
  if (jobs > 1 && evaluates) pool.emplace(jobs);

  // The stimulus is derived from the seed up front and then shared
  // read-only by every evaluation — this is what makes the result
  // independent of how the points are scheduled across workers. Stream s
  // is drawn from sim::stream_seed(), as every stimulus of the seed is.
  // The golden model's outputs depend on the stimulus alone, so the
  // interpreter runs once per stream rather than once per point. Neither is
  // built when the journal replays every point.
  //
  // On a pool each stream is one task: generate it, then run the golden
  // model over it. Every buffer is allocated here on the calling thread and
  // the tasks only fill them; allocating inside the workers spreads the
  // buffers over per-thread malloc arenas and raises peak RSS.
  const std::size_t num_streams = evaluates ? cfg.streams : 0;
  const dfg::Interpreter interp(graph);
  Stimulus stim;
  stim.streams.assign(
      num_streams, sim::InputStream(cfg.computations, graph.inputs().size()));
  stim.golden.assign(
      num_streams,
      sim::GoldenOutputs(cfg.computations, interp.num_outputs()));
  auto prepare_stream = [&](std::size_t s) {
    Rng rng(sim::stream_seed(cfg.seed, cfg.streams, s));
    sim::fill_uniform(rng, stim.streams[s], graph.width());
    sim::fill_golden_outputs(interp, stim.streams[s], stim.golden[s]);
  };
  if (pool) {
    pool->parallel_for_index(num_streams, prepare_stream);
  } else {
    for (std::size_t s = 0; s < num_streams; ++s) prepare_stream(s);
  }

  ExplorationResult result;
  result.points.resize(configs.size());
  result.replayed_points = replayed_count;
  std::vector<std::unique_ptr<FailedPoint>> failed(configs.size());

  // Single-pass evaluation: measure() runs one RTL simulation per point and
  // feeds both the equivalence check (sampled outputs vs. the golden
  // outputs above) and the power estimate (the same run's Activity).
  auto eval_point = [&](std::size_t i) {
    obs::Span point_span("explore.point");
    const auto& [opts, label] = configs[i];
    const auto syn = synthesize(graph, sched, opts);
    MeasureHooks hooks;
    if (cfg.point_timeout_s > 0) {
      hooks.deadline = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(cfg.point_timeout_s));
    }
    ExplorationPoint p =
        measure(*syn.design, graph, stim, tech, cfg.power_params, hooks).point;
    p.options = opts;
    p.label = label;
    result.points[i] = std::move(p);
  };

  // Journal a slot measured in this run (a replayed one is already there).
  auto journal_point = [&](std::size_t i) {
    if (!journal) return;
    if (journal->append(i, result.points[i])) {
      obs::count("explore.journal.appended");
    } else {
      obs::count("explore.journal.errors");
    }
  };

  // One slot, end to end: replay, or evaluate once and journal; then
  // report. A point is a deterministic simulation, so a failure is final:
  // only on_point exceptions (caller code) and — with quarantine off —
  // evaluation failures escape.
  auto run_point = [&](std::size_t i) {
    if (replayed[i]) {
      result.points[i] = std::move(*replayed[i]);
    } else {
      try {
        fault::inject("explore.point", configs[i].second);
        eval_point(i);
      } catch (const std::exception& e) {
        if (!cfg.quarantine) throw;
        failed[i] = std::make_unique<FailedPoint>(
            FailedPoint{configs[i].first, configs[i].second, e.what()});
        obs::count("explore.quarantined");
        return;
      }
      journal_point(i);
    }
    if (cfg.on_point) cfg.on_point(result.points[i]);
  };

  if (!pool) {
    for (std::size_t i = 0; i < configs.size(); ++i) run_point(i);
  } else {
    // Submission order: descending cost rank. Simulation cost is dominated
    // by the clock count (the period is the smallest multiple of n >= T+1,
    // so higher n means more master cycles per computation), with the split
    // allocator adding transfer machinery on top. This is not longest-first
    // execution: submissions from this (off-pool) thread go round-robin to
    // the workers' queues and each worker pops its own queue LIFO, so
    // within a queue the cheapest points run first, while an idle worker
    // steals the oldest, most expensive point from the head of a sibling's
    // queue. The descending order spreads the expensive points evenly over
    // the queues; a model of this pool on measured point costs gave an
    // 85 ms makespan for it against 91 ms for running the points strictly
    // in rank order (ideal 76 ms), so it stays.
    std::vector<std::size_t> order(configs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    auto cost_rank = [&](std::size_t i) {
      const SynthesisOptions& o = configs[i].first;
      const int n = o.style == DesignStyle::MultiClock ? o.num_clocks : 1;
      return n * 4 + (o.method == AllocMethod::Split ? 2 : 0) +
             (o.use_latches ? 0 : 1);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cost_rank(a) > cost_rank(b);
                     });
    // The pool rethrows the failure of the lowest *submission* index; with
    // a permuted submission order that is no longer the enumeration order,
    // so errors are collected per configuration here and the earliest
    // enumerated failure is rethrown — exactly what a serial run reports.
    std::vector<std::exception_ptr> errors(configs.size());
    pool->parallel_for_index(order.size(), [&](std::size_t k) {
      const std::size_t i = order[k];
      try {
        run_point(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  obs::count("explore.points", configs.size());

  // Quarantined slots hold default-constructed points; compact them out in
  // enumeration order before the sort.
  if (std::any_of(failed.begin(), failed.end(),
                  [](const auto& f) { return f != nullptr; })) {
    std::vector<ExplorationPoint> kept;
    kept.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (failed[i]) {
        result.failed_points.push_back(std::move(*failed[i]));
      } else {
        kept.push_back(std::move(result.points[i]));
      }
    }
    result.points = std::move(kept);
  }

  finalize_points(result.points);
  return result;
}

}  // namespace mcrtl::core
