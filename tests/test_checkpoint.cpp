// Crash-safe exploration: the checkpoint journal (core/checkpoint.hpp) and
// core::explore()'s resume path.
//
// The promise under test: a sweep interrupted after any number of
// journalled points — by an exception or a real SIGKILL — resumes with the
// same configuration, skips the completed points, and produces CSV/JSON
// reports BYTE-identical to an uninterrupted run, for any jobs value on
// either side of the interruption. Stale journals (different
// configuration) are rejected; torn tails and corrupt records degrade to
// re-evaluating the affected points, never to wrong data.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#ifndef _WIN32
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/checkpoint.hpp"
#include "core/explorer.hpp"
#include "core/record.hpp"
#include "obs/obs.hpp"
#include "power/report.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

using namespace mcrtl;

namespace {

core::ExplorerConfig small_config() {
  core::ExplorerConfig cfg;
  cfg.max_clocks = 3;
  cfg.computations = 120;
  cfg.jobs = 1;
  return cfg;
}

/// The exact bytes a CLI/bench export of `r` would contain — the unit the
/// resume contract is specified in.
std::string report_bytes(const core::ExplorationResult& r) {
  std::vector<power::ExperimentRecord> recs;
  for (const auto& p : r.points) {
    power::ExperimentRecord rec;
    rec.experiment = "test_checkpoint";
    rec.design = p.label;
    rec.benchmark = "facet";
    rec.width = 4;
    rec.computations = 120;
    rec.power = p.power;
    rec.power_stddev = p.power_stddev;
    rec.power_ci95 = p.power_ci95;
    // Journal v3 payload fields: byte-equality below asserts that replayed
    // points restore attribution exactly as freshly evaluated ones.
    rec.hotspot = p.hotspot;
    rec.hotspot_share = p.hotspot_share;
    rec.crest = p.crest;
    rec.area = p.area;
    rec.stats = p.stats;
    recs.push_back(std::move(rec));
  }
  return power::to_csv(recs) + "\n---\n" + power::to_json(recs);
}

struct TempPath {
  std::string path;
  explicit TempPath(const char* name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// The file's inode: a rewrite through tmp + rename changes it, an append
/// or a reopen does not.
ino_t file_inode(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

/// Run a journalled sweep that aborts itself after `k` completed points
/// (the journal then holds exactly the fsync'd prefix a crash would leave).
void interrupt_after(const dfg::Graph& g, const dfg::Schedule& s,
                     core::ExplorerConfig cfg, const std::string& journal,
                     std::size_t k) {
  cfg.checkpoint_file = journal;
  cfg.jobs = 1;
  std::size_t completed = 0;
  cfg.on_point = [&](const core::ExplorationPoint&) {
    if (++completed == k) throw Error("test: simulated interruption");
  };
  EXPECT_THROW(core::explore(g, s, cfg), Error);
}

}  // namespace

TEST(CheckpointTest, UninterruptedRunReplaysFully) {
  const auto b = suite::by_name("facet", 4);
  TempPath journal("ck_full.journal");
  auto cfg = small_config();
  cfg.checkpoint_file = journal.path;
  const auto first = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(first.replayed_points, 0u);
  const auto second = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(second.replayed_points, first.points.size());
  EXPECT_EQ(report_bytes(first), report_bytes(second));
}

TEST(CheckpointTest, FullReplayPreparesNoStreams) {
  // The stimulus and its golden outputs are built only for points that are
  // evaluated: a journal that replays every point prepares no stream, on
  // the pool or inline.
  const auto b = suite::by_name("facet", 4);
  TempPath journal("ck_noprep.journal");
  auto cfg = small_config();
  cfg.checkpoint_file = journal.path;
  cfg.streams = 8;
  cfg.jobs = 4;
  auto golden_spans = [] {
    std::size_t n = 0;
    for (const auto& s : obs::Registry::instance().spans()) {
      n += std::string(s.name) == "sim.golden" ? 1 : 0;
    }
    return n;
  };
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  const auto first = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(golden_spans(), 8u);
  obs::Registry::instance().reset();
  const auto second = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(golden_spans(), 0u);
  obs::set_enabled(false);
  obs::Registry::instance().reset();
  EXPECT_EQ(second.replayed_points, first.points.size());
  EXPECT_EQ(report_bytes(first), report_bytes(second));
}

TEST(CheckpointTest, FullReplayOnAPoolRunsInlineAndLeavesTheJournalAlone) {
  // A sweep that evaluates nothing starts no pool, so every replayed point
  // reaches on_point on the calling thread, and it never reopens the
  // journal: not even a torn tail behind the last record is cut, because
  // no append follows.
  const auto b = suite::by_name("facet", 4);
  TempPath journal("ck_inline.journal");
  auto cfg = small_config();
  cfg.checkpoint_file = journal.path;
  cfg.jobs = 4;
  const auto first = core::explore(*b.graph, *b.schedule, cfg);
  spit(journal.path, slurp(journal.path) + "p 3 s:torn");
  const std::string before = slurp(journal.path);
  const auto inode = file_inode(journal.path);

  std::vector<int> workers;
  cfg.on_point = [&](const core::ExplorationPoint&) {
    workers.push_back(ThreadPool::current_worker_index());
  };
  const auto second = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(second.replayed_points, first.points.size());
  EXPECT_EQ(report_bytes(first), report_bytes(second));
  EXPECT_EQ(workers, std::vector<int>(first.points.size(), -1));
  EXPECT_EQ(slurp(journal.path), before);
  EXPECT_EQ(file_inode(journal.path), inode);
}

TEST(CheckpointTest, JournalLackingADuplicateSlotIsReopenedAndAppended) {
  // Every slot but a duplicate configuration's replays: the duplicate is
  // evaluated like any other slot and its record appended again, restoring
  // the complete journal.
  const auto b = suite::by_name("facet", 4);
  TempPath journal("ck_dup.journal");
  auto cfg = small_config();
  cfg.explicit_configs = core::enumerate_configurations(cfg);
  cfg.explicit_configs.emplace_back(cfg.explicit_configs[1].first, "dup");
  cfg.checkpoint_file = journal.path;
  const auto first = core::explore(*b.graph, *b.schedule, cfg);
  const std::string full = slurp(journal.path);
  // A serial sweep journals in enumeration order, so its record is last.
  const std::size_t last = full.rfind('\n', full.size() - 2) + 1;
  ASSERT_EQ(full.compare(last, 2, "p "), 0);
  spit(journal.path, full.substr(0, last));

  const auto second = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(second.replayed_points, cfg.explicit_configs.size() - 1);
  EXPECT_EQ(slurp(journal.path), full);
  EXPECT_EQ(report_bytes(first), report_bytes(second));
}

TEST(CheckpointTest, ForgedRecordWithAnOutOfRangeIntegerEndsTheReplay) {
  // FNV-1a is not a MAC: this record carries a valid checksum over a
  // num_alus of 2^32 + 1, which used to replay as 1. It must end the
  // replay like any other malformed record.
  const auto b = suite::by_name("facet", 4);
  TempPath journal("ck_forged.journal");
  auto cfg = small_config();
  cfg.checkpoint_file = journal.path;
  core::explore(*b.graph, *b.schedule, cfg);

  std::vector<std::string> lines;
  {
    std::istringstream in(slurp(journal.path));
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 4u);
  // lines[2] is record 1: "p", index, 28 point fields, checksum.
  std::vector<std::string> toks;
  {
    std::istringstream in(lines[2]);
    for (std::string t; in >> t;) toks.push_back(t);
  }
  ASSERT_EQ(toks.size(), 2 + core::record::kPointTokens + 1);
  toks[2 + 19] = "4294967297";  // num_alus
  std::string payload = toks[1];
  for (std::size_t k = 2; k + 1 < toks.size(); ++k) payload += ' ' + toks[k];
  lines[2] = "p " + payload + ' ' +
             core::record::encode_u64(core::record::fnv1a64(payload));
  std::string bytes;
  for (const auto& line : lines) bytes += line + '\n';
  spit(journal.path, bytes);

  const auto fp =
      core::CheckpointJournal::fingerprint(cfg, *b.graph, *b.schedule);
  const auto loaded = core::CheckpointJournal::load(
      journal.path, fp, core::enumerate_configurations(cfg));
  EXPECT_EQ(loaded.replayed, 1u);
  EXPECT_TRUE(loaded.points[0].has_value());
  EXPECT_FALSE(loaded.points[1].has_value());
  EXPECT_FALSE(loaded.points[2].has_value());
}

TEST(CheckpointTest, InterruptedRunResumesByteIdentical) {
  const auto b = suite::by_name("facet", 4);
  const auto baseline = core::explore(*b.graph, *b.schedule, small_config());
  const std::string expected = report_bytes(baseline);
  const std::size_t total = core::num_configurations(small_config());
  ASSERT_GE(total, 4u);

  // Interrupt after each possible prefix length, resume at several thread
  // counts: every combination must reproduce the baseline bytes.
  for (const std::size_t k : {std::size_t{1}, total / 2, total - 1}) {
    for (const int resume_jobs : {1, 2, 8}) {
      TempPath journal("ck_resume.journal");
      interrupt_after(*b.graph, *b.schedule, small_config(), journal.path, k);
      auto cfg = small_config();
      cfg.checkpoint_file = journal.path;
      cfg.jobs = resume_jobs;
      const auto resumed = core::explore(*b.graph, *b.schedule, cfg);
      EXPECT_EQ(resumed.replayed_points, k)
          << "k=" << k << " jobs=" << resume_jobs;
      EXPECT_EQ(expected, report_bytes(resumed))
          << "k=" << k << " jobs=" << resume_jobs;
    }
  }
}

TEST(CheckpointTest, TornTailRecordIsDroppedNotFatal) {
  const auto b = suite::by_name("facet", 4);
  const auto baseline = core::explore(*b.graph, *b.schedule, small_config());
  TempPath journal("ck_torn.journal");
  auto cfg = small_config();
  cfg.checkpoint_file = journal.path;
  core::explore(*b.graph, *b.schedule, cfg);

  // A crash mid-append leaves a final line without its trailing newline
  // (and possibly missing fields): chop the last 17 bytes.
  const std::string full = slurp(journal.path);
  ASSERT_GT(full.size(), 17u);
  spit(journal.path, full.substr(0, full.size() - 17));

  const auto resumed = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_LT(resumed.replayed_points, baseline.points.size());
  EXPECT_GT(resumed.replayed_points, 0u);
  EXPECT_EQ(report_bytes(baseline), report_bytes(resumed));
}

TEST(CheckpointTest, CorruptRecordStopsReplayThereNotFatal) {
  const auto b = suite::by_name("facet", 4);
  const auto baseline = core::explore(*b.graph, *b.schedule, small_config());
  TempPath journal("ck_corrupt.journal");
  auto cfg = small_config();
  cfg.checkpoint_file = journal.path;
  core::explore(*b.graph, *b.schedule, cfg);

  // Flip one hex digit inside the *second* record's payload: the CRC
  // mismatch must stop replay at that record (keeping record 1) without
  // ever surfacing the corrupt measurement.
  std::string bytes = slurp(journal.path);
  std::vector<std::size_t> starts;
  for (std::size_t p = bytes.find('\n'); p != std::string::npos;
       p = bytes.find('\n', p + 1)) {
    if (p + 1 < bytes.size()) starts.push_back(p + 1);
  }
  ASSERT_GE(starts.size(), 2u);
  for (std::size_t q = starts[1]; q < bytes.size(); ++q) {
    if (bytes[q] == '4') {
      bytes[q] = '5';
      break;
    }
  }
  spit(journal.path, bytes);

  const auto resumed = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(resumed.replayed_points, 1u);
  EXPECT_EQ(report_bytes(baseline), report_bytes(resumed));
}

TEST(CheckpointTest, StaleJournalIsRejected) {
  const auto b = suite::by_name("facet", 4);
  TempPath journal("ck_stale.journal");
  auto cfg = small_config();
  cfg.checkpoint_file = journal.path;
  core::explore(*b.graph, *b.schedule, cfg);

  // Any knob that changes what is measured makes the journal stale.
  auto stale_seed = cfg;
  stale_seed.seed = cfg.seed + 1;
  EXPECT_THROW(core::explore(*b.graph, *b.schedule, stale_seed),
               core::JournalMismatchError);
  auto stale_len = cfg;
  stale_len.computations = cfg.computations + 1;
  EXPECT_THROW(core::explore(*b.graph, *b.schedule, stale_len),
               core::JournalMismatchError);
  auto stale_enum = cfg;
  stale_enum.max_clocks = cfg.max_clocks + 1;
  EXPECT_THROW(core::explore(*b.graph, *b.schedule, stale_enum),
               core::JournalMismatchError);

  // Execution knobs do NOT invalidate it: resuming on another thread count
  // (or with quarantine on) is the whole point.
  auto execution_only = cfg;
  execution_only.jobs = 8;
  execution_only.quarantine = true;
  const auto r = core::explore(*b.graph, *b.schedule, execution_only);
  EXPECT_EQ(r.replayed_points, r.points.size());
}

TEST(CheckpointTest, SlicedSweepResumesWithSpreadIntact) {
  // A multi-stream sweep journals the spread statistics alongside the
  // power means; an interrupted run must replay them bit-exactly.
  const auto b = suite::by_name("facet", 4);
  auto sliced = small_config();
  sliced.streams = 8;
  const auto baseline = core::explore(*b.graph, *b.schedule, sliced);
  for (const auto& p : baseline.points) {
    EXPECT_GT(p.power_stddev, 0.0) << p.label;
  }

  TempPath journal("ck_sliced.journal");
  interrupt_after(*b.graph, *b.schedule, sliced, journal.path, 2);
  auto cfg = sliced;
  cfg.checkpoint_file = journal.path;
  cfg.jobs = 4;
  const auto resumed = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(resumed.replayed_points, 2u);
  EXPECT_EQ(report_bytes(baseline), report_bytes(resumed));

  // The stream count changes what is measured, so it is part of the
  // fingerprint: reopening the journal at a different width is stale.
  auto other_streams = cfg;
  other_streams.streams = 16;
  EXPECT_THROW(core::explore(*b.graph, *b.schedule, other_streams),
               core::JournalMismatchError);
}

TEST(CheckpointTest, GarbageJournalFileDegradesToFreshSweep) {
  const auto b = suite::by_name("facet", 4);
  const auto baseline = core::explore(*b.graph, *b.schedule, small_config());
  TempPath journal("ck_garbage.journal");
  spit(journal.path, "this is not a journal\nat all\n");
  auto cfg = small_config();
  cfg.checkpoint_file = journal.path;
  const auto r = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(r.replayed_points, 0u);
  EXPECT_EQ(report_bytes(baseline), report_bytes(r));
  // ... and the garbage file was replaced by a valid journal: a re-run now
  // replays everything.
  const auto again = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_EQ(again.replayed_points, baseline.points.size());
}

TEST(CheckpointTest, FingerprintSeparatesConfigsButNotJobs) {
  const auto b = suite::by_name("facet", 4);
  const auto cfg = small_config();
  const auto fp = core::CheckpointJournal::fingerprint(cfg, *b.graph,
                                                       *b.schedule);
  auto jobs_only = cfg;
  jobs_only.jobs = 16;
  jobs_only.quarantine = true;
  jobs_only.point_timeout_s = 5.0;
  EXPECT_EQ(fp, core::CheckpointJournal::fingerprint(jobs_only, *b.graph,
                                                     *b.schedule));
  auto other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_NE(fp, core::CheckpointJournal::fingerprint(other, *b.graph,
                                                     *b.schedule));
  const auto b2 = suite::by_name("hal", 4);
  EXPECT_NE(fp, core::CheckpointJournal::fingerprint(cfg, *b2.graph,
                                                     *b2.schedule));
}

#ifndef _WIN32
TEST(CheckpointTest, SigkilledRunResumesByteIdentical) {
  const auto b = suite::by_name("facet", 4);
  const auto baseline = core::explore(*b.graph, *b.schedule, small_config());
  TempPath journal("ck_sigkill.journal");

  // The child runs a real journalled sweep, throttled so the parent can
  // SIGKILL it mid-run — an actual crash, not a simulated one: no atexit
  // handlers, no flush, the journal holds whatever was fsync'd.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto cfg = small_config();
    cfg.checkpoint_file = journal.path;
    cfg.on_point = [](const core::ExplorationPoint&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    };
    core::explore(*b.graph, *b.schedule, cfg);
    _exit(0);  // only reached if the parent never killed us
  }

  // Wait until at least two records are durable, then kill -9.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::size_t records = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    records = 0;
    const std::string bytes = slurp(journal.path);
    for (std::size_t p = bytes.find("\np "); p != std::string::npos;
         p = bytes.find("\np ", p + 1)) {
      // Count only complete (newline-terminated) records.
      if (bytes.find('\n', p + 1) != std::string::npos) ++records;
    }
    if (records >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_GE(records, 2u) << "child never journalled two points";
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child exited before the kill — throttle too short";

  auto cfg = small_config();
  cfg.checkpoint_file = journal.path;
  cfg.jobs = 8;
  const auto resumed = core::explore(*b.graph, *b.schedule, cfg);
  EXPECT_GE(resumed.replayed_points, 2u);
  EXPECT_LT(resumed.replayed_points, baseline.points.size());
  EXPECT_EQ(report_bytes(baseline), report_bytes(resumed));
}
#endif
