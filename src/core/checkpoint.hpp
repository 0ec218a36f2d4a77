// Crash-safe exploration journal.
//
// Long design-space sweeps (the paper's Tables 1–4 regime) must survive a
// kill mid-run: `core::explore()` with `ExplorerConfig::checkpoint_file`
// set appends one record per *completed* design point to this journal —
// fsync'd, so a SIGKILL loses at most the point being written — and a
// re-run with the same configuration replays the journal, skips the
// completed points and produces reports byte-identical to an uninterrupted
// run (asserted by tests/test_checkpoint.cpp).
//
// File format (line-oriented, append-only):
//
//   mcrtl-journal v1 fp=<16-hex fingerprint>
//   p <index> <label> <power x7> <area x8> <alu_summary> <stats x5> <crc>
//
// The fingerprint hashes everything that determines the measurement: the
// serialized graph+schedule, the ExplorerConfig knobs that change the
// enumeration or the stimulus (not `jobs` — resuming on a different thread
// count is explicitly supported), and the enumerated labels. A journal
// whose fingerprint differs is *stale* and rejected with
// JournalMismatchError; a journal truncated mid-record (crash during the
// final append) is tolerated — parsing stops at the first incomplete or
// checksum-failing line. Doubles are serialized as 64-bit IEEE bit
// patterns, so a replayed point is bit-identical to the measured one.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/explorer.hpp"
#include "util/error.hpp"

namespace mcrtl::core {

/// Thrown when a journal exists but was written by a different
/// (graph, schedule, ExplorerConfig) — resuming would silently mix
/// measurements from two different experiments.
class JournalMismatchError : public Error {
 public:
  explicit JournalMismatchError(const std::string& what) : Error(what) {}
};

/// Hash of (behaviour, measurement knobs) — the part of a sweep's identity
/// that is independent of which *other* configurations ride in the same
/// sweep. The checkpoint fingerprint builds on it; the search layer's
/// result cache keys each point on measurement_fingerprint ⊕
/// config_hash(options), which is why a cached row stays valid across
/// overlapping sweeps. Its salt names the measurement's definition: v3 is
/// the class-weighted power probe, whose crest differs from v2's in the
/// last bits, so journals and caches of older measurements go stale and
/// are measured again instead of replayed.
std::uint64_t measurement_fingerprint(const dfg::Graph& graph,
                                      const dfg::Schedule& sched,
                                      std::size_t computations,
                                      std::uint64_t seed, std::size_t streams,
                                      const power::PowerParams& params);

class CheckpointJournal {
 public:
  /// Hash of everything that determines an exploration's measurements.
  /// Deliberately excludes `jobs` and the fault-tolerance knobs: they
  /// change how the sweep is executed, never what it measures.
  static std::uint64_t fingerprint(const ExplorerConfig& cfg,
                                   const dfg::Graph& graph,
                                   const dfg::Schedule& sched);

  struct LoadResult {
    /// One slot per enumerated configuration; engaged = replayed.
    std::vector<std::optional<ExplorationPoint>> points;
    std::size_t replayed = 0;
  };

  /// Parse the journal at `path` against the expected fingerprint and
  /// enumeration. A missing or empty file yields an empty result; a
  /// header with a different fingerprint throws JournalMismatchError;
  /// trailing truncated/corrupt records are dropped silently.
  static LoadResult load(
      const std::string& path, std::uint64_t fp,
      const std::vector<std::pair<SynthesisOptions, std::string>>& configs);

  /// Open `path` for appending. If the file is missing, empty, or carries
  /// an invalid header, it is created fresh with a new header (fsync'd);
  /// if it carries a valid header with a different fingerprint,
  /// JournalMismatchError is thrown. A torn tail left by a crashed append
  /// is truncated to the last complete line first, so records appended by
  /// the resumed run never concatenate onto a partial one.
  CheckpointJournal(const std::string& path, std::uint64_t fp);
  ~CheckpointJournal();

  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Append one completed point (thread-safe; one fwrite + fsync per call).
  /// An I/O failure (or an injected `journal.append` fault) is retried
  /// once; if it persists, journaling is disabled for the rest of the run
  /// and append returns false — a broken disk must degrade the checkpoint,
  /// never kill the sweep.
  bool append(std::size_t index, const ExplorationPoint& point);

  /// Still writing? (false after the constructor failed to open the file
  /// or append gave up.)
  bool ok() const;

 private:
  mutable std::mutex m_;
  std::FILE* f_ = nullptr;
};

}  // namespace mcrtl::core
