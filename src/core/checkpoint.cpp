#include "core/checkpoint.hpp"

#include <fstream>
#include <span>
#include <sstream>
#include <string_view>

#include "core/record.hpp"
#include "dfg/textio.hpp"
#include "util/fault_injection.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace mcrtl::core {

namespace {

using record::encode_double;
using record::encode_u64;
using record::fnv1a64;

// v4: DesignStats grew `period` (29 payload tokens) and the fingerprint
// covers per-configuration hashes (ExplorerConfig::explicit_configs). v3
// had added hotspot/hotspot_share/crest (28); v2 power_stddev/power_ci95
// (25). A journal from an older version no longer matches the magic and is
// treated as absent — the sweep starts fresh and overwrites it. The token
// codec itself lives in core/record.hpp, shared with the search layer's
// result cache.
constexpr const char* kMagic = "mcrtl-journal v4 fp=";

std::string record_line(std::size_t index, const ExplorationPoint& p) {
  std::string line;
  const std::size_t payload_at = record::begin_record(line, 'p');
  record::append_decimal(line, index);
  line += ' ';
  record::append_point_fields(line, p);
  record::end_record(line, payload_at);
  return line;
}

/// Parse one complete record line. Returns false (leaving `index`/`point`
/// untouched as far as the caller is concerned) on any malformation.
bool parse_record(std::string_view line, std::size_t& index,
                  ExplorationPoint& point) {
  std::string_view payload;
  if (!record::checked_payload(line, payload) || line[0] != 'p') return false;
  std::string_view toks[1 + record::kPointTokens];
  return record::split(payload, toks) == std::size(toks) &&
         record::decode_index(toks[0], index) &&
         record::decode_point_fields(std::span(toks).subspan<1>(), point);
}

std::string header_line(std::uint64_t fp) {
  std::string line = kMagic;
  record::append_u64(line, fp);
  line += '\n';
  return line;
}

/// Classify the first line of a journal's bytes (empty when the file is
/// missing).
enum class HeaderState { Missing, Matches, Mismatch };

HeaderState header_state(std::string_view content, std::uint64_t fp) {
  const std::size_t nl = content.find('\n');
  // An incomplete first line (crash before the header fsync finished) is
  // treated as no journal at all.
  if (nl == std::string_view::npos) return HeaderState::Missing;
  const std::string_view first = content.substr(0, nl + 1);
  if (!first.starts_with(kMagic)) return HeaderState::Missing;
  return first == header_line(fp) ? HeaderState::Matches
                                  : HeaderState::Mismatch;
}

void fsync_file(std::FILE* f) {
  if (std::fflush(f) != 0) throw Error("journal flush failed");
#ifndef _WIN32
  if (::fsync(fileno(f)) != 0) throw Error("journal fsync failed");
#endif
}

/// Drop a torn tail (bytes after the last '\n' of `content`, the file's
/// bytes) before reopening for append. Without this, the first record a
/// resumed run appends would concatenate onto the partial line a SIGKILL
/// left behind, corrupting a *mid-file* record — which the loader treats as
/// the end of the journal.
void truncate_torn_tail(const std::string& path, std::string_view content) {
  if (content.empty() || content.back() == '\n') return;
  const std::size_t nl = content.find_last_of('\n');
  const std::size_t keep = nl == std::string_view::npos ? 0 : nl + 1;
#ifndef _WIN32
  if (::truncate(path.c_str(), static_cast<off_t>(keep)) == 0) return;
#endif
  // Fallback: rewrite the prefix.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(keep));
}

}  // namespace

std::uint64_t measurement_fingerprint(const dfg::Graph& graph,
                                      const dfg::Schedule& sched,
                                      std::size_t computations,
                                      std::uint64_t seed, std::size_t streams,
                                      const power::PowerParams& params) {
  std::ostringstream os;
  os << "mcrtl-explorer-v3\n" << dfg::serialize_dfg(graph, &sched) << '\n'
     << computations << ' ' << seed << ' ' << streams << ' '
     << encode_double(params.vdd) << ' ' << encode_double(params.f_master)
     << ' ' << encode_double(params.leakage_mw_per_mlambda2) << ' '
     << params.include_controller_fsm << '\n';
  return fnv1a64(os.str());
}

std::uint64_t CheckpointJournal::fingerprint(const ExplorerConfig& cfg,
                                             const dfg::Graph& graph,
                                             const dfg::Schedule& sched) {
  std::ostringstream os;
  os << encode_u64(measurement_fingerprint(graph, sched, cfg.computations,
                                           cfg.seed, cfg.streams,
                                           cfg.power_params))
     << '\n'
     << cfg.max_clocks << ' ' << cfg.include_conventional << ' '
     << cfg.include_split << ' ' << cfg.include_dff_variant << '\n';
  // The enumerated (label, config-hash) pairs pin the enumeration logic
  // itself — including explicit_configs lists, whose labels alone would
  // not determine the options: if a future library version (or a different
  // caller-supplied list) enumerates differently, old journals are stale.
  for (const auto& [opts, label] : enumerate_configurations(cfg)) {
    os << label << ' ' << encode_u64(config_hash(opts)) << '\n';
  }
  return fnv1a64(os.str());
}

CheckpointJournal::LoadResult CheckpointJournal::load(
    const std::string& path, std::uint64_t fp,
    const std::vector<std::pair<SynthesisOptions, std::string>>& configs) {
  fault::inject("journal.load");
  LoadResult res;
  res.points.resize(configs.size());
  std::string content;
  record::read_file(path, content);
  switch (header_state(content, fp)) {
    case HeaderState::Missing:
      return res;
    case HeaderState::Mismatch:
      throw JournalMismatchError(
          "checkpoint journal '" + path +
          "' was written by a different exploration configuration; refusing "
          "to resume (delete it or pass a matching ExplorerConfig)");
    case HeaderState::Matches:
      break;
  }
  const std::string_view text = content;
  std::size_t pos = text.find('\n') + 1;  // skip the verified header
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    // A line without its terminating newline is the torn tail of a crashed
    // append: stop replaying here.
    if (nl == std::string_view::npos) break;
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    std::size_t index = 0;
    ExplorationPoint point;
    // Append-only files can only be damaged at the tail, so the first bad
    // record ends the replay.
    if (!parse_record(line, index, point)) break;
    if (index >= configs.size() || point.label != configs[index].second) break;
    point.options = configs[index].first;
    point.pareto = false;  // recomputed after the sweep
    if (!res.points[index]) ++res.replayed;
    res.points[index] = std::move(point);
  }
  return res;
}

CheckpointJournal::CheckpointJournal(const std::string& path,
                                     std::uint64_t fp) {
  std::string content;
  record::read_file(path, content);
  switch (header_state(content, fp)) {
    case HeaderState::Mismatch:
      throw JournalMismatchError("checkpoint journal '" + path +
                                 "' belongs to a different exploration");
    case HeaderState::Matches:
      truncate_torn_tail(path, content);
      f_ = std::fopen(path.c_str(), "ab");
      break;
    case HeaderState::Missing: {
      f_ = std::fopen(path.c_str(), "wb");
      if (!f_) break;
      const std::string hdr = header_line(fp);
      try {
        if (std::fwrite(hdr.data(), 1, hdr.size(), f_) != hdr.size()) {
          throw Error("journal header write failed");
        }
        fsync_file(f_);
      } catch (...) {
        std::fclose(f_);
        f_ = nullptr;
      }
      break;
    }
  }
}

CheckpointJournal::~CheckpointJournal() {
  std::lock_guard<std::mutex> lk(m_);
  if (f_) std::fclose(f_);
  f_ = nullptr;
}

bool CheckpointJournal::ok() const {
  std::lock_guard<std::mutex> lk(m_);
  return f_ != nullptr;
}

bool CheckpointJournal::append(std::size_t index,
                               const ExplorationPoint& point) {
  std::lock_guard<std::mutex> lk(m_);
  if (!f_) return false;
  const std::string line = record_line(index, point);
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      fault::inject("journal.append");
      // One fwrite per record keeps the torn-write window to a single line,
      // which load() is built to tolerate.
      if (std::fwrite(line.data(), 1, line.size(), f_) != line.size()) {
        throw Error("journal record write failed");
      }
      fsync_file(f_);
      return true;
    } catch (const std::exception&) {
      std::clearerr(f_);
    }
  }
  // Persistent I/O failure: stop journaling, keep sweeping.
  std::fclose(f_);
  f_ = nullptr;
  return false;
}

}  // namespace mcrtl::core
