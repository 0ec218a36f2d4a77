#include "util/fault_injection.hpp"

#include "util/strings.hpp"

namespace mcrtl::fault {

namespace {

std::atomic<bool> g_enabled{false};

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Injector& Injector::instance() {
  static Injector inj;
  return inj;
}

const std::vector<const char*>& Injector::known_sites() {
  // One entry per fault::inject() call site in the library. Keep in sync —
  // tests/test_fault_injection.cpp asserts each is reachable.
  static const std::vector<const char*> sites{
      "alloc.integrated",  // core/integrated.cpp allocate_integrated
      "alloc.split",       // core/split.cpp allocate_split
      "rtl.build",         // rtl/builder.cpp build_design
      "sim.run",           // sim/simulator.cpp Simulator::run
      "journal.load",      // core/checkpoint.cpp CheckpointJournal::load
      "journal.append",    // core/checkpoint.cpp CheckpointJournal::append
      "explore.point",     // core/explorer.cpp, detail = configuration label
  };
  return sites;
}

void Injector::arm(const std::string& site, ArmSpec spec) {
  std::lock_guard<std::mutex> lk(m_);
  state_[site].spec = std::move(spec);
}

void Injector::disarm(const std::string& site) {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = state_.find(site);
  if (it != state_.end()) it->second.spec.reset();
}

void Injector::reset() {
  std::lock_guard<std::mutex> lk(m_);
  state_.clear();
}

std::uint64_t Injector::hits(const std::string& site) const {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = state_.find(site);
  return it == state_.end() ? 0 : it->second.hits;
}

std::vector<std::pair<std::string, std::uint64_t>> Injector::sites() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(state_.size());
  for (const auto& [name, st] : state_) {
    // An armed-but-never-hit site is staged configuration, not an
    // observation: it must not break the "disabled run leaves the registry
    // empty" contract.
    if (st.hits > 0) out.emplace_back(name, st.hits);
  }
  return out;
}

void Injector::on_site(const char* site, const std::string& detail) {
  std::uint64_t hit;
  bool fail = false;
  {
    std::lock_guard<std::mutex> lk(m_);
    SiteState& st = state_[site];
    hit = ++st.hits;
    if (st.spec) {
      const ArmSpec& spec = *st.spec;
      const bool matches =
          spec.match.empty() || detail.find(spec.match) != std::string::npos;
      if (matches) {
        // FirstK thresholds on *matching* hits, so a match filter selects
        // which occurrences can fail, not just whether any do.
        const std::uint64_t matching = ++st.matching_hits;
        switch (spec.mode) {
          case ArmSpec::Mode::Observe: break;
          case ArmSpec::Mode::Always: fail = true; break;
          case ArmSpec::Mode::FirstK: fail = matching <= spec.k; break;
        }
      }
    }
  }
  if (fail) throw InjectedFault(site, hit);
}

bool arm_from_spec(const std::string& spec) {
  // site:mode[:K][:match=SUB]
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t colon = spec.find(':', pos);
    if (colon == std::string::npos) {
      parts.push_back(spec.substr(pos));
      break;
    }
    parts.push_back(spec.substr(pos, colon - pos));
    pos = colon + 1;
  }
  if (parts.size() < 2 || parts[0].empty()) return false;

  ArmSpec arm;
  if (!parts.empty() && parts.back().rfind("match=", 0) == 0) {
    arm.match = parts.back().substr(6);
    parts.pop_back();
    if (parts.size() < 2) return false;
  }
  const std::string& site = parts[0];
  bool known = false;
  for (const char* s : Injector::known_sites()) known = known || site == s;
  if (!known) return false;

  const std::string& mode = parts[1];
  if (mode == "observe" && parts.size() == 2) {
    arm.mode = ArmSpec::Mode::Observe;
  } else if (mode == "always" && parts.size() == 2) {
    arm.mode = ArmSpec::Mode::Always;
  } else if (mode == "first" && parts.size() == 3) {
    const auto k = parse_number(parts[2], std::uint64_t{1}, ~std::uint64_t{0});
    if (!k) return false;
    arm.mode = ArmSpec::Mode::FirstK;
    arm.k = *k;
  } else {
    return false;
  }
  Injector::instance().arm(site, std::move(arm));
  return true;
}

}  // namespace mcrtl::fault
