// Deterministic fault injection for robustness testing.
//
// The explorer's crash-safety machinery (checkpoint journal, quarantine —
// see core/explorer.hpp) is only trustworthy if its failure paths are
// actually exercised, so the pipeline carries named *injection sites* at
// the places real faults occur: allocation, RTL construction, simulation
// and journal I/O. A site is one call — `fault::inject("rtl.build")` — that
// the Injector can arm to throw an `InjectedFault` on a deterministic
// schedule (always, or the first K hits), optionally filtered to hits whose
// detail string matches a substring (e.g. one configuration label of an
// exploration sweep).
//
// Zero-cost contract (mirrors obs::): injection is disabled by default and
// a disabled site is exactly one relaxed atomic load — no registry entry is
// created, no mutex taken, so a disabled run leaves the Injector's site
// table completely empty (asserted by tests/test_fault_injection.cpp).
//
// Determinism: every mode decides from the site's hit counter alone, so
// the *number* of failures is reproducible for any thread count (which
// worker observes them may vary).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace mcrtl::fault {

/// Thrown by an armed site. Derives from mcrtl::Error so it flows through
/// the same quarantine handling as a genuine pipeline failure.
class InjectedFault : public Error {
 public:
  InjectedFault(const std::string& site, std::uint64_t hit)
      : Error("injected fault at site '" + site + "' (hit " +
              std::to_string(hit) + ")"),
        site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// Is injection on? One relaxed atomic load; the gate every site checks
/// first.
bool enabled();

/// Turn injection on/off process-wide (tests, CLI --fault-inject).
void set_enabled(bool on);

/// How an armed site decides whether a hit fails.
struct ArmSpec {
  enum class Mode {
    Observe,  ///< count hits, never fail (reachability probes)
    Always,   ///< every matching hit fails
    FirstK,   ///< matching hits 1..k fail, later ones succeed
  };
  Mode mode = Mode::Observe;
  std::uint64_t k = 0;  ///< FirstK threshold
  /// If non-empty, only hits whose detail string contains this substring
  /// can fail (all hits are still counted).
  std::string match;
};

/// Process-global injection registry. All members are thread-safe.
class Injector {
 public:
  static Injector& instance();

  /// The compiled-in site list (for reachability tests and CLI validation).
  static const std::vector<const char*>& known_sites();

  /// Arm (or re-arm) a site. Arming is independent of enabled(): specs can
  /// be staged while injection is off.
  void arm(const std::string& site, ArmSpec spec);
  void disarm(const std::string& site);
  /// Disarm every site and clear all hit counters (does not change
  /// enabled()).
  void reset();

  /// Hits observed at `site` since the last reset() (0 if never hit).
  std::uint64_t hits(const std::string& site) const;
  /// Every site observed (hit at least once) since the last reset(), with
  /// hit counts; armed-but-unhit sites are not listed. Empty after a run
  /// with injection disabled — the zero-cost contract.
  std::vector<std::pair<std::string, std::uint64_t>> sites() const;

  /// Instrumentation entry point (use the inject() shorthands): counts the
  /// hit and throws InjectedFault if the armed spec says so.
  void on_site(const char* site, const std::string& detail);

 private:
  Injector() = default;

  struct SiteState {
    std::uint64_t hits = 0;
    std::uint64_t matching_hits = 0;  ///< hits passing the spec's match filter
    std::optional<ArmSpec> spec;
  };
  mutable std::mutex m_;
  std::map<std::string, SiteState> state_;
};

/// Arm a site from a CLI spec string:
///   "site:always"  "site:first:K"  "site:observe"
/// each optionally suffixed with ":match=SUBSTRING"; K is a decimal in
/// 1..2^64-1. Returns false on a malformed spec or an unknown site.
bool arm_from_spec(const std::string& spec);

/// A site. Disabled cost: one relaxed atomic load.
inline void inject(const char* site) {
  if (!enabled()) return;
  Injector::instance().on_site(site, std::string());
}
/// A site with a per-hit detail string (used by match filters).
inline void inject(const char* site, const std::string& detail) {
  if (!enabled()) return;
  Injector::instance().on_site(site, detail);
}

}  // namespace mcrtl::fault
