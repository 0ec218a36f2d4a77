#include "rtl/control.hpp"

#include "util/bits.hpp"
#include "util/error.hpp"

namespace mcrtl::rtl {

ControlPlan::ControlPlan(const ClockScheme& clocks) : clocks_(clocks) {}

void ControlPlan::reserve(std::size_t signals) {
  signals_.reserve(signals);
  values_.reserve(signals * static_cast<std::size_t>(period()));
}

unsigned ControlPlan::add_signal(std::string name, SignalRole role, unsigned width,
                                 bool latched, int partition, CompId source) {
  MCRTL_CHECK(width >= 1 && width <= 64);
  MCRTL_CHECK(partition >= 1 && partition <= clocks_.num_phases());
  ControlSignal s;
  s.index = static_cast<unsigned>(signals_.size());
  s.name = std::move(name);
  s.role = role;
  s.width = width;
  s.latched = latched;
  s.partition = partition;
  s.source = source;
  signals_.push_back(std::move(s));
  values_.resize(values_.size() + static_cast<std::size_t>(period()), 0);
  return signals_.back().index;
}

void ControlPlan::set_value(unsigned sig, int t, std::uint64_t value) {
  MCRTL_CHECK(sig < signals_.size());
  MCRTL_CHECK_MSG(t >= 1 && t <= period(), "step " << t << " out of period");
  values_[sig * static_cast<std::size_t>(period()) +
          static_cast<std::size_t>(t - 1)] = truncate(value, signals_[sig].width);
}

std::uint64_t ControlPlan::table_value(unsigned sig, int t) const {
  MCRTL_CHECK(sig < signals_.size());
  MCRTL_CHECK(t >= 1 && t <= period());
  return values_[sig * static_cast<std::size_t>(period()) +
                 static_cast<std::size_t>(t - 1)];
}

int ControlPlan::line_step(const ControlSignal& s, int t) const {
  if (!s.latched) return t;
  // Latest step t' <= t with phase(t') == partition; wrap into the previous
  // period if the partition has not pulsed yet this period.
  const int n = clocks_.num_phases();
  const int tp = t - ((t - s.partition) % n + n) % n;
  return tp < 1 ? tp + period() : tp;  // period is a multiple of n
}

std::uint64_t ControlPlan::line_value(unsigned sig, int t) const {
  MCRTL_CHECK(t >= 1 && t <= period());
  return table_value(sig, line_step(signal(sig), t));
}

std::vector<std::uint64_t> ControlPlan::line_values() const {
  const std::size_t n = signals_.size();
  const std::size_t p = static_cast<std::size_t>(period());
  std::vector<std::uint64_t> lines(p * n);
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint64_t* table = values_.data() + s * p;
    for (int t = 1; t <= period(); ++t) {
      lines[static_cast<std::size_t>(t - 1) * n + s] =
          table[line_step(signals_[s], t) - 1];
    }
  }
  return lines;
}

void ControlPlan::hold_fill(unsigned sig, const std::vector<bool>& care,
                            FillPolicy policy) {
  MCRTL_CHECK(sig < signals_.size());
  MCRTL_CHECK(care.size() == static_cast<std::size_t>(period()) + 1);
  std::uint64_t* vals = values_.data() + sig * static_cast<std::size_t>(period());
  const bool any_care = [&] {
    for (int t = 1; t <= period(); ++t) {
      if (care[static_cast<std::size_t>(t)]) return true;
    }
    return false;
  }();
  if (!any_care) return;  // nothing to anchor the fill; leave zeros

  if (policy == FillPolicy::HoldLast) {
    // Seed from the last cared value (tables repeat every period).
    std::uint64_t hold = 0;
    for (int t = period(); t >= 1; --t) {
      if (care[static_cast<std::size_t>(t)]) {
        hold = vals[static_cast<std::size_t>(t - 1)];
        break;
      }
    }
    for (int t = 1; t <= period(); ++t) {
      if (care[static_cast<std::size_t>(t)]) {
        hold = vals[static_cast<std::size_t>(t - 1)];
      } else {
        vals[static_cast<std::size_t>(t - 1)] = hold;
      }
    }
  } else {
    // NextCare: seed from the first cared value (wraps to next period).
    std::uint64_t next = 0;
    for (int t = 1; t <= period(); ++t) {
      if (care[static_cast<std::size_t>(t)]) {
        next = vals[static_cast<std::size_t>(t - 1)];
        break;
      }
    }
    for (int t = period(); t >= 1; --t) {
      if (care[static_cast<std::size_t>(t)]) {
        next = vals[static_cast<std::size_t>(t - 1)];
      } else {
        vals[static_cast<std::size_t>(t - 1)] = next;
      }
    }
  }
}

const ControlSignal& ControlPlan::signal(unsigned sig) const {
  MCRTL_CHECK(sig < signals_.size());
  return signals_[sig];
}

unsigned ControlPlan::total_bits() const {
  unsigned bits = 0;
  for (const auto& s : signals_) bits += s.width;
  return bits;
}

}  // namespace mcrtl::rtl
