#include "sim/power_probe.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace mcrtl::sim {

PowerProbe::PowerProbe(const EnergyModel& model)
    : model_(&model),
      domains_(static_cast<std::size_t>(model.num_domains) + 1) {
  // Classes of one kind (controller-driven, then data) keyed by exact fj
  // bits and domain, numbered in order of first appearance. A design has a
  // few dozen, so a linear search beats a map's allocations.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
  std::size_t first = 0;  // first class of the kind being numbered
  auto class_of = [&](double fj, std::uint32_t domain) {
    const std::pair<std::uint64_t, std::uint32_t> key{
        std::bit_cast<std::uint64_t>(fj), domain};
    const auto it = std::find(keys.begin() + static_cast<std::ptrdiff_t>(first),
                              keys.end(), key);
    if (it != keys.end()) return static_cast<std::uint32_t>(it - keys.begin());
    keys.push_back(key);
    class_fj_.push_back(fj);
    class_domain_.push_back(domain);
    return static_cast<std::uint32_t>(keys.size() - 1);
  };
  phase_class_.assign(domains_, 0);
  for (std::size_t p = 1; p < domains_; ++p) {
    phase_class_[p] =
        class_of(model.phase_pulse_fj[p], static_cast<std::uint32_t>(p));
  }
  storage_class_.resize(model.storage_clock_fj.size());
  for (std::size_t i = 0; i < storage_class_.size(); ++i) {
    storage_class_[i] =
        class_of(model.storage_clock_fj[i], model.storage_domain[i]);
  }
  const std::size_t nets = model.net_fj.size();
  auto controller = [&](std::size_t net) {
    return net < model.net_controller.size() && model.net_controller[net] != 0;
  };
  net_class_.resize(nets);
  for (std::size_t i = 0; i < nets; ++i) {
    if (controller(i)) {
      net_class_[i] = class_of(model.net_fj[i], model.net_domain[i]);
    }
  }
  controller_classes_ = first = class_fj_.size();
  for (std::size_t i = 0; i < nets; ++i) {
    if (!controller(i)) {
      net_class_[i] = class_of(model.net_fj[i], model.net_domain[i]);
    }
  }
  counts_.assign(class_fj_.size(), 0);
}

void PowerProbe::add_counts(double* row, std::size_t first,
                            std::size_t last) {
  // A zero count would add +0.0, which changes no non-negative row.
  for (std::size_t c = first; c < last; ++c) {
    const std::uint64_t n = counts_[c];
    if (n == 0) continue;
    counts_[c] = 0;
    row[class_domain_[c]] += class_fj_[c] * static_cast<double>(n);
  }
}

void PowerProbe::weigh_counts(double* row, std::size_t classes) {
  std::fill(row, row + domains_, 0.0);
  add_counts(row, 0, classes);
}

void PowerProbe::end_step(const double* ctrl_row) {
  const std::size_t entries = domains_ + 1;
  if ((steps_ + 1) * entries > capacity_) {
    const std::size_t capacity = std::max(256 * entries, 2 * capacity_);
    auto rows = std::make_unique_for_overwrite<double[]>(capacity);
    std::copy(rows_.get(), rows_.get() + steps_ * entries, rows.get());
    rows_ = std::move(rows);
    capacity_ = capacity;
  }
  double* const row = rows_.get() + steps_ * entries;
  if (ctrl_row == nullptr) {
    weigh_counts(row, counts_.size());
  } else {
    std::copy(ctrl_row, ctrl_row + domains_, row);
    add_counts(row, controller_classes_, counts_.size());
  }
  double total = 0.0;
  for (std::size_t d = 0; d < domains_; ++d) total += row[d];
  row[domains_] = total;
  ++steps_;
  profile_ready_ = false;
}

void PowerProbe::open_sliced(std::size_t computations, std::size_t per,
                             std::vector<std::size_t> first,
                             std::size_t local) {
  reset();
  const auto P = static_cast<std::size_t>(model_->period);
  groups_ = first.size();
  per_ = per;
  first_ = std::move(first);
  steps_ = computations * P;
  const std::size_t entries = local * P * (domains_ + 1) * groups_;
  if (entries > capacity_) {
    rows_ = std::make_unique_for_overwrite<double[]>(entries);
    capacity_ = entries;
  }
}

std::size_t PowerProbe::slot(std::size_t step) const {
  if (groups_ == 1) return step * (domains_ + 1);
  const auto P = static_cast<std::size_t>(model_->period);
  const std::size_t c = step / P;
  const std::size_t g = c / per_;
  return ((c - first_[g]) * P + step % P) * (domains_ + 1) * groups_ + g;
}

template <class F>
void PowerProbe::each_step(F&& f) const {
  if (groups_ == 1) {
    for (std::size_t s = 0; s < steps_; ++s) f(s, s * (domains_ + 1));
    return;
  }
  // Group g's steps are consecutive; step t of its local computation i
  // sits (i·P + t)·(n+2)·G + g entries in.
  const auto P = static_cast<std::size_t>(model_->period);
  const std::size_t computations = steps_ / P;
  const std::size_t stride = (domains_ + 1) * groups_;
  std::size_t s = 0;
  for (std::size_t g = 0; g < groups_; ++g) {
    const std::size_t end = std::min((g + 1) * per_, computations);
    for (std::size_t c = g * per_; c < end; ++c) {
      const std::size_t base = (c - first_[g]) * P * stride + g;
      for (std::size_t t = 0; t < P; ++t) f(s++, base + t * stride);
    }
  }
}

double PowerProbe::profile_fj(int d, int period_step) const {
  const auto P = static_cast<std::size_t>(model_->period);
  if (!profile_ready_) {
    profile_.assign(domains_ * P, 0.0);
    each_step([&](std::size_t s, std::size_t at) {
      for (std::size_t i = 0; i < domains_; ++i) {
        profile_[i * P + s % P] += rows_[at + i * groups_];
      }
    });
    profile_ready_ = true;
  }
  return profile_[static_cast<std::size_t>(d) * P +
                  static_cast<std::size_t>(period_step - 1)];
}

double PowerProbe::domain_total_fj(int d) const {
  double sum = 0.0;
  for (int t = 1; t <= model_->period; ++t) sum += profile_fj(d, t);
  return sum;
}

double PowerProbe::total_fj() const {
  double sum = 0.0;
  for (int d = 0; d <= model_->num_domains; ++d) sum += domain_total_fj(d);
  return sum;
}

std::vector<double> PowerProbe::step_energies() const {
  std::vector<double> e(steps_);
  each_step([&](std::size_t s, std::size_t at) {
    e[s] = rows_[at + domains_ * groups_];
  });
  return e;
}

double PowerProbe::crest() const {
  if (steps_ == 0) return 0.0;
  double peak = 0.0, sum = 0.0;
  each_step([&](std::size_t, std::size_t at) {
    const double e = rows_[at + domains_ * groups_];
    sum += e;
    if (e > peak) peak = e;
  });
  const double mean = sum / static_cast<double>(steps_);
  return mean > 0.0 ? peak / mean : 0.0;
}

void PowerProbe::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  steps_ = 0;
  groups_ = 1;
  per_ = 0;
  first_.clear();
  profile_ready_ = false;
}

}  // namespace mcrtl::sim
