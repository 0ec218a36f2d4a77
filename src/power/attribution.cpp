#include "power/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/obs.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace mcrtl::power {

using rtl::CompId;
using rtl::CompKind;

namespace {

const char* group_name(CompKind k) {
  switch (k) {
    case CompKind::Alu: return "fu";
    case CompKind::Mux:
    case CompKind::Bus: return "mux";
    case CompKind::IsoGate: return "iso";
    case CompKind::Register:
    case CompKind::Latch: return "storage";
    case CompKind::ControlSource: return "control";
    case CompKind::InputPort:
    case CompKind::OutputPort: return "io";
    case CompKind::Constant: return "const";
  }
  return "other";
}

}  // namespace

std::string domain_label(int domain) {
  return domain == 0 ? std::string("global") : str_format("clk%d", domain);
}

Attribution::Attribution(const rtl::Design& design, const TechLibrary& tech,
                         double vdd)
    : design_(&design) {
  const rtl::Netlist& nl = design.netlist;
  const double v2 = vdd * vdd;  // fF * V^2 = fJ

  model_.num_domains = design.clocks.num_phases();
  model_.period = design.clocks.period();

  model_.net_fj.assign(nl.num_nets(), 0.0);
  model_.net_domain.assign(nl.num_nets(), 0);
  for (const auto& net : nl.nets()) {
    const std::size_t i = net.id.index();
    model_.net_fj[i] = tech.net_cap(nl, net) * v2;
    const int part = nl.comp(net.driver).partition;
    model_.net_domain[i] = part > 0 ? static_cast<std::uint32_t>(part) : 0;
  }
  model_.net_controller.assign(nl.num_nets(), 0);
  for (const auto& c : nl.components()) {
    if (c.kind == CompKind::ControlSource || c.kind == CompKind::Constant) {
      model_.net_controller[c.output.index()] = 1;
    }
  }

  model_.storage_clock_fj.assign(nl.num_components(), 0.0);
  model_.storage_domain.assign(nl.num_components(), 0);
  pin_fj_.assign(nl.num_components(), 0.0);
  gate_fj_.assign(nl.num_components(), 0.0);
  for (const auto& c : nl.components()) {
    if (!rtl::is_storage(c.kind)) continue;
    const std::size_t i = c.id.index();
    pin_fj_[i] = tech.storage_clock_pin_cap(c.kind) * c.width * v2;
    if (c.clock_gated) gate_fj_[i] = tech.clock_gate_event_cap() * v2;
    model_.storage_clock_fj[i] = pin_fj_[i] + gate_fj_[i];
    model_.storage_domain[i] =
        c.partition > 0 ? static_cast<std::uint32_t>(c.partition) : 0;
  }

  std::map<int, int> sinks;  // phase -> storage units, as estimate_power()
  for (const auto& c : nl.components()) {
    if (rtl::is_storage(c.kind)) ++sinks[c.clock_phase];
  }
  model_.phase_pulse_fj.assign(
      static_cast<std::size_t>(model_.num_domains) + 1, 0.0);
  for (int p = 1; p <= model_.num_domains; ++p) {
    model_.phase_pulse_fj[static_cast<std::size_t>(p)] =
        tech.clock_tree_cap(sinks[p]) * v2;
  }
}

AttributionReport Attribution::attribute(const sim::Activity& activity) const {
  const rtl::Netlist& nl = design_->netlist;
  const int n = model_.num_domains;

  AttributionReport rep;
  rep.steps = activity.steps;
  rep.domain_fj.assign(static_cast<std::size_t>(n) + 1, 0.0);

  // Fold net energy onto the driving component; the category split follows
  // estimate_power()'s driver-kind switch exactly.
  std::vector<double> comp_fj(nl.num_components(), 0.0);
  std::vector<std::uint64_t> comp_toggles(nl.num_components(), 0);
  for (const auto& net : nl.nets()) {
    const std::uint64_t toggles = activity.net_toggles[net.id.index()];
    rep.total_toggles += toggles;
    if (toggles == 0) continue;
    const double fj =
        model_.net_fj[net.id.index()] * static_cast<double>(toggles);
    comp_fj[net.driver.index()] += fj;
    comp_toggles[net.driver.index()] += toggles;
    switch (nl.comp(net.driver).kind) {
      case CompKind::Register:
      case CompKind::Latch: rep.category.storage_fj += fj; break;
      case CompKind::ControlSource: rep.category.control_fj += fj; break;
      case CompKind::InputPort: rep.category.io_fj += fj; break;
      default: rep.category.combinational_fj += fj; break;
    }
  }

  // Storage clock pins stay with the element (its row and domain); the
  // gating cell's charge is booked as clock_tree in the category sums, as
  // the estimator does.
  for (const auto& c : nl.components()) {
    if (!rtl::is_storage(c.kind)) continue;
    const std::size_t i = c.id.index();
    const std::uint64_t events = activity.storage_clock_events[i];
    if (events == 0) continue;
    const double e = static_cast<double>(events);
    comp_fj[i] += (pin_fj_[i] + gate_fj_[i]) * e;
    rep.category.storage_fj += pin_fj_[i] * e;
    rep.category.clock_tree_fj += gate_fj_[i] * e;
  }

  for (const auto& c : nl.components()) {
    const std::size_t i = c.id.index();
    const std::uint64_t events =
        rtl::is_storage(c.kind) ? activity.storage_clock_events[i] : 0;
    if (comp_fj[i] == 0.0 && comp_toggles[i] == 0 && events == 0) continue;
    AttributionRow row;
    row.component = c.name;
    row.group = group_name(c.kind);
    const std::string& op =
        i < design_->comp_op.size() ? design_->comp_op[i] : std::string();
    row.op = op.empty() ? row.group : op;
    row.domain = c.partition > 0 ? c.partition : 0;
    row.toggles = comp_toggles[i];
    row.clock_events = events;
    row.energy_fj = comp_fj[i];
    rep.domain_fj[static_cast<std::size_t>(row.domain)] += row.energy_fj;
    rep.total_fj += row.energy_fj;
    rep.rows.push_back(std::move(row));
  }

  // One pseudo-row per phase distribution tree, in the pulsing domain.
  for (int p = 1; p <= n; ++p) {
    const std::uint64_t pulses =
        activity.phase_pulses[static_cast<std::size_t>(p)];
    if (pulses == 0) continue;
    AttributionRow row;
    row.component = str_format("clk%d.tree", p);
    row.group = "clock_tree";
    row.op = "clock_tree";
    row.domain = p;
    row.toggles = pulses;
    row.energy_fj = model_.phase_pulse_fj[static_cast<std::size_t>(p)] *
                    static_cast<double>(pulses);
    rep.category.clock_tree_fj += row.energy_fj;
    rep.domain_fj[static_cast<std::size_t>(p)] += row.energy_fj;
    rep.total_fj += row.energy_fj;
    rep.rows.push_back(std::move(row));
  }

  std::sort(rep.rows.begin(), rep.rows.end(),
            [](const AttributionRow& a, const AttributionRow& b) {
              if (a.energy_fj != b.energy_fj) return a.energy_fj > b.energy_fj;
              return a.component < b.component;
            });
  return rep;
}

double AttributionReport::total_mw(double f_hz) const {
  if (steps == 0) return 0.0;
  // fJ per run -> mW: 1e-15 J * f/steps cycles-per-second * 1e3 mW/W.
  return total_fj * f_hz / static_cast<double>(steps) * 1e-12;
}

std::string AttributionReport::collapsed_stacks() const {
  std::string out;
  for (const auto& r : rows) {
    out += str_format("%s;%s;%s %lld\n", domain_label(r.domain).c_str(),
                      r.component.c_str(), r.op.c_str(),
                      static_cast<long long>(std::llround(r.energy_fj)));
  }
  return out;
}

std::string AttributionReport::top_table(std::size_t k) const {
  TextTable t({"component", "group", "domain", "op", "toggles", "energy[fJ]",
               "share[%]"},
              {Align::Left, Align::Left, Align::Left, Align::Left, Align::Right,
               Align::Right, Align::Right});
  const std::size_t limit = std::min(k, rows.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const auto& r = rows[i];
    t.add_row({r.component, r.group, domain_label(r.domain), r.op,
               std::to_string(r.toggles), format_fixed(r.energy_fj, 1),
               format_fixed(total_fj > 0.0 ? 100.0 * r.energy_fj / total_fj
                                           : 0.0,
                            2)});
  }
  return t.render();
}

void publish_power_tracks(const sim::PowerProbe& probe) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::instance();
  for (int d = 0; d <= probe.num_domains(); ++d) {
    std::vector<obs::TrackSample> samples;
    samples.reserve(probe.steps());
    for (std::size_t s = 0; s < probe.steps(); ++s) {
      samples.emplace_back(static_cast<double>(s), probe.step_fj(s, d));
    }
    reg.counter_track("power." + domain_label(d), std::move(samples));
  }
}

}  // namespace mcrtl::power
