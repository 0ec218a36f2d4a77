#include "core/synthesizer.hpp"

#include <algorithm>

#include "alloc/conventional.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace mcrtl::core {

std::string style_label(DesignStyle style, int num_clocks) {
  switch (style) {
    case DesignStyle::ConventionalNonGated:
      return "Conven. Alloc. (Non-Gated Clock)";
    case DesignStyle::ConventionalGated:
      return "Conven. Alloc. (Gated Clock)";
    case DesignStyle::MultiClock:
      return str_format("%d Clock%s", num_clocks, num_clocks == 1 ? "" : "s");
  }
  return "?";
}

std::uint64_t config_hash(const SynthesisOptions& opts) {
  // Serialize every field that changes the synthesized design; a future
  // SynthesisOptions field must be appended here (the search layer's dedupe
  // and result cache would otherwise alias distinct configurations).
  const std::string s = str_format(
      "style=%d clocks=%d method=%d latches=%d lctl=%d xfer=%d sbind=%d "
      "iso=%d ic=%d fu=%d:%a:%u",
      static_cast<int>(opts.style), opts.num_clocks,
      static_cast<int>(opts.method), opts.use_latches ? 1 : 0,
      opts.latched_control ? 1 : 0, opts.insert_transfers ? 1 : 0,
      static_cast<int>(opts.storage_binding), opts.operand_isolation ? 1 : 0,
      static_cast<int>(opts.interconnect),
      opts.fu.partition_constrained ? 1 : 0, opts.fu.function_add_cost,
      opts.fu.max_functions);
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t allocation_hash(const SynthesisOptions& opts) {
  // The fields only build_options() reads, at fixed values.
  SynthesisOptions a = opts;
  if (a.style == DesignStyle::ConventionalGated) {
    a.style = DesignStyle::ConventionalNonGated;
  }
  a.latched_control = true;
  a.operand_isolation = false;
  a.interconnect = rtl::BuildOptions::Interconnect::Mux;
  return config_hash(a);
}

std::uint64_t simulation_hash(const SynthesisOptions& opts) {
  SynthesisOptions a = opts;
  a.interconnect = rtl::BuildOptions::Interconnect::Mux;
  return config_hash(a);
}

namespace {
/// The build half of synthesize(): everything rtl::build_design() needs
/// from the options.
rtl::BuildOptions build_options(const SynthesisOptions& opts) {
  rtl::BuildOptions build;
  if (opts.style == DesignStyle::MultiClock) {
    // The paper's scheme always gates the memory-element clocking: an
    // element only receives an edge in its own partition's duty cycle
    // when it actually loads.
    build.gated_clocks = true;
    build.latched_control = opts.latched_control && opts.num_clocks > 1;
  } else {
    build.gated_clocks = opts.style == DesignStyle::ConventionalGated;
    build.latched_control = false;
  }
  build.style_name = style_label(opts.style, opts.num_clocks);
  build.operand_isolation = opts.operand_isolation;
  if (opts.operand_isolation) build.style_name += " + Isolation";
  build.interconnect = opts.interconnect;
  if (opts.interconnect == rtl::BuildOptions::Interconnect::TristateBus) {
    build.style_name += " (Bus)";
  }
  return build;
}
}  // namespace

Synthesized synthesize(const dfg::Graph& graph, const dfg::Schedule& sched,
                       const SynthesisOptions& opts) {
  obs::Span span("core.synthesize");
  graph.validate();
  sched.validate();

  Synthesized out;
  switch (opts.style) {
    case DesignStyle::ConventionalNonGated:
    case DesignStyle::ConventionalGated: {
      obs::Span alloc_span("alloc.conventional");
      SynthesisResult r;
      r.graph = std::make_unique<dfg::Graph>(graph);
      r.schedule = std::make_unique<dfg::Schedule>(*r.graph);
      for (const auto& node : graph.nodes()) {
        r.schedule->set_step(node.id, sched.step(node.id));
      }
      r.lifetimes = std::make_unique<alloc::LifetimeAnalysis>(*r.schedule);
      alloc::ConventionalOptions conv;
      conv.storage_kind = alloc::StorageKind::Register;
      conv.fu = opts.fu;
      out.alloc = std::move(r);
      out.alloc.binding = std::make_unique<alloc::Binding>(alloc::allocate_conventional(
          *out.alloc.schedule, *out.alloc.lifetimes, conv));
      break;
    }
    case DesignStyle::MultiClock: {
      MCRTL_CHECK_MSG(opts.num_clocks >= 1, "MultiClock needs num_clocks >= 1");
      const alloc::StorageKind kind = opts.use_latches
                                          ? alloc::StorageKind::Latch
                                          : alloc::StorageKind::Register;
      // With partitioned ALUs the paper's allocations favour narrow function
      // sets (Table 1's 3-clock row is all single-function units): merging an
      // add into a multiplier ALU makes every operand transition ripple
      // through the multiplier array. Bias the greedy binder accordingly.
      alloc::FuBindingOptions mc_fu = opts.fu;
      if (opts.num_clocks > 1) {
        mc_fu.function_add_cost = std::max(mc_fu.function_add_cost, 1.25);
      }
      if (opts.method == AllocMethod::Integrated || opts.num_clocks == 1) {
        IntegratedOptions io;
        io.num_clocks = opts.num_clocks;
        io.storage_kind = kind;
        io.insert_transfers = opts.insert_transfers;
        io.storage_binding = opts.storage_binding;
        io.fu = mc_fu;
        out.alloc = allocate_integrated(graph, sched, io);
      } else {
        SplitOptions so;
        so.num_clocks = opts.num_clocks;
        so.storage_kind = kind;
        so.fu = mc_fu;
        auto sr = allocate_split(graph, sched, so);
        out.alloc = std::move(sr.synthesis);
        out.cleanup = sr.cleanup;
      }
      break;
    }
  }

  out.design = std::make_unique<rtl::Design>(
      rtl::build_design(*out.alloc.binding, build_options(opts)));
  return out;
}

void set_interconnect(rtl::Design& design,
                      rtl::BuildOptions::Interconnect ic) {
  const rtl::CompKind kind = ic == rtl::BuildOptions::Interconnect::TristateBus
                                 ? rtl::CompKind::Bus
                                 : rtl::CompKind::Mux;
  for (const auto& c : design.netlist.components()) {
    if (c.kind == rtl::CompKind::Mux || c.kind == rtl::CompKind::Bus) {
      design.netlist.comp_mut(c.id).kind = kind;
    }
  }
}

Synthesized synthesize(const Synthesized& base, const SynthesisOptions& opts) {
  obs::Span span("core.synthesize");
  MCRTL_CHECK_MSG(base.alloc.binding != nullptr,
                  "synthesize() reuse needs a base that owns its allocation");
  Synthesized out;
  out.cleanup = base.cleanup;
  out.design = std::make_unique<rtl::Design>(
      rtl::build_design(*base.alloc.binding, build_options(opts)));
  return out;
}

}  // namespace mcrtl::core
