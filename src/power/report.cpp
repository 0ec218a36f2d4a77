#include "power/report.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace mcrtl::power {

std::string to_csv(const std::vector<ExperimentRecord>& records) {
  std::ostringstream os;
  os << "experiment,design,benchmark,width,computations,streams,"
        "power_total_mw,power_comb_mw,power_storage_mw,power_clock_mw,"
        "power_control_mw,power_io_mw,power_stddev_mw,power_ci95_mw,"
        "hotspot,hotspot_share,crest,"
        "area_total_l2,area_alus_l2,area_storage_l2,area_muxes_l2,"
        "area_controller_l2,"
        "num_alus,mem_cells,mux_inputs,num_clocks,period,alu_summary,"
        "pareto,dominated_by\n";
  for (const auto& r : records) {
    os << csv_escape(r.experiment) << ',' << csv_escape(r.design) << ','
       << csv_escape(r.benchmark) << ',' << r.width << ',' << r.computations
       << ',' << r.streams << ',' << str_format("%.6f", r.power.total) << ','
       << str_format("%.6f", r.power.combinational) << ','
       << str_format("%.6f", r.power.storage) << ','
       << str_format("%.6f", r.power.clock_tree) << ','
       << str_format("%.6f", r.power.control) << ','
       << str_format("%.6f", r.power.io) << ','
       << str_format("%.6f", r.power_stddev) << ','
       << str_format("%.6f", r.power_ci95) << ','
       << csv_escape(r.hotspot) << ','
       << str_format("%.6f", r.hotspot_share) << ','
       << str_format("%.6f", r.crest) << ','
       << str_format("%.0f", r.area.total) << ','
       << str_format("%.0f", r.area.alus) << ','
       << str_format("%.0f", r.area.storage) << ','
       << str_format("%.0f", r.area.muxes) << ','
       << str_format("%.0f", r.area.controller) << ',' << r.stats.num_alus
       << ',' << r.stats.num_memory_cells << ',' << r.stats.num_mux_inputs
       << ',' << r.stats.num_clocks << ',' << r.stats.period << ','
       << csv_escape(r.stats.alu_summary) << ',' << (r.pareto ? 1 : 0) << ','
       << csv_escape(r.dominated_by) << '\n';
  }
  return os.str();
}

std::string to_json(const std::vector<ExperimentRecord>& records) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    os << "  {\"experiment\": \"" << json_escape(r.experiment)
       << "\", \"design\": \"" << json_escape(r.design) << "\", \"benchmark\": \""
       << json_escape(r.benchmark) << "\", \"width\": " << r.width
       << ", \"computations\": " << r.computations
       << ", \"streams\": " << r.streams << ",\n   \"power_mw\": {"
       << str_format(
              "\"total\": %.6f, \"comb\": %.6f, \"storage\": %.6f, "
              "\"clock\": %.6f, \"control\": %.6f, \"io\": %.6f, "
              "\"stddev\": %.6f, \"ci95\": %.6f",
              r.power.total, r.power.combinational, r.power.storage,
              r.power.clock_tree, r.power.control, r.power.io, r.power_stddev,
              r.power_ci95)
       << "},\n   \"attribution\": {\"hotspot\": \"" << json_escape(r.hotspot)
       << "\", "
       << str_format("\"hotspot_share\": %.6f, \"crest\": %.6f",
                     r.hotspot_share, r.crest)
       << "},\n   \"area_l2\": {"
       << str_format(
              "\"total\": %.0f, \"alus\": %.0f, \"storage\": %.0f, "
              "\"muxes\": %.0f, \"controller\": %.0f",
              r.area.total, r.area.alus, r.area.storage, r.area.muxes,
              r.area.controller)
       << "},\n   \"stats\": {\"alus\": " << r.stats.num_alus
       << ", \"mem_cells\": " << r.stats.num_memory_cells
       << ", \"mux_inputs\": " << r.stats.num_mux_inputs
       << ", \"clocks\": " << r.stats.num_clocks
       << ", \"period\": " << r.stats.period << ", \"alu_summary\": \""
       << json_escape(r.stats.alu_summary) << "\"},\n   \"pareto\": "
       << (r.pareto ? "true" : "false") << ", \"dominated_by\": \""
       << json_escape(r.dominated_by) << "\"}";
    os << (i + 1 < records.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return os.str();
}

}  // namespace mcrtl::power
