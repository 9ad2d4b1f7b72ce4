#include "cello/cello.hpp"

#include "common/format.hpp"

namespace cello {

std::string compare_table(const ir::TensorDag& dag, const sim::AcceleratorConfig& arch,
                          const sparse::CsrMatrix* matrix) {
  const sim::Simulator simulator(arch, matrix);
  const auto& registry = sim::ConfigRegistry::global();
  const auto& names = sim::ConfigRegistry::table4_names();
  std::vector<sim::RunMetrics> results;
  for (const std::string& name : names) results.push_back(simulator.run(dag, registry.at(name)));
  const double base_time = results.front().seconds;  // Flexagon, the first row
  const double base_energy = results.front().offchip_energy_pj;

  TextTable table({"config", "GMACs/s", "time", "DRAM traffic", "AI (MACs/B)",
                   "speedup vs Flexagon", "off-chip energy vs Flexagon"});
  for (size_t i = 0; i < names.size(); ++i) {
    const sim::RunMetrics& m = results[i];
    table.add_row({names[i], format_double(m.gmacs_per_sec(), 2),
                   format_double(m.seconds * 1e6, 1) + " us", format_bytes(static_cast<double>(m.dram_bytes)),
                   format_double(m.intensity(), 2), format_double(base_time / m.seconds, 2) + "x",
                   format_double(m.offchip_energy_pj / base_energy, 3)});
  }
  return table.to_string();
}

}  // namespace cello
