#include "cello/cello.hpp"

#include <memory>

#include "common/format.hpp"

namespace cello {

std::string compare_table(const ir::TensorDag& dag, const sim::AcceleratorConfig& arch,
                          const sparse::CsrMatrix* matrix) {
  // The one-row sweep borrows (does not own) the caller's DAG and matrix.
  const std::shared_ptr<const void> none;
  const sim::Workload row{{}, {}, {none, &dag}, {none, matrix}};
  std::vector<sim::Configuration> configs;
  for (const std::string& name : sim::ConfigRegistry::table4_names())
    configs.push_back(sim::ConfigRegistry::global().at(name));
  const auto cells = sim::SweepRunner().run({row}, configs, {arch});
  const double base_time = cells.front().metrics.seconds;  // Flexagon, the first row
  const double base_energy = cells.front().metrics.offchip_energy_pj;

  TextTable table({"config", "GMACs/s", "time", "DRAM traffic", "AI (MACs/B)",
                   "speedup vs Flexagon", "off-chip energy vs Flexagon"});
  for (const sim::SweepResult& cell : cells) {
    const sim::RunMetrics& m = cell.metrics;
    table.add_row({cell.config, format_double(m.gmacs_per_sec(), 2),
                   format_double(m.seconds * 1e6, 1) + " us", format_bytes(static_cast<double>(m.dram_bytes)),
                   format_double(m.intensity(), 2), format_double(base_time / m.seconds, 2) + "x",
                   format_double(m.offchip_energy_pj / base_energy, 3)});
  }
  return table.to_string();
}

}  // namespace cello
