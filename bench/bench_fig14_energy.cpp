// Fig. 14: off-chip energy of every configuration relative to the explicit
// best-intra baseline, geomeaned per workload class (lower is better).
#include <map>

#include "bench_util.hpp"

int main() {
  using namespace cello;
  bench::print_header("Relative off-chip energy per workload (geomean)", "Fig. 14");

  // One grid: every (workload class, dataset) row under every configuration.
  // The registry instantiates each dataset once and shares it across rows.
  std::vector<sim::Workload> rows;
  std::vector<std::string> row_class;
  auto add_row = [&](const std::string& spec, const char* klass) {
    rows.push_back(sim::WorkloadRegistry::global().resolve(spec));
    row_class.push_back(klass);
  };
  for (const std::string name : {"fv1", "shallow_water1", "G2_circuit"})
    for (const char* n : {"1", "16"}) add_row("cg:" + name + ",n=" + n, "PDE solvers (CG)");
  for (const std::string name : {"fv1", "shallow_water1", "nasa4704"})
    add_row("bicgstab:" + name, "PDE solvers (BiCGStab)");
  for (const std::string name : {"cora", "protein"}) add_row("gnn:" + name, "GNN");
  const auto cells =
      sim::SweepRunner().run(rows, bench::table4_configs(), {bench::table5_config()});

  // workload class -> config -> list of relative energies across datasets.
  const size_t C = bench::table4_configs().size();
  std::map<std::string, std::map<std::string, std::vector<double>>> rel;
  for (size_t i = 0; i < rows.size(); ++i) {
    const double base = cells[i * C].metrics.offchip_energy_pj;  // Flexagon
    for (size_t j = 0; j < C; ++j) {
      const auto& cell = cells[i * C + j];
      rel[row_class[i]][cell.config].push_back(cell.metrics.offchip_energy_pj / base);
    }
  }

  std::vector<std::string> header = {"workload"};
  for (const auto& name : sim::ConfigRegistry::table4_names()) header.push_back(name);
  TextTable t(header);
  std::vector<double> cello_rel;
  for (const auto& [klass, per_config] : rel) {
    std::vector<std::string> row = {klass};
    for (const auto& name : sim::ConfigRegistry::table4_names()) {
      const auto& xs = per_config.at(name);
      const double g = geomean(xs);
      if (name == "Cello") cello_rel.insert(cello_rel.end(), xs.begin(), xs.end());
      row.push_back(format_double(g, 3));
    }
    t.add_row(std::move(row));
  }
  std::cout << t.to_string();
  const double overall = geomean(cello_rel);
  std::cout << "\nCello overall off-chip energy vs Flexagon: " << format_double(overall, 3)
            << " (" << format_double(100 * (1 - overall), 1)
            << "% reduction; paper reports 64-83% per workload, 4x geomean)\n";
  return 0;
}
