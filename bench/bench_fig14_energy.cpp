// Fig. 14: off-chip energy of every configuration relative to the explicit
// best-intra baseline, geomeaned per workload class (lower is better).
#include <map>

#include "bench_util.hpp"
#include "workloads/bicgstab.hpp"
#include "workloads/gnn.hpp"

int main() {
  using namespace cello;
  bench::print_header("Relative off-chip energy per workload (geomean)", "Fig. 14");

  // Every dataset is instantiated once and shared by all rows built on it.
  std::map<std::string, std::shared_ptr<const sparse::CsrMatrix>> matrices;
  auto matrix_of = [&](const std::string& name) {
    auto& m = matrices[name];
    if (!m) m = bench::instantiate(name);
    return m;
  };

  // One grid: every (workload class, dataset) row under every configuration.
  std::vector<sim::Workload> rows;
  std::vector<std::string> row_class;
  for (const char* name : {"fv1", "shallow_water1", "G2_circuit"}) {
    const auto matrix = matrix_of(name);
    for (i64 n : {1, 16}) {
      auto shape = bench::cg_shape_for(sparse::dataset_by_name(name), n);
      shape.nnz = matrix->nnz();
      rows.push_back(bench::workload(name, "cg", workloads::build_cg_dag(shape), matrix));
      row_class.push_back("PDE solvers (CG)");
    }
  }
  for (const char* name : {"fv1", "shallow_water1", "nasa4704"}) {
    const auto matrix = matrix_of(name);
    workloads::BiCgStabShape b;
    b.m = sparse::dataset_by_name(name).rows;
    b.nnz = matrix->nnz();
    b.iterations = 10;
    rows.push_back(bench::workload(name, "bicgstab", workloads::build_bicgstab_dag(b), matrix));
    row_class.push_back("PDE solvers (BiCGStab)");
  }
  for (const char* name : {"cora", "protein"}) {
    const auto& spec = sparse::dataset_by_name(name);
    const auto matrix = matrix_of(name);
    workloads::GnnShape g;
    g.vertices = spec.rows;
    g.nnz = matrix->nnz();
    g.in_features = spec.gnn_in_features;
    g.out_features = spec.gnn_out_features;
    rows.push_back(bench::workload(name, "gnn", workloads::build_gnn_dag(g), matrix));
    row_class.push_back("GNN");
  }
  const auto cells = bench::sweep(rows, bench::table5_config());

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
