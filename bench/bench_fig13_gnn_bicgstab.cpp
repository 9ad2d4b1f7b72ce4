// Fig. 13: GNN layers (cora, protein) and BiCGStab (fv1, shallow_water1,
// nasa4704, N=1) across all configurations.
#include "bench_util.hpp"

namespace {

/// One Table IV table for a single workload row.
void print_table(const cello::sim::Workload& row) {
  using namespace cello;
  const auto cells =
      sim::SweepRunner().run({row}, bench::table4_configs(), {bench::table5_config()});
  TextTable t({"config", "GMACs/s", "DRAM traffic", "speedup vs Flexagon"});
  const double base = cells.front().metrics.seconds;  // Flexagon
  for (const auto& cell : cells) {
    const auto& m = cell.metrics;
    t.add_row({cell.config, format_double(m.gmacs_per_sec(), 1),
               format_bytes(static_cast<double>(m.dram_bytes)),
               format_double(base / m.seconds, 2) + "x"});
  }
  std::cout << t.to_string() << "\n";
}

}  // namespace

int main() {
  using namespace cello;
  bench::print_header("GNN layer and BiCGStab performance", "Fig. 13");

  std::cout << "--- GCN layers ---\n";
  for (const char* name : {"cora", "protein"}) {
    const auto& spec = sparse::dataset_by_name(name);
    std::cout << "dataset=" << name << " (M=" << spec.rows << ", N=" << spec.gnn_in_features
              << ", O=" << spec.gnn_out_features << ")\n";
    print_table(sim::WorkloadRegistry::global().resolve("gnn:" + std::string(name)));
  }
  std::cout << "Expected shape: Cello == FLAT (the single intermediate is pipelineable\n"
               "with no delayed dependency); caches suffer on cora's large feature map.\n\n";

  std::cout << "--- BiCGStab (N=1) ---\n";
  for (const char* name : {"fv1", "shallow_water1", "nasa4704"}) {
    const auto row = sim::WorkloadRegistry::global().resolve("bicgstab:" + std::string(name));
    std::cout << "dataset=" << name << " (M=" << row.matrix->rows()
              << ", nnz=" << row.matrix->nnz() << ")\n";
    print_table(row);
  }
  std::cout << "Expected shape: like CG, every BiCGStab vector has delayed downstream\n"
               "consumers, so Cello outperforms the pipelining-only baselines.\n";
  return 0;
}
