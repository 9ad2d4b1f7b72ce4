// Quickstart: resolve a block-CG workload from the WorkloadRegistry, let
// SCORE classify & schedule it, compare all Table IV accelerator
// configurations, then fan a small spec-driven {workloads} x {configs} grid
// across the SweepRunner.
//
//   ./example_quickstart [M] [N] [nnz] [iterations]
#include <cstdlib>
#include <iostream>
#include <string>

#include "cello/cello.hpp"
#include "common/format.hpp"
#include "score/dependency.hpp"

int main(int argc, char** argv) {
  const long long m = argc > 1 ? std::atoll(argv[1]) : 81920;
  const long long n = argc > 2 ? std::atoll(argv[2]) : 16;
  const long long nnz = argc > 3 ? std::atoll(argv[3]) : 327680;
  const long long iters = argc > 4 ? std::atoll(argv[4]) : 10;

  // Workloads are registry specs: the same string works here, in sweeps, and
  // on the cello_cli command line.
  const std::string spec = "cg:m=" + std::to_string(m) + ",n=" + std::to_string(n) +
                           ",nnz=" + std::to_string(nnz) + ",iters=" + std::to_string(iters);
  const auto cg = cello::sim::WorkloadRegistry::global().resolve(spec);
  std::cout << "workload: " << cg.name << "\n";
  std::cout << "DAG: " << cg.dag->ops().size() << " operators, " << cg.dag->edges().size()
            << " edges, " << cg.dag->tensors().size() << " tensor instances\n";

  // SCORE's view of the first iteration's dependencies (Fig. 7).
  const auto cls = cello::score::classify_scheduled(*cg.dag, cg.dag->topo_order());
  int shown = 0;
  std::cout << "\nEdge classification (first iteration):\n";
  for (const auto& e : cg.dag->edges()) {
    if (shown >= 12) break;
    std::cout << "  " << cg.dag->op(e.src).name << " -> " << cg.dag->op(e.dst).name << "  ["
              << cg.dag->tensor(e.tensor).name << "]  "
              << cello::score::to_string(cls.edge_kind[e.id]) << "\n";
    ++shown;
  }

  cello::sim::AcceleratorConfig arch;  // Table V defaults: 4 MiB, 16384 MACs, 1 TB/s
  std::cout << "\n" << cello::compare_table(*cg.dag, arch) << "\n";

  // A spec-driven grid (what `cello_cli sweep` runs), here as one shard of
  // one: every row's DAG, schedule and address map are built once and shared
  // read-only across the thread pool.
  std::cout << "Spec-driven sweep (Cello vs Flexagon):\n";
  const auto grid = cello::sim::make_grid({spec, "gnn:cora", "spmv", "sddmm:heads=4"},
                                          {"Flexagon", "Cello"}, arch);
  const auto cells =
      cello::sim::SweepRunner().run_shard(grid, cello::sim::plan_shard(grid, 1, 1));
  for (const auto& cell : cells)
    std::cout << "  " << cell.workload << " / " << cell.config << ": "
              << cello::format_double(cell.metrics.gmacs_per_sec(), 1) << " GMACs/s, "
              << cello::format_bytes(static_cast<double>(cell.metrics.dram_bytes))
              << " DRAM\n";
  return 0;
}
