// Multi-node scaling of Cello on CG (Sec. V-B system-level consequence):
// cluster-local pipelines with small-tensor reduction/broadcast scale nearly
// linearly; shipping skewed intermediates across the NoC would not.  Each
// row is one Simulator run of the full CG DAG with AcceleratorConfig::nodes
// set on an auto-shaped mesh: the dominant rank is partitioned, one node's
// shard simulated, and the routed NoC collectives folded back in.
#include "bench_util.hpp"

int main() {
  using namespace cello;
  bench::print_header("Multi-node scaling of Cello on CG", "Sec. V-B scalable dataflow");

  // One sweep with the node count as its arch axis (auto-shaped meshes):
  // every node count folds against the one shared 1-node baseline.
  const auto archs = bench::arch_axis(bench::table5_config(), &sim::AcceleratorConfig::nodes,
                                      {1, 2, 4, 8, 16, 32});
  const auto& spec = sparse::dataset_by_name("G2_circuit");
  const auto cells = sim::SweepRunner().run(
      {bench::row("cg", workloads::build_cg_dag(bench::cg_shape_for(spec, 16)))},
      bench::configs({"Cello"}), archs);

  TextTable t({"nodes", "per-node time", "NoC bytes (SCORE)", "NoC bytes (naive)",
               "total GMACs/s", "parallel efficiency"});
  for (size_t ai = 0; ai < archs.size(); ++ai) {
    const auto& m = cells[ai].metrics;
    // A 1-node run is its own baseline; RunMetrics reports efficiency only
    // for folded multi-node runs.
    const double efficiency = archs[ai].nodes == 1 ? 1.0 : m.parallel_efficiency;
    t.add_row({std::to_string(archs[ai].nodes),
               format_double((m.seconds - m.noc_seconds) * 1e6, 1) + " us",
               format_bytes(static_cast<double>(m.noc_bytes)),
               format_bytes(static_cast<double>(m.naive_noc_bytes)),
               format_double(m.gmacs_per_sec(), 1), format_double(100 * efficiency, 1) + "%"});
  }
  std::cout << t.to_string();
  std::cout << "\nSCORE's NoC traffic is the small Greek tensors times tree hops; the\n"
               "naive pipeline-splitting strategy would move every skewed intermediate\n"
               "(orders of magnitude more bytes), which is why the schedule keeps\n"
               "pipelines inside a node and partitions the dominant rank (Fig. 8).\n";
  return 0;
}
