// Fig. 16(a): ResNet conv3_x residual block — performance and off-chip energy
// for all configurations including the SET baseline, at 250 GB/s and 1 TB/s.
#include "bench_util.hpp"

int main() {
  using namespace cello;
  bench::print_header("ResNet residual block performance and energy", "Fig. 16(a)");

  const auto archs = bench::arch_axis(bench::table5_config(),
                                      &sim::AcceleratorConfig::dram_bytes_per_sec, {250e9, 1e12});
  const auto cells = sim::SweepRunner().run({sim::WorkloadRegistry::global().resolve("resnet")},
                                            bench::table4_configs(), archs);
  for (size_t ai = 0; ai < archs.size(); ++ai) {
    const auto& arch = archs[ai];
    const auto panel = bench::panel(cells, ai, bench::table4_configs().size());
    std::cout << "memory bandwidth = " << format_rate(arch.dram_bytes_per_sec, "B/s") << "\n";
    TextTable t({"config", "GMACs/s", "DRAM traffic", "relative energy", "bound"});
    const double base_energy = panel.front().metrics.offchip_energy_pj;  // Flexagon
    for (const auto& cell : panel) {
      const auto& m = cell.metrics;
      const double compute_s = arch.compute_seconds(m.total_macs);
      t.add_row({cell.config, format_double(m.gmacs_per_sec(), 1),
                 format_bytes(static_cast<double>(m.dram_bytes)),
                 format_double(m.offchip_energy_pj / base_energy, 3),
                 m.seconds <= compute_s * 1.05 ? "compute" : "memory"});
    }
    std::cout << t.to_string() << "\n";
  }
  std::cout << "Expected shape: SET == Cello (both hold the skip tensor on chip),\n"
               "FLAT in between (pipelines T1/T2 but spills the skip input), Flexagon\n"
               "worst; at 1 TB/s the block is compute-bound (AI threshold 16.4 ops/B),\n"
               "at 250 GB/s the threshold rises to 65.5 ops/B and buffering matters.\n";
  return 0;
}
