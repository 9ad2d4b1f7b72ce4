// Fig. 16(b): Cello sensitivity to CHORD capacity {1, 4, 16} MiB on CG
// shallow_water1 at N in {1, 16}.
#include "bench_util.hpp"

int main() {
  using namespace cello;
  bench::print_header("Cello sensitivity to CHORD (SRAM) capacity", "Fig. 16(b)");

  const i64 widths[] = {1, 16};
  std::vector<sim::Workload> rows;
  for (i64 n : widths)
    rows.push_back(
        sim::WorkloadRegistry::global().resolve("cg:shallow_water1,n=" + std::to_string(n)));
  const auto archs = bench::arch_axis(bench::table5_config(), &sim::AcceleratorConfig::sram_bytes,
                                      {1ull << 20, 4ull << 20, 16ull << 20});
  const auto cells = sim::SweepRunner().run(rows, bench::configs({"Cello"}), archs);

  for (size_t wi = 0; wi < rows.size(); ++wi) {
    const auto row = bench::panel(cells, wi, archs.size());  // one Cello cell per arch
    std::cout << "dataset=shallow_water1  N=" << widths[wi] << "\n";
    TextTable t({"CHORD size", "GMACs/s", "DRAM traffic", "vs 4 MiB"});
    const double base_traffic = static_cast<double>(row[1].metrics.dram_bytes);  // 4 MiB
    for (size_t ai = 0; ai < archs.size(); ++ai) {
      const auto& m = row[ai].metrics;
      t.add_row({std::to_string(archs[ai].sram_bytes >> 20) + " MiB",
                 format_double(m.gmacs_per_sec(), 1),
                 format_bytes(static_cast<double>(m.dram_bytes)),
                 ai == 0 ? "-"
                         : format_double(static_cast<double>(m.dram_bytes) / base_traffic, 2)});
    }
    std::cout << t.to_string() << "\n";
  }
  std::cout << "Expected shape: at N=16 the working set exceeds small CHORDs, so traffic\n"
               "falls steadily with capacity; at N=1 the 4 MiB and 16 MiB points are both\n"
               "'sufficiently large' and coincide (paper Sec. VII-C2).\n";
  return 0;
}
