// Ablations of Cello's design knobs beyond the paper's figures
// (DESIGN.md §7): hold budget, register-file capacity, RIFF-index entry
// count, and swizzle minimization.
#include "bench_util.hpp"
#include "score/schedule.hpp"
#include "workloads/bicgstab.hpp"
#include "workloads/resnet.hpp"

int main() {
  using namespace cello;
  bench::print_header("Design-knob ablations", "DESIGN.md §7");

  // --- (1) pipeline-buffer hold budget on ResNet (SET/Cello need to *hold*
  //     the skip tensor; too small a budget forces writeback) ---------------
  {
    const auto archs = bench::arch_axis(bench::table5_config(250e9),
                                        &sim::AcceleratorConfig::hold_budget_bytes,
                                        {256 << 10, 512 << 10, 1024 << 10, 2048 << 10});
    const auto cells =
        sim::SweepRunner().run({bench::row("resnet", workloads::build_resnet_block_dag({}))},
                               bench::configs({"SET", "Cello"}), archs);
    std::cout << "Hold budget vs ResNet skip-connection servicing:\n";
    TextTable t({"hold budget", "SET DRAM traffic", "Cello DRAM traffic"});
    for (size_t ai = 0; ai < archs.size(); ++ai)
      t.add_row({std::to_string(archs[ai].hold_budget_bytes >> 10) + " KiB",
                 format_bytes(static_cast<double>(cells[2 * ai].metrics.dram_bytes)),
                 format_bytes(static_cast<double>(cells[2 * ai + 1].metrics.dram_bytes))});
    std::cout << t.to_string();
    std::cout << "(the skip tensor is 784x512x2B = 784 KiB: below that budget SET must\n"
                 " spill it to DRAM, while Cello reroutes it through CHORD and keeps it\n"
                 " on chip — the co-design's robustness to the pipeline-buffer split)\n\n";
  }

  const auto& spec = sparse::dataset_by_name("shallow_water1");
  const auto cello = bench::configs({"Cello"});

  // --- (2) register-file capacity on CG: too small and the Greek tensors
  //     start competing for CHORD entries ------------------------------------
  {
    const auto archs = bench::arch_axis(bench::table5_config(), &sim::AcceleratorConfig::rf_bytes,
                                        {512, 4096, 65536});
    const auto cells = sim::SweepRunner().run(
        {bench::row("cg", workloads::build_cg_dag(bench::cg_shape_for(spec, 16)))}, cello, archs);
    std::cout << "Register-file capacity vs CG traffic (Cello):\n";
    TextTable t({"RF bytes", "DRAM traffic", "GMACs/s"});
    for (size_t ai = 0; ai < archs.size(); ++ai)
      t.add_row({format_bytes(static_cast<double>(archs[ai].rf_bytes)),
                 format_bytes(static_cast<double>(cells[ai].metrics.dram_bytes)),
                 format_double(cells[ai].metrics.gmacs_per_sec(), 1)});
    std::cout << t.to_string();
    std::cout << "(N=16 Greek tensors are 1 KiB; a 512 B RF pushes them into CHORD, "
                 "where\n they are cheap but occupy index entries)\n\n";
  }

  // --- (3) RIFF-index entry count on BiCGStab (more live bases than CG) -----
  {
    workloads::BiCgStabShape b;
    b.m = spec.rows;
    b.nnz = spec.nnz;
    b.iterations = 10;
    const auto archs = bench::arch_axis(bench::table5_config(),
                                        &sim::AcceleratorConfig::chord_entries, {2, 4, 8, 64});
    const auto cells = sim::SweepRunner().run(
        {bench::row("bicgstab", workloads::build_bicgstab_dag(b))}, cello, archs);
    std::cout << "RIFF-index table entries vs BiCGStab traffic (Cello):\n";
    TextTable t({"entries", "DRAM traffic"});
    for (size_t ai = 0; ai < archs.size(); ++ai)
      t.add_row({std::to_string(archs[ai].chord_entries),
                 format_bytes(static_cast<double>(cells[ai].metrics.dram_bytes))});
    std::cout << t.to_string();
    std::cout << "(the paper's 64 entries are comfortable: BiCGStab has ~12 live bases; "
                 "2\n entries force most operands straight to DRAM)\n\n";
  }

  // --- (4) swizzle minimization on/off --------------------------------------
  {
    const auto dag = workloads::build_cg_dag(bench::cg_shape_for(spec, 16));
    score::ScheduleOptions on, off;
    off.minimize_swizzle = false;
    const auto s_on = score::build_schedule(dag, on);
    const auto s_off = score::build_schedule(dag, off);
    std::cout << "Swizzle minimization: " << s_on.swizzle_count
              << " transforms with the majority-vote layout vs " << s_off.swizzle_count
              << " with producer-preferred layout.\n";
    std::cout << "(CG's skewed tensors are consistently m-major, so SCORE reaches zero; "
                 "the\n knob matters for DAGs whose consumers disagree on layout)\n";
  }
  return 0;
}
