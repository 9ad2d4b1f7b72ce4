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
  const auto& registry = sim::ConfigRegistry::global();

  // --- (1) pipeline-buffer hold budget on ResNet (SET/Cello need to *hold*
  //     the skip tensor; too small a budget forces writeback) ---------------
  {
    const auto dag = workloads::build_resnet_block_dag({});
    std::cout << "Hold budget vs ResNet skip-connection servicing:\n";
    TextTable t({"hold budget", "SET DRAM traffic", "Cello DRAM traffic"});
    for (Bytes kib : {256ull, 512ull, 1024ull, 2048ull}) {
      auto arch = bench::table5_config(250e9);
      arch.hold_budget_bytes = kib * 1024;
      const sim::Simulator simulator(arch);
      const auto set_m = simulator.run(dag, registry.at("SET"));
      const auto cello_m = simulator.run(dag, registry.at("Cello"));
      t.add_row({std::to_string(kib) + " KiB",
                 format_bytes(static_cast<double>(set_m.dram_bytes)),
                 format_bytes(static_cast<double>(cello_m.dram_bytes))});
    }
    std::cout << t.to_string();
    std::cout << "(the skip tensor is 784x512x2B = 784 KiB: below that budget SET must\n"
                 " spill it to DRAM, while Cello reroutes it through CHORD and keeps it\n"
                 " on chip — the co-design's robustness to the pipeline-buffer split)\n\n";
  }

  // --- (2) register-file capacity on CG: too small and the Greek tensors
  //     start competing for CHORD entries ------------------------------------
  {
    const auto& spec = sparse::dataset_by_name("shallow_water1");
    auto shape = bench::cg_shape_for(spec, 16);
    const auto dag = workloads::build_cg_dag(shape);
    std::cout << "Register-file capacity vs CG traffic (Cello):\n";
    TextTable t({"RF bytes", "DRAM traffic", "GMACs/s"});
    for (Bytes b : {512ull, 4096ull, 65536ull}) {
      auto arch = bench::table5_config();
      arch.rf_bytes = b;
      const auto m = sim::Simulator(arch).run(dag, registry.at("Cello"));
      t.add_row({format_bytes(static_cast<double>(b)),
                 format_bytes(static_cast<double>(m.dram_bytes)),
                 format_double(m.gmacs_per_sec(), 1)});
    }
    std::cout << t.to_string();
    std::cout << "(N=16 Greek tensors are 1 KiB; a 512 B RF pushes them into CHORD, "
                 "where\n they are cheap but occupy index entries)\n\n";
  }

  // --- (3) RIFF-index entry count on BiCGStab (more live bases than CG) -----
  {
    const auto& spec = sparse::dataset_by_name("shallow_water1");
    workloads::BiCgStabShape b;
    b.m = spec.rows;
    b.nnz = spec.nnz;
    b.iterations = 10;
    const auto dag = workloads::build_bicgstab_dag(b);
    std::cout << "RIFF-index table entries vs BiCGStab traffic (Cello):\n";
    TextTable t({"entries", "DRAM traffic"});
    for (u32 entries : {2u, 4u, 8u, 64u}) {
      auto arch = bench::table5_config();
      arch.chord_entries = entries;
      const auto m = sim::Simulator(arch).run(dag, registry.at("Cello"));
      t.add_row({std::to_string(entries), format_bytes(static_cast<double>(m.dram_bytes))});
    }
    std::cout << t.to_string();
    std::cout << "(the paper's 64 entries are comfortable: BiCGStab has ~12 live bases; "
                 "2\n entries force most operands straight to DRAM)\n\n";
  }

  // --- (4) swizzle minimization on/off --------------------------------------
  {
    const auto& spec = sparse::dataset_by_name("shallow_water1");
    auto shape = bench::cg_shape_for(spec, 16);
    const auto dag = workloads::build_cg_dag(shape);
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
