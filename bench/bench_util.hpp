// Shared helpers for the per-figure bench binaries.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "cello/cello.hpp"
#include "common/format.hpp"
#include "common/stats.hpp"
#include "sparse/datasets.hpp"

namespace cello::bench {

inline sim::AcceleratorConfig table5_config(double bandwidth_bytes_per_sec = 1e12,
                                            Bytes sram = 4ull * 1024 * 1024) {
  sim::AcceleratorConfig arch;
  arch.sram_bytes = sram;
  arch.dram_bytes_per_sec = bandwidth_bytes_per_sec;
  return arch;
}

/// CG workload for a Table VI dataset at block width n.
inline workloads::CgShape cg_shape_for(const sparse::DatasetSpec& spec, i64 n,
                                       i64 iterations = 10) {
  workloads::CgShape s;
  s.m = spec.rows;
  s.n = n;
  s.nnz = spec.nnz;
  s.iterations = iterations;
  return s;
}

/// Resolve configuration names in the global ConfigRegistry.
inline std::vector<sim::Configuration> configs(const std::vector<std::string>& names) {
  std::vector<sim::Configuration> out;
  for (const auto& name : names) out.push_back(sim::ConfigRegistry::global().at(name));
  return out;
}

/// The seven Table IV configurations, paper order (Flexagon first).
inline const std::vector<sim::Configuration>& table4_configs() {
  static const std::vector<sim::Configuration> kConfigs =
      configs(sim::ConfigRegistry::table4_names());
  return kConfigs;
}

/// Run `rows` x `configs` as one parallel SweepRunner grid: result
/// i * configs.size() + j is row i under configuration j.
inline std::vector<sim::SweepResult> sweep(
    const std::vector<sim::Workload>& rows, const sim::AcceleratorConfig& arch,
    const std::vector<sim::Configuration>& configs = table4_configs()) {
  return sim::SweepRunner().run(rows, configs, arch);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "(reproduces " << paper_ref << ")\n\n";
}

}  // namespace cello::bench
