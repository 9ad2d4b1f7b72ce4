// Shared helpers for the per-figure bench binaries.
#pragma once

#include <initializer_list>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
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

/// A sweep row over a driver-built DAG (no matrix: analytic statistics).
inline sim::Workload row(const std::string& name, ir::TensorDag dag) {
  return {name, name, std::make_shared<const ir::TensorDag>(std::move(dag)), nullptr};
}

/// An arch axis for SweepRunner::run: `base` once per value, with `field`
/// set to that value.
template <class T>
std::vector<sim::AcceleratorConfig> arch_axis(
    const sim::AcceleratorConfig& base, T sim::AcceleratorConfig::*field,
    std::initializer_list<std::type_identity_t<T>> values) {
  std::vector<sim::AcceleratorConfig> archs;
  for (const T& value : values) archs.emplace_back(base).*field = value;
  return archs;
}

/// The `width` consecutive cells of result row `r` — in SweepRunner::run's
/// (workload, arch, configuration) row-major order, one (workload, arch) pair
/// when `width` is the configuration count.
inline std::span<const sim::SweepResult> panel(const std::vector<sim::SweepResult>& cells,
                                               size_t r, size_t width) {
  return std::span(cells).subspan(r * width, width);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "(reproduces " << paper_ref << ")\n\n";
}

}  // namespace cello::bench
