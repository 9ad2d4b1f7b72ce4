// Accelerator architecture parameters (Table V).  The evaluated Table IV
// schedule/buffer configurations are named presets in sim/registry.hpp.
#pragma once

#include <string>

#include "common/types.hpp"

namespace cello::sim {

/// Table IV footnote: FLAT's paper dataflow is Parallel Pipeline (stages run
/// concurrently; group time = max over compute/memory aggregates) while its
/// hardware implementation is Sequential Pipeline (stages time-multiplex the
/// array).  The choice changes timing only — DRAM traffic is identical.
enum class PipelineStyle { Parallel, Sequential };

struct AcceleratorConfig {
  Bytes sram_bytes = 4ull * 1024 * 1024;  ///< on-chip buffer (cache / CHORD) capacity
  i64 num_macs = 16384;
  double clock_hz = 1e9;
  u32 line_bytes = 16;
  u32 cache_associativity = 8;
  double dram_bytes_per_sec = 1e12;       ///< Table V: 250 GB/s and 1 TB/s
  double dram_energy_pj_per_byte = 31.2;
  Bytes rf_bytes = 64 * 1024;             ///< register file: small tensors live here
  /// Largest tensor the pipeline buffer will *hold* for a delayed-hold
  /// consumer (SET and Cello); larger tensors fall back to writeback.
  Bytes hold_budget_bytes = 2ull * 1024 * 1024;
  u32 chord_entries = 64;
  PipelineStyle pipeline_style = PipelineStyle::Parallel;

  // ---- multi-chip scale-out (Sec. V-B) ------------------------------------
  /// Chips cooperating on one run; 1 = the classic single-chip model.
  i64 nodes = 1;
  /// NoC spec string resolved against `nodes` (see noc/topology.hpp): a bare
  /// kind ("mesh", "torus", "ring", "crossbar") is auto-shaped, an explicit
  /// spec ("mesh:4x4") must match `nodes` exactly.
  std::string topology = "mesh";
  double noc_link_bytes_per_sec = 256e9;  ///< per directed fabric link
  double noc_hop_seconds = 50e-9;         ///< per-hop router+wire latency
  double noc_energy_pj_per_byte = 0.2;    ///< per byte per hop (0.8 pJ/word)

  double compute_seconds(i64 macs) const {
    return static_cast<double>(macs) / (static_cast<double>(num_macs) * clock_hz);
  }
  double dram_seconds(Bytes b) const { return static_cast<double>(b) / dram_bytes_per_sec; }

  /// Field-wise comparison — sim::ArtifactCache keys its 1-node baselines
  /// on the arch.
  auto operator<=>(const AcceleratorConfig&) const = default;
};

}  // namespace cello::sim
