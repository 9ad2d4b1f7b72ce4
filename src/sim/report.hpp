// Human-readable reports over simulation metrics: per-op compute vs
// traffic breakdown (which stage is memory-bound and why) and per-tensor
// traffic attribution (which operand pays for the DRAM bytes).
#pragma once

#include <string>

#include "sim/config.hpp"
#include "sim/metrics.hpp"

namespace cello::sim {

/// Per-op table: MACs, DRAM bytes, intensity, and the binding constraint
/// (compute vs memory) under the given architecture.
std::string per_op_report(const RunMetrics& m, const AcceleratorConfig& arch,
                          size_t max_rows = 24);

/// Per-tensor traffic attribution, largest consumer first.
std::string per_tensor_report(const RunMetrics& m, size_t max_rows = 16);

}  // namespace cello::sim
