// Shared test helpers over the library's one run API (Simulator +
// ConfigRegistry) and one in-memory sweep API (SweepRunner::run over
// resolved workloads and configurations).
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/workload_registry.hpp"

namespace cello::test {

/// Scoped setenv: unsets on destruction, so a failing EXPECT cannot leak an
/// engine toggle (CELLO_DISABLE_AVX512) into later tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) { setenv(name, value, 1); }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

/// Run `dag` under the registered configuration `config` (names normalize:
/// "Cello", "flex+lru", ...).  `matrix` supplies real sparsity to the
/// trace-driven cache presets; null runs them on analytic statistics.
inline sim::RunMetrics run(const ir::TensorDag& dag, const std::string& config,
                           const sim::AcceleratorConfig& arch = {},
                           const sparse::CsrMatrix* matrix = nullptr) {
  return sim::Simulator(arch, matrix).run(dag, sim::ConfigRegistry::global().at(config));
}

/// External inputs of `dag`: tensors some op consumes but no op produces.
inline size_t external_inputs(const ir::TensorDag& dag) {
  size_t n = 0;
  for (const auto& t : dag.tensors())
    if (!dag.producer(t.id) && !dag.consumers(t.id).empty()) ++n;
  return n;
}

/// Resolve workload specs in the global WorkloadRegistry.
inline std::vector<sim::Workload> workloads(const std::vector<std::string>& specs) {
  std::vector<sim::Workload> out;
  for (const auto& spec : specs) out.push_back(sim::WorkloadRegistry::global().resolve(spec));
  return out;
}

/// Resolve configuration names in the global ConfigRegistry.
inline std::vector<sim::Configuration> configs(const std::vector<std::string>& names) {
  std::vector<sim::Configuration> out;
  for (const auto& name : names) out.push_back(sim::ConfigRegistry::global().at(name));
  return out;
}

}  // namespace cello::test
