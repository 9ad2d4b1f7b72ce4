// CachePolicy: the implicit-buffer baselines (Flex+LRU, Flex+BRRIP) behind
// the BufferPolicy interface.  Trace-driven at cache-line granularity: a run
// is serviced by replaying its captured AccessStream (every routed op's
// spans, including the SpMM gather pattern against the real sparse matrix
// when one is provided) through cache::StreamReplayer.  One capture serves
// every cache geometry in a sweep column, and periodic streams fast-forward
// once the cache state cycles.
#pragma once

#include <vector>

#include "cache/cache.hpp"
#include "sim/policies/buffer_policy.hpp"

namespace cello::sim {

class CachePolicy final : public BufferPolicy {
 public:
  CachePolicy(const AcceleratorConfig& arch, cache::Policy replacement)
      : arch_(arch),
        cache_(arch.sram_bytes, arch.line_bytes, arch.cache_associativity, replacement) {}

  bool trace_driven() const override { return true; }

  /// Requires a stream compatible with this policy's arch and a freshly
  /// constructed cache; throws cello::Error otherwise.
  void replay(const AccessStream& stream, std::vector<BufferService>& services) override;

  /// End-of-run flush of dirty lines.
  std::optional<std::vector<DrainItem>> drain(const DrainContext& ctx) override;

  Bytes occupancy_bytes() const override {
    return static_cast<Bytes>(cache_.valid_lines()) * cache_.line_bytes();
  }

  void finalize(const AcceleratorConfig& arch, u64 pipeline_sram_lines,
                RunMetrics& m) const override;

  const cache::SetAssocCache& cache() const { return cache_; }

 private:
  AcceleratorConfig arch_;
  cache::SetAssocCache cache_;
};

BufferPolicyFactory lru_cache();
BufferPolicyFactory brrip_cache();

}  // namespace cello::sim
