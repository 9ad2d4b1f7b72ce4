#include "sim/policies/cache_policy.hpp"

#include <memory>

#include "cache/cache_replay.hpp"
#include "common/error.hpp"
#include "mem/sram_model.hpp"
#include "sim/access_stream.hpp"

namespace cello::sim {

void CachePolicy::replay(const AccessStream& stream, std::vector<BufferService>& services) {
  CELLO_CHECK_MSG(stream.compatible(arch_),
                  "access stream captured under line_bytes=" << stream.line_bytes
                      << ", rf_bytes=" << stream.rf_bytes << "; this cache has line_bytes="
                      << arch_.line_bytes << ", rf_bytes=" << arch_.rf_bytes);
  CELLO_CHECK_MSG(cache_.stats().accesses == 0,
                  "stream replay requires a fresh cache: build one policy per run");
  cache::StreamReplayer(cache_, stream).run(services);
}

std::optional<std::vector<DrainItem>> CachePolicy::drain(const DrainContext&) {
  const cache::CacheStats before = cache_.stats();
  cache_.flush();
  return std::vector<DrainItem>{{std::string(), cache_.traffic_since(before).dram_write}};
}

void CachePolicy::finalize(const AcceleratorConfig& arch, u64 /*pipeline_sram_lines*/,
                           RunMetrics& m) const {
  // The cache's line-granularity accounting is authoritative for the traffic
  // it serviced; fold it into whatever the schedule moved directly (register
  // file cold fetches, SCORE result drains).
  const BufferService traffic = cache_.traffic_since({});
  m.dram_read_bytes += traffic.dram_read;
  m.dram_write_bytes += traffic.dram_write;
  m.dram_bytes = m.dram_read_bytes + m.dram_write_bytes;
  mem::SramModel sram({arch.sram_bytes, arch.line_bytes, arch.cache_associativity});
  const auto e = sram.access_energy(mem::BufferKind::Cache);
  // Every access reads one data line and one associativity-wide tag set.
  const auto accesses = static_cast<double>(cache_.stats().accesses);
  m.sram_line_accesses = cache_.stats().accesses;
  m.onchip_energy_pj = accesses * e.data_pj + accesses * e.tag_pj;
}

BufferPolicyFactory lru_cache() {
  return [](const AcceleratorConfig& arch) {
    return std::make_unique<CachePolicy>(arch, cache::Policy::Lru);
  };
}

BufferPolicyFactory brrip_cache() {
  return [](const AcceleratorConfig& arch) {
    return std::make_unique<CachePolicy>(arch, cache::Policy::Brrip);
  };
}

}  // namespace cello::sim
