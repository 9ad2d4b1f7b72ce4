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
                  "stream replay requires a fresh cache; reset() the policy between runs");
  const cache::ReplaySpans view = stream.replay_view();
  std::vector<cache::ReplayService> rs;
  cache::StreamReplayer(cache_, view).run(rs);
  services.resize(rs.size());
  for (size_t i = 0; i < rs.size(); ++i)
    services[i] = {rs[i].dram_read, rs[i].dram_write, rs[i].fills};
}

std::optional<std::vector<DrainItem>> CachePolicy::drain(const DrainContext&) {
  const Bytes before = cache_.stats().dram_bytes();
  cache_.flush();
  return std::vector<DrainItem>{{std::string(), cache_.stats().dram_bytes() - before}};
}

void CachePolicy::finalize(const AcceleratorConfig& arch, u64 /*pipeline_sram_lines*/,
                           RunMetrics& m) const {
  const auto& cs = cache_.stats();
  // The cache's line-granularity accounting is authoritative for the traffic
  // it serviced; fold it into whatever the schedule moved directly (register
  // file cold fetches, SCORE result drains).
  m.dram_read_bytes += cs.dram_read_bytes;
  m.dram_write_bytes += cs.dram_write_bytes;
  m.dram_bytes = m.dram_read_bytes + m.dram_write_bytes;
  mem::SramModel sram({arch.sram_bytes, arch.line_bytes, arch.cache_associativity});
  const auto e = sram.access_energy(mem::BufferKind::Cache);
  m.sram_line_accesses = cs.data_accesses;
  m.onchip_energy_pj = static_cast<double>(cs.data_accesses) * e.data_pj +
                       static_cast<double>(cs.tag_lookups) * e.tag_pj;
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
