#include "sim/policies/kv_cache_policy.hpp"

#include <algorithm>

#include "mem/sram_model.hpp"

namespace cello::sim {

KvCachePolicy::BaseState& KvCachePolicy::base_state(const chord::TensorMeta& t) {
  BaseState& b = bases_[t.id];
  if (b.name.empty()) b.name = t.name;
  return b;
}

Bytes KvCachePolicy::admit(BaseState& b, i32 base, Bytes bytes, bool dirty) {
  if (bytes == 0) return 0;
  ring_.push_back({base, bytes, dirty});
  b.resident += bytes;
  if (dirty) b.dirty_resident += bytes;
  resident_total_ += bytes;
  stats_.peak_resident_bytes = std::max(stats_.peak_resident_bytes, resident_total_);
  // FIFO ring: evict oldest pinned segments until the budget holds again.
  // A segment admitted at <= the budget is never its own victim.
  Bytes spilled = 0;
  while (resident_total_ > arch_.sram_bytes && !ring_.empty()) {
    const Segment seg = ring_.front();
    ring_.pop_front();
    BaseState& owner = bases_[seg.base];
    owner.resident -= seg.bytes;
    resident_total_ -= seg.bytes;
    ++stats_.ring_evictions;
    if (seg.dirty) {
      owner.dirty_resident -= seg.bytes;
      spilled += seg.bytes;
      stats_.kv_spill_bytes += seg.bytes;
    }
  }
  return spilled;
}

BufferService KvCachePolicy::read_tensor(const chord::TensorMeta& t) {
  sram_lines_ += ceil_div<Bytes>(t.bytes, arch_.line_bytes);
  if (!t.append_only) return {.dram_read = t.bytes, .dram_write = 0};

  BaseState& b = base_state(t);
  const Bytes hit = std::min(b.resident, t.bytes);
  const Bytes miss = t.bytes - hit;
  stats_.kv_read_hit_bytes += hit;
  stats_.kv_read_miss_bytes += miss;
  // Re-install the fetched tail (clean — DRAM already holds it) so later
  // steps hit; never more than the budget can hold.
  Bytes spill = 0;
  if (miss > 0) spill = admit(b, t.id, std::min<Bytes>(miss, arch_.sram_bytes), false);
  return {.dram_read = miss, .dram_write = spill};
}

BufferService KvCachePolicy::write_tensor(const chord::TensorMeta& t) {
  if (!t.append_only) {
    sram_lines_ += ceil_div<Bytes>(t.bytes, arch_.line_bytes);
    return {.dram_read = 0, .dram_write = t.bytes};
  }
  // Only the appended rows move: they pin on chip dirty (no write-through).
  BaseState& b = base_state(t);
  const Bytes add = std::min<Bytes>(t.appended_bytes, arch_.sram_bytes);
  const Bytes overflow = t.appended_bytes - add;  // cannot pin: write through
  sram_lines_ += ceil_div<Bytes>(t.appended_bytes, arch_.line_bytes);
  const Bytes spill = admit(b, t.id, add, /*dirty=*/true);
  return {.dram_read = 0, .dram_write = spill + overflow};
}

void KvCachePolicy::retire(i32 base_id) {
  const auto it = bases_.find(base_id);
  if (it == bases_.end() || it->second.resident == 0) return;
  // Dead data: release residency without writeback (same liveness argument
  // that lets SCORE skip draining dead intermediates).
  for (auto seg = ring_.begin(); seg != ring_.end();) {
    if (seg->base == base_id) {
      resident_total_ -= seg->bytes;
      seg = ring_.erase(seg);
    } else {
      ++seg;
    }
  }
  it->second.resident = 0;
  it->second.dirty_resident = 0;
}

std::optional<std::vector<DrainItem>> KvCachePolicy::drain(const DrainContext&) {
  // Still-live dirty cache rows (result-marked or never-retired bases)
  // persist to DRAM at the end of the run.
  std::vector<std::pair<i32, const BaseState*>> dirty;
  for (const auto& [id, b] : bases_)
    if (b.dirty_resident > 0) dirty.emplace_back(id, &b);
  if (dirty.empty()) return std::nullopt;
  std::sort(dirty.begin(), dirty.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<DrainItem> items;
  items.reserve(dirty.size());
  for (const auto& [id, b] : dirty) items.push_back({b->name, b->dirty_resident});
  for (auto& [id, b] : bases_) b.dirty_resident = 0;
  for (auto& seg : ring_) seg.dirty = false;
  return items;
}

void KvCachePolicy::finalize(const AcceleratorConfig& arch, u64 pipeline_sram_lines,
                             RunMetrics& m) const {
  // Explicitly managed, tag-free storage: buffet-class energy per line.
  mem::SramModel sram({arch.sram_bytes, arch.line_bytes, arch.cache_associativity});
  const auto e = sram.access_energy(mem::BufferKind::Buffet);
  m.sram_line_accesses = sram_lines_ + pipeline_sram_lines;
  m.onchip_energy_pj = static_cast<double>(m.sram_line_accesses) * e.data_pj;
}

BufferPolicyFactory kv_cache_buffer() {
  return [](const AcceleratorConfig& arch) { return std::make_unique<KvCachePolicy>(arch); };
}

}  // namespace cello::sim
