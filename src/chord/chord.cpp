#include "chord/chord.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace cello::chord {

ChordBuffer::ChordBuffer(Bytes capacity, u32 line_bytes, bool enable_riff, u32 max_entries)
    : capacity_(capacity), line_bytes_(line_bytes), enable_riff_(enable_riff),
      max_entries_(max_entries) {
  CELLO_CHECK(capacity_ > 0 && line_bytes_ > 0 && max_entries_ > 0);
}

bool ChordBuffer::Priority::higher_than(const Priority& other) const {
  const i64 a = dist < 0 ? std::numeric_limits<i64>::max() : dist;
  const i64 b = other.dist < 0 ? std::numeric_limits<i64>::max() : other.dist;
  if (a != b) return a < b;   // sooner next use wins
  return freq > other.freq;   // then more frequent reuse
}

ChordBuffer::Priority ChordBuffer::priority_of(const RiffEntry& e) const {
  if (e.freq <= 0) return {-1, 0};  // dead tensors lose to everything
  return {e.dist, e.freq};
}

RiffEntry* ChordBuffer::find(i32 tensor_id) {
  for (auto& e : entries_)
    if (e.id == tensor_id) return &e;
  return nullptr;
}

const RiffEntry* ChordBuffer::find(i32 tensor_id) const {
  for (const auto& e : entries_)
    if (e.id == tensor_id) return &e;
  return nullptr;
}

Bytes ChordBuffer::occupied_bytes() const {
  Bytes total = 0;
  for (const auto& e : entries_) total += e.resident_bytes();
  return total;
}

Bytes ChordBuffer::resident_bytes(i32 tensor_id) const {
  const RiffEntry* e = find(tensor_id);
  return e ? e->resident_bytes() : 0;
}

void ChordBuffer::retire(i32 tensor_id) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const RiffEntry& e) { return e.id == tensor_id; });
  if (it == entries_.end()) return;
  entries_.erase(it);
  rebuild_indices();
  ++stats_.metadata_updates;
}

void ChordBuffer::sync_extent(RiffEntry& e, const TensorMeta& t) {
  // A new version of a tensor may have a different footprint (e.g. a shape
  // change between problems); re-anchor the entry and clamp residency.
  if (e.start_tensor != t.start_addr || e.end_tensor != t.start_addr + t.bytes) {
    e.start_tensor = t.start_addr;
    e.end_tensor = t.start_addr + t.bytes;
    e.end_chord = std::min(std::max(e.end_chord, e.start_tensor), e.end_tensor);
    if (e.end_chord < e.start_tensor) e.end_chord = e.start_tensor;
    rebuild_indices();
  }
}

void ChordBuffer::rebuild_indices() {
  // Resident slices are contiguous and in queue order in the data array
  // (Fig. 10): indices are prefix sums of resident lengths, in words.
  i64 cursor = 0;
  for (auto& e : entries_) {
    const i64 words = static_cast<i64>(e.resident_bytes() / 4);
    e.start_index = cursor;
    e.end_index = cursor + words;
    cursor += words;
  }
}

Bytes ChordBuffer::allocate(const TensorMeta& t, RiffEntry& e, Bytes want) {
  Bytes granted = std::min(want, free_bytes());

  if (enable_riff_ && granted < want) {
    // RIFF: steal tail bytes from strictly lower-priority victims, worst
    // victim first, until satisfied or no victim remains.
    const Priority mine{t.next_use_distance, t.remaining_uses};
    while (granted < want) {
      RiffEntry* victim = nullptr;
      for (auto& cand : entries_) {
        if (cand.id == t.id || cand.resident_bytes() == 0) continue;
        if (!mine.higher_than(priority_of(cand))) continue;
        if (victim == nullptr || priority_of(*victim).higher_than(priority_of(cand)))
          victim = &cand;
      }
      if (victim == nullptr) break;
      const Bytes steal = std::min<Bytes>(want - granted, victim->resident_bytes());
      victim->end_chord -= steal;  // evict from the victim's tail
      ++stats_.riff_replacements;
      granted += steal;
    }
  }

  e.end_chord += granted;
  rebuild_indices();
  if (granted > 0) ++stats_.metadata_updates;
  return granted;
}

AccessResult ChordBuffer::write_tensor(const TensorMeta& t) {
  CELLO_CHECK(t.bytes > 0);
  ++stats_.metadata_reads;

  RiffEntry* e = find(t.id);
  if (e == nullptr) {
    if (entries_.size() >= max_entries_) {
      // Index table full: the whole tensor streams to DRAM.
      ++stats_.prelude_spills;
      stats_.dram_write_bytes += t.bytes;
      return {0, t.bytes};
    }
    RiffEntry fresh;
    fresh.id = t.id;
    fresh.name = t.name;
    fresh.start_tensor = t.start_addr;
    fresh.end_tensor = t.start_addr + t.bytes;
    fresh.end_chord = t.start_addr;  // nothing resident yet
    entries_.push_back(fresh);
    e = &entries_.back();
    rebuild_indices();
  }
  sync_extent(*e, t);
  e->freq = t.remaining_uses;
  e->dist = t.next_use_distance;

  // PRELUDE: the resident prefix is overwritten in place; growth beyond it
  // is allocated head-first and the unplaced tail spills to DRAM (Fig. 9).
  const Bytes resident = e->resident_bytes();
  Bytes to_place = t.bytes > resident ? t.bytes - resident : 0;
  Bytes granted = 0;
  if (to_place > 0 && t.remaining_uses > 0) granted = allocate(t, *e, to_place);

  AccessResult r;
  r.sram_bytes = resident + granted;
  r.dram_bytes = t.bytes - r.sram_bytes;
  if (r.dram_bytes > 0) ++stats_.prelude_spills;
  stats_.sram_write_lines += lines(r.sram_bytes);
  stats_.dram_write_bytes += r.dram_bytes;
  return r;
}

AccessResult ChordBuffer::read_tensor(const TensorMeta& t) {
  CELLO_CHECK(t.bytes > 0);
  ++stats_.metadata_reads;

  RiffEntry* e = find(t.id);
  if (e) sync_extent(*e, t);
  const Bytes resident = e ? std::min<Bytes>(e->resident_bytes(), t.bytes) : 0;
  const Bytes missing = t.bytes - resident;

  AccessResult r;
  r.sram_bytes = resident;
  r.dram_bytes = missing;
  stats_.sram_read_lines += lines(resident);
  stats_.dram_read_bytes += missing;
  if (missing == 0)
    ++stats_.read_hits;
  else
    ++stats_.read_misses;

  if (e) {
    e->freq = t.remaining_uses;
    e->dist = t.next_use_distance;
  }

  // Allocate-on-read for tensors with future uses: install the fetched tail
  // (for externals like the sparse matrix A this is how the first iteration
  // seeds CHORD for the remaining nine).
  if (missing > 0 && t.remaining_uses > 0) {
    if (e == nullptr) {
      if (entries_.size() >= max_entries_) return r;
      RiffEntry fresh;
      fresh.id = t.id;
      fresh.name = t.name;
      fresh.start_tensor = t.start_addr;
      fresh.end_tensor = t.start_addr + t.bytes;
      fresh.end_chord = t.start_addr;
      fresh.freq = t.remaining_uses;
      fresh.dist = t.next_use_distance;
      entries_.push_back(fresh);
      e = &entries_.back();
      rebuild_indices();
    }
    const Bytes granted = allocate(t, *e, missing);
    stats_.sram_write_lines += lines(granted);
  }
  return r;
}

void ChordBuffer::check_invariants() const {
  CELLO_CHECK(entries_.size() <= max_entries_);
  Bytes total = 0;
  i64 cursor = 0;
  for (const auto& e : entries_) {
    CELLO_CHECK_MSG(e.end_chord >= e.start_tensor, "negative residency for " << e.name);
    CELLO_CHECK_MSG(e.end_chord <= e.end_tensor, "residency beyond tensor end for " << e.name);
    CELLO_CHECK_MSG(e.start_index == cursor, "index table out of sync for " << e.name);
    CELLO_CHECK(e.end_index - e.start_index == static_cast<i64>(e.resident_bytes() / 4));
    cursor = e.end_index;
    total += e.resident_bytes();
  }
  CELLO_CHECK_MSG(total <= capacity_, "occupancy " << total << " exceeds capacity " << capacity_);
}

}  // namespace cello::chord
