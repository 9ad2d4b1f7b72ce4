#include "chord_ref.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace cello::chord {
namespace {

/// Priority rule shared with ChordBuffer: sooner next use wins, then higher
/// remaining frequency; dead tensors (freq <= 0) lose to everything.
struct Priority {
  i64 dist;
  i32 freq;
  bool higher_than(const Priority& o) const {
    const i64 a = dist < 0 ? std::numeric_limits<i64>::max() : dist;
    const i64 b = o.dist < 0 ? std::numeric_limits<i64>::max() : o.dist;
    if (a != b) return a < b;
    return freq > o.freq;
  }
};

Priority priority_of(i32 freq, i64 dist) {
  if (freq <= 0) return {-1, 0};
  return {dist, freq};
}

}  // namespace

ChordRefModel::ChordRefModel(Bytes capacity, u32 word_bytes, bool enable_riff, u32 max_entries)
    : capacity_(capacity), word_bytes_(word_bytes), enable_riff_(enable_riff),
      max_entries_(max_entries) {
  CELLO_CHECK(capacity_ > 0 && word_bytes_ > 0 && max_entries_ > 0);
  slots_.reserve(capacity_ / word_bytes_);
}

ChordRefModel::Entry* ChordRefModel::find(i32 id) {
  for (auto& e : entries_)
    if (e.id == id) return &e;
  return nullptr;
}

const ChordRefModel::Entry* ChordRefModel::find(i32 id) const {
  for (const auto& e : entries_)
    if (e.id == id) return &e;
  return nullptr;
}

i64 ChordRefModel::resident_words(i32 id) const {
  i64 n = 0;
  for (const auto& s : slots_)
    if (s.tensor == id) ++n;
  return n;
}

Bytes ChordRefModel::resident_bytes(i32 tensor_id) const {
  return static_cast<Bytes>(resident_words(tensor_id)) * word_bytes_;
}

Bytes ChordRefModel::occupied_bytes() const {
  return static_cast<Bytes>(slots_.size()) * word_bytes_;
}

void ChordRefModel::update_reuse(i32 tensor_id, i32 remaining_uses, i64 next_use_distance) {
  if (Entry* e = find(tensor_id)) {
    e->freq = remaining_uses;
    e->dist = next_use_distance;
  }
}

void ChordRefModel::retire(i32 tensor_id) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const Entry& e) { return e.id == tensor_id; }),
                 entries_.end());
  slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                              [&](const Slot& s) { return s.tensor == tensor_id; }),
               slots_.end());
}

std::optional<i32> ChordRefModel::pick_victim(const TensorMeta& incoming) const {
  const Priority mine = priority_of(incoming.remaining_uses, incoming.next_use_distance);
  const Entry* victim = nullptr;
  for (const auto& cand : entries_) {
    if (cand.id == incoming.id || resident_words(cand.id) == 0) continue;
    if (!mine.higher_than(priority_of(cand.freq, cand.dist))) continue;
    if (victim == nullptr ||
        priority_of(victim->freq, victim->dist).higher_than(priority_of(cand.freq, cand.dist)))
      victim = &cand;
  }
  if (victim == nullptr) return std::nullopt;
  return victim->id;
}

bool ChordRefModel::place_word(const TensorMeta& t, i64 off) {
  ++cycles_;
  const u64 cap_words = capacity_ / word_bytes_;

  if (slots_.size() < cap_words) {
    // Empty space: enqueue in place — right after t's existing slice so the
    // slice stays contiguous (shifting later slices' indices, Fig. 10).
    auto pos = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it)
      if (it->tensor == t.id) pos = it + 1;
    slots_.insert(pos, Slot{t.id, off});
    return true;
  }
  if (!enable_riff_) return false;

  // RIFF: replace at the victim's end_index — pop one word from its tail.
  const auto victim = pick_victim(t);
  if (!victim) return false;
  for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
    if (it->tensor == *victim) {
      slots_.erase(std::next(it).base());
      break;
    }
  }
  auto pos = slots_.end();
  for (auto it = slots_.begin(); it != slots_.end(); ++it)
    if (it->tensor == t.id) pos = it + 1;
  slots_.insert(pos, Slot{t.id, off});
  return true;
}

AccessResult ChordRefModel::write_tensor(const TensorMeta& t) {
  CELLO_CHECK(t.bytes > 0);
  const i64 total_words = static_cast<i64>((t.bytes + word_bytes_ - 1) / word_bytes_);

  Entry* e = find(t.id);
  if (e == nullptr) {
    if (entries_.size() >= max_entries_) return {0, t.bytes};
    entries_.push_back({t.id, t.start_addr, t.start_addr + t.bytes, t.remaining_uses,
                        t.next_use_distance});
    e = &entries_.back();
  } else {
    // Footprint change between versions: clamp residency to the new extent.
    e->start_tensor = t.start_addr;
    e->end_tensor = t.start_addr + t.bytes;
    slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                                [&](const Slot& s) {
                                  return s.tensor == t.id && s.word_off >= total_words;
                                }),
                 slots_.end());
  }
  e->freq = t.remaining_uses;
  e->dist = t.next_use_distance;

  const i64 resident = resident_words(t.id);  // overwritten in place, SRAM
  i64 placed = resident;
  if (t.remaining_uses > 0) {
    for (i64 off = resident; off < total_words; ++off) {
      if (!place_word(t, off)) break;  // PRELUDE: once a word spills, so does the rest
      ++placed;
    }
  }
  AccessResult r;
  r.sram_bytes = std::min<Bytes>(static_cast<Bytes>(placed) * word_bytes_, t.bytes);
  r.dram_bytes = t.bytes - r.sram_bytes;
  cycles_ += static_cast<u64>(resident);
  return r;
}

AccessResult ChordRefModel::read_tensor(const TensorMeta& t) {
  CELLO_CHECK(t.bytes > 0);
  const i64 total_words = static_cast<i64>((t.bytes + word_bytes_ - 1) / word_bytes_);

  Entry* e = find(t.id);
  i64 resident = 0;
  if (e != nullptr) {
    e->start_tensor = t.start_addr;
    e->end_tensor = t.start_addr + t.bytes;
    slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                                [&](const Slot& s) {
                                  return s.tensor == t.id && s.word_off >= total_words;
                                }),
                 slots_.end());
    resident = std::min<i64>(resident_words(t.id), total_words);
    e->freq = t.remaining_uses;
    e->dist = t.next_use_distance;
  }

  AccessResult r;
  r.sram_bytes = std::min<Bytes>(static_cast<Bytes>(resident) * word_bytes_, t.bytes);
  r.dram_bytes = t.bytes - r.sram_bytes;
  cycles_ += static_cast<u64>(total_words);

  // Allocate-on-read for tensors with future uses.
  if (r.dram_bytes > 0 && t.remaining_uses > 0) {
    if (e == nullptr) {
      if (entries_.size() >= max_entries_) return r;
      entries_.push_back({t.id, t.start_addr, t.start_addr + t.bytes, t.remaining_uses,
                          t.next_use_distance});
    }
    for (i64 off = resident; off < total_words; ++off)
      if (!place_word(t, off)) break;
  }
  return r;
}

void ChordRefModel::check_invariants() const {
  CELLO_CHECK(entries_.size() <= max_entries_);
  CELLO_CHECK(occupied_bytes() <= capacity_);
  // Each tensor's slots form exactly one contiguous run of ascending offsets
  // 0..n-1 (a head-first prefix).  Run order follows FIFO (re-)insertion
  // order, which may differ from index-table order after a full eviction and
  // re-enqueue ("if req.id doesn't exist in FIFO yet: enqueue at end").
  std::vector<i32> run_order;
  size_t cursor = 0;
  while (cursor < slots_.size()) {
    const i32 id = slots_[cursor].tensor;
    CELLO_CHECK_MSG(std::find(run_order.begin(), run_order.end(), id) == run_order.end(),
                    "fragmented slice for tensor " << id);
    run_order.push_back(id);
    CELLO_CHECK_MSG(find(id) != nullptr, "slots held by unknown tensor " << id);
    i64 expect_off = 0;
    while (cursor < slots_.size() && slots_[cursor].tensor == id) {
      CELLO_CHECK_MSG(slots_[cursor].word_off == expect_off,
                      "slice of tensor " << id << " not a head-first prefix");
      ++expect_off;
      ++cursor;
    }
  }
}

}  // namespace cello::chord
