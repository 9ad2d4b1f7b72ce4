// score::ReuseIndex — the immutable half of the per-base-tensor reuse table
// the simulator consults for RIFF metadata (remaining uses, next-use
// distance) and retirement decisions.
//
// For every base buffer (per-iteration instances share their base's slot) it
// holds the union of the schedule's use positions, flattened CSR-style:
// positions of base b are positions()[offsets()[b] .. offsets()[b+1]), in
// ascending step order.  The index depends only on (DAG, schedule, base
// mapping), so one copy serves every run of a (workload, schedule-policy)
// pair — SweepRunner builds it once next to the shared Schedule + AddressMap
// instead of once per sweep cell.
//
// The mutable half is ReuseCursor: one monotone cursor per base (the
// simulator queries at non-decreasing step positions, so lookups are O(1)
// amortized instead of a binary search).  A cursor is per-run state; reset()
// it against the index before every replay.
#pragma once

#include <vector>

#include "ir/dag.hpp"
#include "score/schedule.hpp"

namespace cello::score {

class ReuseIndex {
 public:
  /// Build from a schedule and a tensor->base mapping (`base_of[t]` for every
  /// ir::TensorId, e.g. sim::AddressMap::base_of).  Single counting pass over
  /// the scheduled ops plus a stable fill — steps are walked in ascending
  /// order, so each base's positions come out sorted without any per-base
  /// sort, bit-identical to sorting the interleaved per-tensor lists.
  static ReuseIndex build(const ir::TensorDag& dag, const Schedule& sched,
                          const std::vector<i32>& base_of, size_t num_bases);

  size_t num_bases() const { return offsets_.size() - 1; }
  /// Total use events of base `b`.
  u32 count(i32 b) const { return offsets_[static_cast<size_t>(b) + 1] - offsets_[b]; }

  const std::vector<u32>& offsets() const { return offsets_; }
  const std::vector<i64>& positions() const { return positions_; }

 private:
  std::vector<u32> offsets_;    ///< per base id, size num_bases + 1
  std::vector<i64> positions_;  ///< ascending step positions, per-base slices
};

/// Per-run cursor state over a (shared) ReuseIndex.  Cheap to reset between
/// runs: the vector keeps its capacity, so a reused cursor reallocates nothing.
class ReuseCursor {
 public:
  /// Size to `index` and rewind every base's cursor to the start of its
  /// CSR slice (cursors are indexes into the flattened positions() array).
  void reset(const ReuseIndex& index) {
    cursor_.assign(index.offsets().begin(), index.offsets().end() - 1);
  }

  /// Number of uses of `base` strictly after step `pos` (RIFF frequency).
  i32 remaining_after(const ReuseIndex& index, i32 base, i64 pos) {
    return static_cast<i32>(index.offsets()[static_cast<size_t>(base) + 1] -
                            advance(index, base, pos));
  }
  /// Steps from `pos` to the next use of `base`, or -1 (RIFF distance).
  i64 next_distance(const ReuseIndex& index, i32 base, i64 pos) {
    const u32 c = advance(index, base, pos);
    return c == index.offsets()[static_cast<size_t>(base) + 1] ? -1
                                                               : index.positions()[c] - pos;
  }

 private:
  /// First index into positions() with positions()[i] > pos (monotone in pos).
  u32 advance(const ReuseIndex& index, i32 base, i64 pos) {
    const i64* p = index.positions().data();
    const u32 end = index.offsets()[static_cast<size_t>(base) + 1];
    u32 c = cursor_[base];
    while (c < end && p[c] <= pos) ++c;
    cursor_[base] = c;
    return c;
  }

  std::vector<u32> cursor_;  ///< per base id: first index beyond the last queried pos
};

}  // namespace cello::score
