// CHORD: the hybrid implicit/explicit on-chip buffer (Sec. VI of the paper).
//
// Coarse-grained *explicit* side — SCORE supplies, per tensor, its global
// address range plus DAG-level reuse metadata (remaining use frequency and
// next-use distance), mirroring the 512-bit RIFF-index-table entries of
// Fig. 10 (64 entries by default).
//
// Cycle-level *implicit* side — two operand-granularity policies:
//  * PRELUDE: a tensor fills the buffer head-first in queue order; whatever
//    does not fit spills straight to DRAM.  The resident part of a tensor is
//    therefore always a contiguous *prefix*, so a hit test is a single
//    compare against end_chord and the buffer index is computed (not
//    searched) from start_index — no per-line tags.
//  * RIFF: when the buffer is full, an incoming tensor with higher priority
//    (sooner next use, then higher remaining frequency) evicts the *tail* of
//    the lowest-priority resident tensor, one element at a time from its end.
//
// The simulator drives CHORD with tensor-granularity read/write events and
// collects SRAM/DRAM traffic for the Table IV configurations.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace cello::chord {

/// Per-tensor coarse-grained metadata handed down by SCORE.
struct TensorMeta {
  i32 id = -1;               ///< stable tensor id (one per base tensor)
  std::string name;
  Addr start_addr = 0;       ///< global (DRAM) start address
  Bytes bytes = 0;           ///< full tensor footprint
  i32 remaining_uses = 0;    ///< RIFF frequency (future consumptions)
  i64 next_use_distance = -1;///< RIFF distance in scheduled ops (-1 = never)
  /// Append-only base (KV-cache decode): `bytes` is this step's logical
  /// extent and `appended_bytes` the part new since the previous step (the
  /// whole extent for the chain head).  CHORD itself ignores these; the
  /// KV-cache policy prices appends instead of full rewrites from them.
  bool append_only = false;
  Bytes appended_bytes = 0;
};

/// One RIFF-index-table entry (Fig. 10).  All fields in bytes/words of the
/// modelled address space.
struct RiffEntry {
  i32 id = -1;
  std::string name;
  Addr start_tensor = 0;  ///< global address of the tensor head
  Addr end_tensor = 0;    ///< global address one past the tensor end
  Addr end_chord = 0;     ///< global address one past the *resident* prefix
  i64 start_index = 0;    ///< position of the head in the data array (words)
  i64 end_index = 0;      ///< position one past the resident tail (words)
  i32 freq = 0;
  i64 dist = -1;

  Bytes resident_bytes() const { return end_chord - start_tensor; }
};

struct ChordStats {
  u64 sram_read_lines = 0;
  u64 sram_write_lines = 0;
  Bytes dram_read_bytes = 0;
  Bytes dram_write_bytes = 0;
  u64 metadata_reads = 0;
  u64 metadata_updates = 0;
  u64 prelude_spills = 0;     ///< write portions sent straight to DRAM
  u64 riff_replacements = 0;  ///< tail-eviction events
  u64 read_hits = 0;          ///< tensor-read events fully served on chip
  u64 read_misses = 0;        ///< tensor-read events touching DRAM

  Bytes dram_bytes() const { return dram_read_bytes + dram_write_bytes; }
};

/// Outcome of one tensor-granularity access.
struct AccessResult {
  Bytes sram_bytes = 0;  ///< served by the CHORD data array
  Bytes dram_bytes = 0;  ///< spilled to / fetched from DRAM
};

class ChordBuffer {
 public:
  /// @param enable_riff  false models the PRELUDE-only configuration
  ///                     (Sec. VII-C3): fill without priority replacement.
  ChordBuffer(Bytes capacity, u32 line_bytes = 16, bool enable_riff = true,
              u32 max_entries = 64);

  // ---- SCORE interface (coarse-grained explicit) ---------------------------
  /// The tensor's last consumer has run: release its residency.
  void retire(i32 tensor_id);

  // ---- datapath interface (implicit, operand granularity) ------------------
  /// Producer writes the full tensor (head first).  Resident prefix is
  /// overwritten in place; growth beyond it allocates via PRELUDE/RIFF and
  /// the unplaced tail spills to DRAM.
  AccessResult write_tensor(const TensorMeta& t);
  /// Consumer reads the full tensor.  The resident prefix hits; the rest is
  /// fetched from DRAM and — when the tensor still has future uses — the
  /// fetched tail is installed (extending the prefix) if space allows.
  AccessResult read_tensor(const TensorMeta& t);

  // ---- introspection ---------------------------------------------------------
  Bytes capacity() const { return capacity_; }
  Bytes occupied_bytes() const;
  Bytes free_bytes() const { return capacity_ - occupied_bytes(); }
  Bytes resident_bytes(i32 tensor_id) const;
  const std::vector<RiffEntry>& entries() const { return entries_; }
  const ChordStats& stats() const { return stats_; }

  /// Structural invariants: prefix residency, occupancy <= capacity, entry
  /// count <= max_entries, consistent index-table bookkeeping.  Throws.
  void check_invariants() const;

 private:
  struct Priority {
    i64 dist;  ///< -1 normalized to +inf
    i32 freq;
    /// Higher priority = sooner reuse, then more frequent reuse.
    bool higher_than(const Priority& other) const;
  };

  Priority priority_of(const RiffEntry& e) const;
  RiffEntry* find(i32 tensor_id);
  const RiffEntry* find(i32 tensor_id) const;
  /// Allocate up to `want` bytes for `t` (appending to its prefix): free
  /// space first, then RIFF tail-eviction of lower-priority victims.
  Bytes allocate(const TensorMeta& t, RiffEntry& e, Bytes want);
  /// Re-anchor an entry whose tensor footprint changed between versions.
  void sync_extent(RiffEntry& e, const TensorMeta& t);
  void rebuild_indices();
  u64 lines(Bytes b) const { return (b + line_bytes_ - 1) / line_bytes_; }

  Bytes capacity_;
  u32 line_bytes_;
  bool enable_riff_;
  u32 max_entries_;
  std::vector<RiffEntry> entries_;  ///< queue (arrival) order
  ChordStats stats_;
};

}  // namespace cello::chord
