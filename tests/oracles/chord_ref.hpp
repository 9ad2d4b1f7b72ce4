// Word-granular reference model of the CHORD hardware mechanism — a literal
// transcription of the Fig. 10 pseudocode, processing one word per "cycle":
//
//   On a request word for tensor t:
//     hit  <- req.addr < end_chord[t]           (single compare, no tag match)
//     on hit: index = (req.addr - start_tensor[t]) + start_index[t]
//     on miss: go to the PRELUDE controller:
//       if empty slot exists: enqueue at end (or in place after t's slice)
//       elif victim_tensor exists (RIFF): replace at end_index[victim],
//            shifting the intervening slices' indices
//       else: send_to_DRAM
//
// The data array is modelled explicitly as a vector of word slots tagged
// with (tensor id, word offset), so tests can check the physical layout:
// slices stay contiguous and ordered, and every bookkeeping index in the
// RIFF table matches the slot contents.
//
// This model is intentionally slow (O(words)); `ChordBuffer` is the fast
// operand-granularity model the simulator uses.  It is a test oracle only:
// `tests/chord_diff_test.cpp` drives both with identical traces and asserts
// they agree byte-for-byte.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "chord/chord.hpp"

namespace cello::chord {

class ChordRefModel {
 public:
  ChordRefModel(Bytes capacity, u32 word_bytes = 4, bool enable_riff = true,
                u32 max_entries = 64);

  /// Same SCORE-side interface as ChordBuffer.
  void update_reuse(i32 tensor_id, i32 remaining_uses, i64 next_use_distance);
  void retire(i32 tensor_id);

  /// Producer writes the whole tensor, one word per cycle, head first.
  AccessResult write_tensor(const TensorMeta& t);
  /// Consumer reads the whole tensor, one word per cycle.
  AccessResult read_tensor(const TensorMeta& t);

  Bytes resident_bytes(i32 tensor_id) const;
  Bytes occupied_bytes() const;
  u64 cycles() const { return cycles_; }

  /// Physical-layout invariants: each tensor's slots form one contiguous run
  /// holding word offsets [0, n) in order; run boundaries match the derived
  /// index table.  Throws cello::Error on violation.
  void check_invariants() const;

 private:
  struct Slot {
    i32 tensor = -1;   ///< -1 = empty
    i64 word_off = 0;  ///< offset of the held word within its tensor
  };
  struct Entry {
    i32 id = -1;
    Addr start_tensor = 0;
    Addr end_tensor = 0;
    i32 freq = 0;
    i64 dist = -1;
  };

  Entry* find(i32 id);
  const Entry* find(i32 id) const;
  /// Resident prefix length of a tensor, in words.
  i64 resident_words(i32 id) const;
  /// RIFF victim choice: the strictly lower-priority resident tensor with the
  /// worst (latest, then least frequent) reuse.  Matches ChordBuffer.
  std::optional<i32> pick_victim(const TensorMeta& incoming) const;
  /// Place one more word (offset `off`) of tensor t; returns false -> DRAM.
  bool place_word(const TensorMeta& t, i64 off);
  void compact_order();

  Bytes capacity_;
  u32 word_bytes_;
  bool enable_riff_;
  u32 max_entries_;
  std::vector<Slot> slots_;       ///< physical data array, queue-ordered
  std::vector<Entry> entries_;    ///< arrival-ordered index table
  u64 cycles_ = 0;
};

}  // namespace cello::chord
