// Buffer playground: drive a CHORD buffer, an LRU cache and a BRRIP cache
// with the same synthetic tensor-reuse trace and watch the policies diverge.
//
//   ./example_buffer_playground [capacity_KiB] [tensor_KiB] [rounds]
#include <cstdlib>
#include <iostream>

#include "cache/cache.hpp"
#include "chord/chord.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "workloads/dag_builder.hpp"

int main(int argc, char** argv) {
  using namespace cello;
  const Bytes capacity = (argc > 1 ? (u64)std::atoll(argv[1]) : 256) * 1024;
  const Bytes tensor_bytes = (argc > 2 ? (u64)std::atoll(argv[2]) : 96) * 1024;
  const int rounds = argc > 3 ? std::atoi(argv[3]) : 50;

  std::cout << "Buffer capacity " << format_bytes(static_cast<double>(capacity))
            << ", 4 tensors of " << format_bytes(static_cast<double>(tensor_bytes))
            << ", " << rounds << " rounds\n\n";

  // Trace: per round, tensor 0 ("A") is read; tensors 1..2 are written then
  // read 2 rounds later; tensor 3 is written once and read only every 8th
  // round (the CG "X" pattern).
  chord::ChordBuffer chord_buf(capacity, 16, /*riff=*/true);
  chord::ChordBuffer prelude_buf(capacity, 16, /*riff=*/false);
  cache::SetAssocCache lru(capacity, 16, 8, cache::Policy::Lru);
  cache::SetAssocCache brrip(capacity, 16, 8, cache::Policy::Brrip);

  auto meta = [&](i32 id, i32 uses, i64 dist) {
    chord::TensorMeta m;
    m.id = id;
    m.name = cello::workloads::numbered("T", id);
    m.start_addr = 0x1000'0000ull + static_cast<Addr>(id) * 0x100'0000ull;
    m.bytes = tensor_bytes;
    m.remaining_uses = uses;
    m.next_use_distance = dist;
    return m;
  };
  Bytes chord_dram = 0, prelude_dram = 0;

  for (int r = 0; r < rounds; ++r) {
    auto drive = [&](i32 id, bool write, i32 uses, i64 dist) {
      const Addr base = 0x1000'0000ull + static_cast<Addr>(id) * 0x100'0000ull;
      lru.access_range(base, tensor_bytes, write);
      brrip.access_range(base, tensor_bytes, write);
      const auto c = write ? chord_buf.write_tensor(meta(id, uses, dist))
                           : chord_buf.read_tensor(meta(id, uses, dist));
      const auto p = write ? prelude_buf.write_tensor(meta(id, uses, dist))
                           : prelude_buf.read_tensor(meta(id, uses, dist));
      chord_dram += c.dram_bytes;
      prelude_dram += p.dram_bytes;
    };
    drive(0, false, rounds - r, 1);            // A: reused every round
    drive(1, true, 1, 2);                      // S-like: consumed soon
    drive(2, true, 2, 2);                      // R-like
    drive(1, false, 0, -1);
    drive(2, false, 1, 6);
    drive(3, r % 8 != 0, 1, 8 - (r % 8));      // X-like: long reuse distance
  }

  TextTable t({"policy", "DRAM traffic", "hit behaviour"});
  t.add_row({"CHORD (PRELUDE+RIFF)", format_bytes(static_cast<double>(chord_dram)),
             std::to_string(chord_buf.stats().read_hits) + " full-tensor read hits, " +
                 std::to_string(chord_buf.stats().riff_replacements) + " RIFF tail steals"});
  t.add_row({"PRELUDE only", format_bytes(static_cast<double>(prelude_dram)),
             std::to_string(prelude_buf.stats().read_hits) + " full-tensor read hits"});
  t.add_row({"LRU cache", format_bytes(static_cast<double>(lru.dram_bytes())),
             format_double(100 * lru.stats().hit_rate(), 1) + "% line hit rate"});
  t.add_row({"BRRIP cache", format_bytes(static_cast<double>(brrip.dram_bytes())),
             format_double(100 * brrip.stats().hit_rate(), 1) + "% line hit rate"});
  std::cout << t.to_string();

  std::cout << "\nCHORD state at the end (RIFF-index table):\n";
  TextTable e({"tensor", "resident", "freq", "dist"});
  for (const auto& entry : chord_buf.entries())
    e.add_row({entry.name, format_bytes(static_cast<double>(entry.resident_bytes())),
               std::to_string(entry.freq), std::to_string(entry.dist)});
  std::cout << e.to_string();
  return 0;
}
