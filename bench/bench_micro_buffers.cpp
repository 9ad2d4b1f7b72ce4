// Google-benchmark microbenchmarks of the buffer models themselves: per-event
// cost of cache lookups vs CHORD tensor-granularity operations.  These back
// the complexity argument of Sec. VI-B(1)/(2): a CHORD event touches one
// index-table entry, a cache access performs an associativity-wide lookup per
// line.
#include <benchmark/benchmark.h>

#include "cache/cache.hpp"
#include "chord/chord.hpp"
#include "common/rng.hpp"

namespace {

using namespace cello;

void BM_CacheAccess(benchmark::State& state) {
  cache::SetAssocCache c(4ull << 20, 16, 8,
                         state.range(0) == 0 ? cache::Policy::Lru : cache::Policy::Brrip);
  Rng rng(1);
  std::vector<Addr> addrs(4096);
  for (auto& a : addrs) a = (rng.bounded(1u << 22)) & ~0xFull;
  size_t i = 0;
  for (auto _ : state) {
    c.access(addrs[i++ & 4095], false);
    benchmark::DoNotOptimize(c.stats().hits());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheAccess)->Arg(0)->Arg(1)->Name("cache_line_access/policy");

void BM_CacheRangeStream(benchmark::State& state) {
  cache::SetAssocCache c(4ull << 20, 16, 8, cache::Policy::Lru);
  Addr cursor = 0;
  for (auto _ : state) {
    c.access_range(cursor, 4096, false);  // 256 lines per iteration
    cursor += 4096;
    benchmark::DoNotOptimize(c.stats().misses);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_CacheRangeStream);

void BM_ChordTensorEvent(benchmark::State& state) {
  chord::ChordBuffer buf(4ull << 20, 16, /*riff=*/state.range(0) != 0);
  Rng rng(2);
  i64 step = 0;
  for (auto _ : state) {
    chord::TensorMeta m;
    m.id = static_cast<i32>(step % 12);
    m.name = "T";
    m.start_addr = 0x1000'0000ull + static_cast<Addr>(m.id) * 0x100'0000ull;
    m.bytes = 64 * 1024;
    m.remaining_uses = static_cast<i32>(rng.bounded(6));
    m.next_use_distance = 1 + static_cast<i64>(rng.bounded(9));
    if (step % 3 == 0)
      buf.write_tensor(m);
    else
      buf.read_tensor(m);
    ++step;
    benchmark::DoNotOptimize(buf.stats().dram_read_bytes);
  }
  // One "event" covers a whole 64 KiB tensor: operand-granularity bookkeeping.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ChordTensorEvent)->Arg(0)->Arg(1)->Name("chord_tensor_event/riff");

}  // namespace

BENCHMARK_MAIN();
