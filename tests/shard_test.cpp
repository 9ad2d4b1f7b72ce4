// Tests for the distributed-sweep subsystem: hexfloat-exact result I/O
// (sim/result_io), deterministic shard planning, self-describing shard files
// and the loud-failure merge (sim/shard), and SweepRunner::run_shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "cello/cello.hpp"
#include "common/error.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;
using sim::AcceleratorConfig;
using sim::RunMetrics;
using sim::ShardMode;
using sim::ShardPlan;
using sim::ShardResult;
using sim::SweepGrid;
using sim::SweepResult;
using sim::SweepRunner;

u64 bits(double v) { return std::bit_cast<u64>(v); }

/// Bitwise equality on every field, including the nested breakdowns.
void expect_bit_equal(const RunMetrics& a, const RunMetrics& b, const std::string& ctx) {
  EXPECT_EQ(bits(a.seconds), bits(b.seconds)) << ctx;
  EXPECT_EQ(a.total_macs, b.total_macs) << ctx;
  EXPECT_EQ(a.dram_bytes, b.dram_bytes) << ctx;
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes) << ctx;
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes) << ctx;
  EXPECT_EQ(bits(a.offchip_energy_pj), bits(b.offchip_energy_pj)) << ctx;
  EXPECT_EQ(bits(a.onchip_energy_pj), bits(b.onchip_energy_pj)) << ctx;
  EXPECT_EQ(a.sram_line_accesses, b.sram_line_accesses) << ctx;
  EXPECT_EQ(a.traffic_by_tensor, b.traffic_by_tensor) << ctx;
  ASSERT_EQ(a.per_op.size(), b.per_op.size()) << ctx;
  for (size_t i = 0; i < a.per_op.size(); ++i) {
    EXPECT_EQ(a.per_op[i].op, b.per_op[i].op) << ctx;
    EXPECT_EQ(a.per_op[i].macs, b.per_op[i].macs) << ctx;
    EXPECT_EQ(a.per_op[i].dram_bytes, b.per_op[i].dram_bytes) << ctx;
  }
}

// ---- result I/O -------------------------------------------------------------

TEST(ResultIo, MetricsJsonRoundTripIsHexfloatExact) {
  // Doubles chosen to break decimal round-trips: non-terminating binary
  // fractions, a denormal, the largest finite double, and negative zero.
  const double awkward[] = {1.0 / 3.0,   0.1,  6.62607015e-34, 5e-324,
                            1.7976931348623157e308, -0.0, 12345.678901234567};
  for (const double v : awkward) {
    RunMetrics m;
    m.seconds = v;
    m.offchip_energy_pj = v * 3.0;
    m.onchip_energy_pj = -v;
    m.total_macs = 123456789012345;
    m.dram_bytes = 9007199254740993ull;  // 2^53 + 1: not representable as double
    m.dram_read_bytes = 7;
    m.dram_write_bytes = 2;
    m.sram_line_accesses = 42;
    m.traffic_by_tensor = {{"A", 1024}, {"x_0", 9007199254740993ull}};
    m.per_op.push_back({"spmm", 10, 4096});
    m.per_op.push_back({"dot", 0, 0});

    std::string text;
    sim::metrics_to_json(text, m, 0);
    const RunMetrics back = sim::metrics_from_json(sim::json_parse(text));
    expect_bit_equal(m, back, "seconds=" + sim::hex_double(v));
  }
}

TEST(ResultIo, SweepResultJsonRoundTrip) {
  SweepResult row;
  row.workload = "cg:iters=2,m=2048,n=8";
  row.config = "Flex+LRU";
  row.metrics.seconds = 1.0 / 7.0;
  row.metrics.total_macs = 99;
  row.metrics.dram_bytes = 12345;
  row.metrics.offchip_energy_pj = 0.3;
  row.metrics.onchip_energy_pj = 5e-324;
  row.metrics.traffic_by_tensor = {{"A", 7}, {"p", 11}};
  row.metrics.per_op.push_back({"spmv.0", 5, 9});

  std::string text;
  sim::result_to_json(text, row, 0);
  const SweepResult back = sim::result_from_json(sim::json_parse(text));
  EXPECT_EQ(back.workload, row.workload);
  EXPECT_EQ(back.config, row.config);
  expect_bit_equal(row.metrics, back.metrics, "json result");
}

TEST(ResultIo, MalformedInputFailsLoudly) {
  EXPECT_THROW(sim::json_parse("{"), Error);
  EXPECT_THROW(sim::json_parse("{} trailing"), Error);
  EXPECT_THROW(sim::json_parse("{\"a\": 01x}"), Error);
  EXPECT_THROW(sim::parse_hex_double("0x1.8p+"), Error);
  EXPECT_THROW(sim::parse_hex_double("1.5 extra"), Error);
  // Missing and unknown metric keys both reject.
  EXPECT_THROW(sim::metrics_from_json(sim::json_parse("{\"seconds\": \"0x0p+0\"}")), Error);
  std::string full;
  sim::metrics_to_json(full, RunMetrics{}, 0);
  std::string extra = full;
  extra.insert(extra.find('}'), "");  // keep valid
  const std::string with_unknown =
      "{\"bogus\": 1, " + full.substr(full.find('{') + 1);
  EXPECT_THROW(sim::metrics_from_json(sim::json_parse(with_unknown)), Error);
  // CSV with a reserved character in a tensor name refuses to serialize.
  std::vector<SweepResult> rows(1);
  rows[0].metrics.traffic_by_tensor = {{"bad;name", 1}};
  EXPECT_THROW(sim::results_to_csv(rows), Error);
}

// ---- shard planning ---------------------------------------------------------

TEST(Shard, PlansCoverTheGridExactlyOnceForAnyK) {
  const SweepGrid grid = sim::make_grid(
      {"cg:m=512,n=4,iters=1", "cg:m=1024,n=4,iters=1", "cg:m=2048,n=4,iters=1"},
      {"Flexagon", "FLAT", "SET", "Cello"}, AcceleratorConfig{});
  ASSERT_EQ(grid.cells(), 12u);
  for (const u32 k : {1u, 2u, 3u, 7u}) {
    for (const ShardMode mode : {ShardMode::Contiguous, ShardMode::Strided}) {
      std::vector<size_t> all;
      for (u32 i = 1; i <= k; ++i) {
        const ShardPlan plan = sim::plan_shard(grid, i, k, mode);
        EXPECT_TRUE(std::is_sorted(plan.cells.begin(), plan.cells.end()));
        if (mode == ShardMode::Contiguous && !plan.cells.empty()) {
          EXPECT_EQ(plan.cells.back() - plan.cells.front() + 1, plan.cells.size());
        }
        if (mode == ShardMode::Strided) {
          for (size_t j = 0; j < plan.cells.size(); ++j)
            EXPECT_EQ(plan.cells[j], (i - 1) + j * k);
        }
        all.insert(all.end(), plan.cells.begin(), plan.cells.end());
      }
      std::sort(all.begin(), all.end());
      ASSERT_EQ(all.size(), grid.cells()) << "k=" << k << " mode=" << sim::to_string(mode);
      for (size_t j = 0; j < all.size(); ++j) EXPECT_EQ(all[j], j);
    }
  }
  EXPECT_THROW(sim::plan_shard(grid, 0, 3), Error);
  EXPECT_THROW(sim::plan_shard(grid, 4, 3), Error);
  EXPECT_THROW(sim::plan_shard(grid, 1, 0), Error);

  // A 1/1 plan is the full grid under either mode; it canonicalizes to
  // Contiguous so full and merged files stay byte-identical no matter which
  // --shard-mode the sweeps ran with.
  EXPECT_EQ(sim::plan_shard(grid, 1, 1, ShardMode::Strided).mode, ShardMode::Contiguous);
}

TEST(Shard, FingerprintTracksTheGridDefinition) {
  const AcceleratorConfig arch;
  const SweepGrid a = sim::make_grid({"cg:m=512,n=4,iters=1"}, {"Flexagon", "Cello"}, arch);
  const SweepGrid same = sim::make_grid({"cg:m=512,n=4,iters=1"}, {"Flexagon", "Cello"}, arch);
  EXPECT_EQ(a.fingerprint, same.fingerprint);

  const SweepGrid other_spec =
      sim::make_grid({"cg:m=512,n=4,iters=2"}, {"Flexagon", "Cello"}, arch);
  EXPECT_NE(a.fingerprint, other_spec.fingerprint);
  const SweepGrid other_configs =
      sim::make_grid({"cg:m=512,n=4,iters=1"}, {"Cello", "Flexagon"}, arch);
  EXPECT_NE(a.fingerprint, other_configs.fingerprint);
  AcceleratorConfig other_arch;
  other_arch.sram_bytes *= 2;
  const SweepGrid grown =
      sim::make_grid({"cg:m=512,n=4,iters=1"}, {"Flexagon", "Cello"}, other_arch);
  EXPECT_NE(a.fingerprint, grown.fingerprint);
  // Aliases canonicalize to the registered name, so they fingerprint equal.
  const SweepGrid alias = sim::make_grid({"cg:m=512,n=4,iters=1"},
                                         {"Flexagon", "SCORE+CHORD"}, arch);
  EXPECT_EQ(alias.configs[1], "Cello");
  EXPECT_EQ(a.fingerprint, alias.fingerprint);
}

// A classic two-axis grid over every registered configuration keeps the
// fingerprint that its shard files and journals already carry.
TEST(Shard, TwoAxisFingerprintIsPinned) {
  const SweepGrid grid = sim::make_grid({"cg:m=9604,n=16", "gnn:cora"},
                                        sim::ConfigRegistry::global().names(),
                                        AcceleratorConfig{});
  EXPECT_FALSE(grid.has_fabric_axis());
  EXPECT_EQ(grid.fingerprint, 0xaea8eddcc0f88eb3ull);
}

// ---- merge ------------------------------------------------------------------

/// Shared fixture grid: two workloads (one with a real matrix, so the
/// trace-driven cache path is exercised) under four mixed-policy configs.
const SweepGrid& merge_grid() {
  static const SweepGrid grid = sim::make_grid(
      {"cg:m=9604,nnz=85264,n=16,iters=3", "spmv:dataset=fv1,iters=2,n=2"},
      {"Flexagon", "Flex+LRU", "Cello", "FLAT"}, AcceleratorConfig{});
  return grid;
}

ShardResult run_one_shard(const SweepGrid& grid, u32 index, u32 count, ShardMode mode) {
  ShardResult shard;
  shard.grid = grid;
  shard.plan = sim::plan_shard(grid, index, count, mode);
  shard.results = SweepRunner(/*threads=*/2).run_shard(grid, shard.plan);
  return shard;
}

TEST(Shard, MergedShuffledShardsAreBitIdenticalToSerialSweep) {
  const SweepGrid& grid = merge_grid();

  // Three strided shards, serialized to files and parsed back, arriving in
  // shuffled order.
  std::vector<ShardResult> shards;
  for (const u32 i : {2u, 3u, 1u})
    shards.push_back(sim::shard_from_json(
        sim::shard_to_json(run_one_shard(grid, i, 3, ShardMode::Strided))));
  const std::vector<SweepResult> merged = sim::merge_shards(shards);

  // Serial single-process reference over the same grid.
  const std::vector<SweepResult> serial = SweepRunner(/*threads=*/1).run(
      test::workloads(grid.workloads), test::configs(grid.configs), grid.arch);
  ASSERT_EQ(merged.size(), serial.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].workload, serial[i].workload);
    EXPECT_EQ(merged[i].config, serial[i].config);
    expect_bit_equal(merged[i].metrics, serial[i].metrics,
                     merged[i].workload + "/" + merged[i].config);
  }

  // And the merged *file* is byte-identical to a full single-process shard
  // file of the same grid — the CI sharded-sweep matrix asserts exactly this.
  ShardResult full;
  full.grid = grid;
  full.plan = sim::plan_shard(grid, 1, 1, ShardMode::Contiguous);
  full.results = SweepRunner(/*threads=*/2).run_shard(grid, full.plan);
  ShardResult from_merge;
  from_merge.grid = grid;
  from_merge.plan = sim::plan_shard(grid, 1, 1, ShardMode::Contiguous);
  from_merge.results = merged;
  EXPECT_EQ(sim::shard_to_json(full), sim::shard_to_json(from_merge));
}

TEST(Shard, ContiguousShardsMergeToo) {
  const SweepGrid& grid = merge_grid();
  std::vector<ShardResult> shards;
  for (const u32 i : {3u, 1u, 2u})
    shards.push_back(run_one_shard(grid, i, 3, ShardMode::Contiguous));
  const std::vector<SweepResult> merged = sim::merge_shards(shards);
  const std::vector<SweepResult> full = SweepRunner(/*threads=*/2).run(
      test::workloads(grid.workloads), test::configs(grid.configs), grid.arch);
  ASSERT_EQ(merged.size(), full.size());
  for (size_t i = 0; i < merged.size(); ++i)
    expect_bit_equal(merged[i].metrics, full[i].metrics,
                     merged[i].workload + "/" + merged[i].config);
}

TEST(Shard, MergeRejectsMissingDuplicateAndForeignShards) {
  const AcceleratorConfig arch;
  const SweepGrid grid =
      sim::make_grid({"cg:m=512,n=4,iters=1"}, {"Flexagon", "FLAT"}, arch);
  const ShardResult s1 = run_one_shard(grid, 1, 3, ShardMode::Contiguous);
  const ShardResult s2 = run_one_shard(grid, 2, 3, ShardMode::Contiguous);
  const ShardResult s3 = run_one_shard(grid, 3, 3, ShardMode::Contiguous);

  // The happy path first: any arrival order reassembles.
  EXPECT_EQ(sim::merge_shards({s3, s1, s2}).size(), grid.cells());

  EXPECT_THROW(sim::merge_shards({s1, s2}), Error);          // missing shard 3
  EXPECT_THROW(sim::merge_shards({s1, s1, s2}), Error);      // duplicate shard 1
  EXPECT_THROW(sim::merge_shards({}), Error);                // nothing at all

  // Foreign grid: same shape, different workload definition.
  const SweepGrid foreign =
      sim::make_grid({"cg:m=512,n=4,iters=2"}, {"Flexagon", "FLAT"}, arch);
  EXPECT_NE(foreign.fingerprint, grid.fingerprint);
  const ShardResult f1 = run_one_shard(foreign, 1, 3, ShardMode::Contiguous);
  EXPECT_THROW(sim::merge_shards({f1, s2, s3}), Error);

  // Mode and count disagreements.
  const ShardResult strided1 = run_one_shard(grid, 1, 3, ShardMode::Strided);
  EXPECT_THROW(sim::merge_shards({strided1, s2, s3}), Error);
  const ShardResult half1 = run_one_shard(grid, 1, 2, ShardMode::Contiguous);
  const ShardResult half2 = run_one_shard(grid, 2, 2, ShardMode::Contiguous);
  EXPECT_THROW(sim::merge_shards({half1, s2}), Error);
  EXPECT_EQ(sim::merge_shards({half2, half1}).size(), grid.cells());
}

TEST(Shard, ShardFilesAreSelfDescribingAndTamperEvident) {
  const AcceleratorConfig arch;
  const SweepGrid grid =
      sim::make_grid({"cg:m=512,n=4,iters=1"}, {"Flexagon", "FLAT"}, arch);
  ShardResult shard = run_one_shard(grid, 1, 3, ShardMode::Contiguous);
  const std::string text = sim::shard_to_json(shard);

  // Round-trip preserves everything, including the derived cell list.
  const ShardResult back = sim::shard_from_json(text);
  EXPECT_EQ(back.grid.fingerprint, grid.fingerprint);
  EXPECT_EQ(back.grid.workloads, grid.workloads);
  EXPECT_EQ(back.grid.configs, grid.configs);
  EXPECT_EQ(back.plan.cells, shard.plan.cells);
  ASSERT_EQ(back.results.size(), shard.results.size());
  for (size_t i = 0; i < back.results.size(); ++i)
    expect_bit_equal(back.results[i].metrics, shard.results[i].metrics, "round trip");

  // An unknown format tag refuses to load.
  std::string wrong_format = text;
  wrong_format.replace(wrong_format.find("cello-sweep/1"), 13, "cello-sweep/9");
  EXPECT_THROW(sim::shard_from_json(wrong_format), Error);

  // A shard index outside 1..count refuses to load.
  std::string wrong_index = text;
  wrong_index.replace(wrong_index.find("\"index\": 1"), 10, "\"index\": 4");
  EXPECT_THROW(sim::shard_from_json(wrong_index), Error);

  // Result count disagreeing with the plan refuses to load.
  ShardResult truncated = shard;
  truncated.results.pop_back();
  EXPECT_THROW(sim::shard_from_json(sim::shard_to_json(truncated)), Error);

  // A result row naming the wrong cell refuses to load.
  ShardResult renamed = shard;
  renamed.results[0].config = "FLAT";  // cell 0 is Flexagon
  EXPECT_THROW(sim::shard_from_json(sim::shard_to_json(renamed)), Error);
}

TEST(Shard, ArchFieldsPast32BitsRefuseToLoad) {
  // line_bytes, cache_associativity and chord_entries are u32: a value of
  // 2^32 + 16 must be refused by name, not wrapped to 16 and merged.
  const AcceleratorConfig arch;
  const SweepGrid grid = sim::make_grid({"cg:m=512,n=4,iters=1"}, {"Flexagon"}, arch);
  const std::string text = sim::shard_to_json(run_one_shard(grid, 1, 1, ShardMode::Contiguous));
  for (const std::string key : {"line_bytes", "cache_associativity", "chord_entries"}) {
    const std::string field = "\"" + key + "\": ";
    const size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos) << key;
    const size_t value = at + field.size();
    std::string tampered = text;
    tampered.replace(value, text.find(',', value) - value, "4294967312");
    try {
      sim::shard_from_json(tampered);
      ADD_FAILURE() << key << " 2^32 + 16 loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
    // The largest u32 still loads.
    std::string widest = text;
    widest.replace(value, text.find(',', value) - value, "4294967295");
    EXPECT_NO_THROW(sim::shard_from_json(widest)) << key;
  }
}

TEST(Shard, RunShardPrebuildsOnlyWhatItTouches) {
  // A one-cell shard of a grid whose other row uses a different schedule
  // policy must still be bit-identical to the same cell of the full run —
  // i.e. the filtered prebuild changes nothing observable.
  const SweepGrid grid = sim::make_grid({"cg:m=2048,n=8,iters=2"},
                                        {"Flexagon", "Cello"}, AcceleratorConfig{});
  for (u32 i = 1; i <= 2; ++i) {
    const ShardPlan plan = sim::plan_shard(grid, i, 2, ShardMode::Contiguous);
    ASSERT_EQ(plan.cells.size(), 1u);
    const auto cells = SweepRunner(/*threads=*/1).run_shard(grid, plan);
    const auto full = SweepRunner(/*threads=*/1).run(
        test::workloads(grid.workloads), test::configs(grid.configs), grid.arch);
    ASSERT_EQ(cells.size(), 1u);
    expect_bit_equal(cells[0].metrics, full[plan.cells[0]].metrics,
                     "shard " + std::to_string(i) + "/2");
  }
}

}  // namespace
