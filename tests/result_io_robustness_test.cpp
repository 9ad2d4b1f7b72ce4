// Robustness tests for sweep result persistence (sim/result_io, sim/shard):
// truncated or garbled result files must fail with precise typed errors
// (out-of-range integers included), a merge must name its bad input file,
// quarantined-failure records must round-trip JSON bit-exactly, and the CSV
// export keeps its exact bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "sim/result_io.hpp"
#include "sim/shard.hpp"

namespace {

using namespace cello;
using sim::ShardResult;
using sim::SweepGrid;
using sim::SweepResult;

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// A small shard whose results are synthetic (no simulation): every row names
/// its grid cell, which is all shard_from_json validates.
ShardResult synthetic_shard() {
  const sim::AcceleratorConfig arch;
  ShardResult shard;
  shard.grid = sim::make_grid({"cg:m=9604,nnz=85264,n=16,iters=3"}, {"Flexagon", "Cello"},
                              arch);
  shard.plan = sim::plan_shard(shard.grid, 1, 1);
  for (const size_t cell : shard.plan.cells) {
    SweepResult r;
    r.workload = shard.grid.workloads[cell / shard.grid.configs.size()];
    r.config = shard.grid.configs[cell % shard.grid.configs.size()];
    r.metrics.seconds = 0.1 * static_cast<double>(cell + 1);
    r.metrics.dram_bytes = 1000 + cell;
    shard.results.push_back(std::move(r));
  }
  return shard;
}

TEST(ResultIoRobustness, ErrorRecordRoundTripsJson) {
  SweepResult r;
  r.workload = "cg:m=16,n=4";
  r.config = "Cello";
  r.error = "sweep cell 3 (workload 'cg:m=16,n=4', config 'Cello') failed: boom";
  std::string text;
  sim::result_to_json(text, r, 0);
  const SweepResult back = sim::result_from_json(sim::json_parse(text));
  EXPECT_EQ(back.workload, r.workload);
  EXPECT_EQ(back.config, r.config);
  EXPECT_EQ(back.error, r.error);
  EXPECT_FALSE(back.ok());
}

TEST(ResultIoRobustness, CleanResultsEmitNoErrorKey) {
  // Byte-compatibility: a clean run's JSON must look exactly like it did
  // before quarantine records existed.
  SweepResult r;
  r.workload = "cg:m=16,n=4";
  r.config = "Cello";
  std::string text;
  sim::result_to_json(text, r, 0);
  EXPECT_EQ(text.find("\"error\""), std::string::npos) << text;
}

TEST(ResultIoRobustness, EmptyErrorMessageIsRejected) {
  SweepResult r;
  r.workload = "w";
  r.config = "c";
  r.error = "x";
  std::string text;
  sim::result_to_json(text, r, 0);
  const size_t at = text.find("\"x\"");
  ASSERT_NE(at, std::string::npos);
  const std::string empty_error = text.substr(0, at) + "\"\"" + text.substr(at + 3);
  EXPECT_THROW(sim::result_from_json(sim::json_parse(empty_error)), Error);
}

// The CSV export's exact bytes for a fixed row set: a clean single-chip row
// (quoted spec, packed traffic and per-op cells, a denormal), a multi-node
// row, and a quarantined error row whose message needs quoting, with an empty
// traffic map.
TEST(ResultIoRobustness, CsvExportBytesArePinned) {
  std::vector<SweepResult> rows(3);
  rows[0].workload = "cg:iters=2,m=2048,n=8";
  rows[0].config = "Flex+LRU";
  rows[0].metrics.seconds = 1.0 / 7.0;
  rows[0].metrics.total_macs = 99;
  rows[0].metrics.dram_bytes = 12345;
  rows[0].metrics.dram_read_bytes = 12000;
  rows[0].metrics.dram_write_bytes = 345;
  rows[0].metrics.offchip_energy_pj = 0.3;
  rows[0].metrics.onchip_energy_pj = 5e-324;
  rows[0].metrics.sram_line_accesses = 77;
  rows[0].metrics.traffic_by_tensor = {{"A", 7}, {"p", 11}};
  rows[0].metrics.per_op.push_back({"spmv.0", 5, 9});
  rows[0].metrics.per_op.push_back({"dot.1", 0, 0});
  rows[1].workload = "gnn:cora";
  rows[1].config = "Cello";
  rows[1].fabric = "mesh:2x2";
  rows[1].metrics.seconds = 2.5e-3;
  rows[1].metrics.total_macs = 4000;
  rows[1].metrics.dram_bytes = 9007199254740993ull;  // 2^53 + 1
  rows[1].metrics.dram_read_bytes = 9007199254740990ull;
  rows[1].metrics.dram_write_bytes = 3;
  rows[1].metrics.nodes = 4;
  rows[1].metrics.noc_bytes = 4096;
  rows[1].metrics.naive_noc_bytes = 8192;
  rows[1].metrics.noc_seconds = 1.0 / 3.0;
  rows[1].metrics.max_link_utilization = 0.75;
  rows[1].metrics.parallel_efficiency = 0.875;
  rows[1].metrics.traffic_by_tensor = {{"X_0", 1}};
  rows[1].metrics.per_op.push_back({"agg", 4000, 9007199254740993ull});
  rows[2].workload = "sddmm:dataset=cora,heads=2";
  rows[2].config = "SCORE+LRU";
  rows[2].fabric = "1";
  rows[2].error = "failed: \"quoted\", with, commas\nand a newline";

  const std::string expected =
      "workload,config,fabric,seconds,total_macs,dram_bytes,dram_read_bytes,dram_write_bytes,"
      "offchip_energy_pj,onchip_energy_pj,sram_line_accesses,nodes,noc_bytes,naive_noc_bytes,"
      "noc_seconds,max_link_utilization,parallel_efficiency,traffic_by_tensor,per_op,error\n"
      "\"cg:iters=2,m=2048,n=8\",Flex+LRU,,0x1.2492492492492p-3,99,12345,12000,345,"
      "0x1.3333333333333p-2,0x1p-1074,77,1,0,0,0x0p+0,0x0p+0,0x0p+0,A=7;p=11,"
      "spmv.0:5:9|dot.1:0:0,\n"
      "gnn:cora,Cello,mesh:2x2,0x1.47ae147ae147bp-9,4000,9007199254740993,9007199254740990,3,"
      "0x0p+0,0x0p+0,0,4,4096,8192,0x1.5555555555555p-2,0x1.8p-1,0x1.cp-1,X_0=1,"
      "agg:4000:9007199254740993,\n"
      "\"sddmm:dataset=cora,heads=2\",SCORE+LRU,1,0x0p+0,0,0,0,0,0x0p+0,0x0p+0,0,1,0,0,0x0p+0,"
      "0x0p+0,0x0p+0,,,\"failed: \"\"quoted\"\", with, commas\nand a newline\"\n";
  EXPECT_EQ(sim::results_to_csv(rows), expected);
}

TEST(ResultIoRobustness, OutOfRangeIntegersAreRejected) {
  const auto number = [](const std::string& literal) {
    return sim::json_parse("{\"n\": " + literal + "}").at("n");
  };
  // Both ends of each range still read back exactly.
  EXPECT_EQ(number("18446744073709551615").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(number("9223372036854775807").as_i64(), INT64_MAX);
  EXPECT_EQ(number("-9223372036854775808").as_i64(), INT64_MIN);
  for (const std::string literal : {"99999999999999999999", "18446744073709551616"}) {
    try {
      number(literal).as_u64();
      FAIL() << literal << " read as a u64";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(literal), std::string::npos) << e.what();
    }
  }
  for (const std::string literal :
       {"99999999999999999999", "-99999999999999999999", "9223372036854775808"}) {
    try {
      number(literal).as_i64();
      FAIL() << literal << " read as an i64";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(literal), std::string::npos) << e.what();
    }
  }
}

TEST(ResultIoRobustness, ShardWithOutOfRangeCountIsRejected) {
  const std::string text = sim::shard_to_json(synthetic_shard());
  const std::string key = "\"total_macs\": 0";
  const size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::string huge = "99999999999999999999";
  std::string drifted = text;
  drifted.replace(at, key.size(), "\"total_macs\": " + huge);
  try {
    sim::shard_from_json(drifted);
    FAIL() << "a total_macs of " << huge << " loaded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(huge), std::string::npos) << e.what();
  }
}

TEST(ResultIoRobustness, MalformedHexfloatsAreRejected) {
  EXPECT_EQ(sim::parse_hex_double("0x1.8p1"), 3.0);
  EXPECT_THROW(sim::parse_hex_double(""), Error);
  EXPECT_THROW(sim::parse_hex_double("bogus"), Error);
  EXPECT_THROW(sim::parse_hex_double("0x1.8p1 trailing"), Error);
  EXPECT_THROW(sim::parse_hex_double("0x1.8p1garbage"), Error);
}

TEST(ResultIoRobustness, EveryTruncatedShardPrefixFailsCleanly) {
  // SIGKILL can cut a result file at any byte.  No prefix may parse as a
  // complete shard, and every one must fail with a typed error - not UB.
  const std::string text = sim::shard_to_json(synthetic_shard());
  // Stop before the closing brace: a cut inside trailing whitespace is not a
  // truncation the parser could (or should) detect.
  const size_t last_meaningful = text.find_last_of('}');
  ASSERT_NE(last_meaningful, std::string::npos);
  for (size_t len = 0; len <= last_meaningful; len += 7) {
    try {
      sim::shard_from_json(text.substr(0, len));
      FAIL() << "prefix of " << len << " bytes parsed as a full shard";
    } catch (const Error&) {
      // expected: typed, catchable, message already validated elsewhere
    }
  }
  EXPECT_EQ(sim::shard_from_json(text).results.size(), 2u);  // positive control
}

TEST(ResultIoRobustness, UnknownResultKeysAreRejected) {
  SweepResult r;
  r.workload = "w";
  r.config = "c";
  std::string text;
  sim::result_to_json(text, r, 0);
  std::string drifted = "{\"surprise\": 1, ";
  drifted.append(text, 1, std::string::npos);
  try {
    sim::result_from_json(sim::json_parse(drifted));
    FAIL() << "expected cello::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos) << e.what();
  }
}

TEST(ResultIoRobustness, ShardFileLoaderNamesTheBadFile) {
  const ShardResult shard = synthetic_shard();
  const std::string good_path = "/tmp/cello_resio_good.json";
  const std::string bad_path = "/tmp/cello_resio_bad.json";
  const std::string text = sim::shard_to_json(shard);
  write_file(good_path, text);
  write_file(bad_path, text.substr(0, text.size() / 2));

  EXPECT_EQ(sim::shard_from_json_file(good_path).results.size(), shard.results.size());
  try {
    sim::shard_from_json_file(bad_path);
    FAIL() << "expected cello::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(bad_path), std::string::npos) << e.what();
  }
  try {
    sim::shard_from_json_file("/tmp/cello_resio_not_here.json");
    FAIL() << "expected cello::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cello_resio_not_here"), std::string::npos)
        << e.what();
  }
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
}

TEST(ResultIoRobustness, ShardParseFailpointInjectsALoadFailure) {
  const std::string path = "/tmp/cello_resio_failpoint.json";
  write_file(path, sim::shard_to_json(synthetic_shard()));
  failpoint::arm("shard.parse", "throw@1");
  try {
    sim::shard_from_json_file(path);
    FAIL() << "expected the injected fault";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("injected fault"), std::string::npos) << msg;
  }
  failpoint::disarm_all();
  EXPECT_NO_THROW(sim::shard_from_json_file(path));  // disarmed: loads again
  std::remove(path.c_str());
}

}  // namespace
