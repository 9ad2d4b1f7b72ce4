// Tests for crash-safe sweep checkpointing (sim/checkpoint) and the
// fault-tolerance knobs of SweepRunner (SweepOptions): journal round-trips,
// kill-and-resume byte-identity, torn/short/truncated journal recovery,
// bounded retries, keep-going quarantine, and cell-naming error context.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cello/cello.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "sim/checkpoint.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;
using sim::AcceleratorConfig;
using sim::CheckpointState;
using sim::ShardPlan;
using sim::ShardResult;
using sim::SweepGrid;
using sim::SweepOptions;
using sim::SweepResult;
using sim::SweepRunner;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

u64 bits(double v) { return std::bit_cast<u64>(v); }

void expect_cell_bit_equal(const SweepResult& a, const SweepResult& b, const std::string& ctx) {
  EXPECT_EQ(a.workload, b.workload) << ctx;
  EXPECT_EQ(a.config, b.config) << ctx;
  EXPECT_EQ(a.error, b.error) << ctx;
  EXPECT_EQ(bits(a.metrics.seconds), bits(b.metrics.seconds)) << ctx;
  EXPECT_EQ(a.metrics.dram_bytes, b.metrics.dram_bytes) << ctx;
  EXPECT_EQ(bits(a.metrics.onchip_energy_pj), bits(b.metrics.onchip_energy_pj)) << ctx;
  EXPECT_EQ(a.metrics.sram_line_accesses, b.metrics.sram_line_accesses) << ctx;
}

/// A cheap shape-only 2x3 grid (no datasets to download, ~ms per cell).
SweepGrid test_grid() {
  const AcceleratorConfig arch;
  return sim::make_grid({"cg:m=9604,nnz=85264,n=16,iters=3", "llm:seq=512,decode_steps=4"},
                        {"Flexagon", "Cello", "Flex+LRU"}, arch);
}

/// Fresh journal path per test; failpoints never leak between tests.
class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("/tmp/cello_ckpt_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".journal";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    failpoint::disarm_all();
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(CheckpointTest, HeaderBindsGridShardAndMode) {
  const auto grid = test_grid();
  const auto p11 = sim::plan_shard(grid, 1, 1);
  const auto p12 = sim::plan_shard(grid, 1, 2);
  const auto p22 = sim::plan_shard(grid, 2, 2);
  EXPECT_NE(sim::checkpoint_header(grid, p11), sim::checkpoint_header(grid, p12));
  EXPECT_NE(sim::checkpoint_header(grid, p12), sim::checkpoint_header(grid, p22));

  // A journal written for one shard refuses to load for another.
  const std::string bytes = sim::checkpoint_header(grid, p12);
  EXPECT_NO_THROW(sim::read_journal(bytes, grid, p12));
  EXPECT_THROW(sim::read_journal(bytes, grid, p22), Error);
  EXPECT_THROW(sim::read_journal("garbage\n", grid, p12), Error);
  EXPECT_THROW(sim::read_journal("", grid, p12), Error);
}

// A frame whose length runs past the journal is a torn tail, even one of
// 2^64 - 1 bytes, which would wrap an offset + length bound back inside it.
TEST_F(CheckpointTest, OverlongFrameLengthsAreTornTails) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  const std::string header = sim::checkpoint_header(grid, plan);
  for (const std::string frame : {"R 0 18446744073709551615 0x0000000000000000\n",
                                  "R 0 18446744073709551616 0x0000000000000000\n",
                                  "R 0 3 0x0000000000000000\n{}\n"}) {
    const CheckpointState state = sim::read_journal(header + frame, grid, plan);
    EXPECT_TRUE(state.completed.empty()) << frame;
    EXPECT_EQ(state.valid_bytes, header.size()) << frame;
    EXPECT_EQ(state.dropped_bytes, frame.size()) << frame;
  }
}

TEST_F(CheckpointTest, FreshRunJournalsEveryCellBitExactly) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  SweepOptions opts;
  opts.checkpoint = path_;
  const auto cells = SweepRunner(2).run_shard(grid, plan, opts);
  ASSERT_EQ(cells.size(), grid.cells());

  const CheckpointState state = sim::read_journal(read_file(path_), grid, plan);
  EXPECT_EQ(state.dropped_bytes, 0u);
  ASSERT_EQ(state.completed.size(), grid.cells());
  for (const auto& [cell, result] : state.completed)
    expect_cell_bit_equal(result, cells[cell], "journal cell " + std::to_string(cell));
}

TEST_F(CheckpointTest, CrashMidSweepThenResumeIsByteIdentical) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  const auto reference = SweepRunner(1).run_shard(grid, plan);  // uninterrupted, no journal
  const std::string reference_json = sim::shard_to_json({grid, plan, reference});

  // "Crash" when cell 4 runs: the injected throw aborts the sweep, but every
  // cell journaled before the abort survives.
  failpoint::arm("sweep.cell", "throw@key=4");
  SweepOptions opts;
  opts.checkpoint = path_;
  EXPECT_THROW(SweepRunner(2).run_shard(grid, plan, opts), Error);
  failpoint::disarm_all();

  // Resume: completed cells come back from the journal, the rest re-run.
  opts.resume = true;
  const auto resumed = SweepRunner(2).run_shard(grid, plan, opts);
  EXPECT_EQ(sim::shard_to_json({grid, plan, resumed}), reference_json);

  // The resumed journal is complete and clean.
  const CheckpointState state = sim::read_journal(read_file(path_), grid, plan);
  EXPECT_EQ(state.dropped_bytes, 0u);
  EXPECT_EQ(state.completed.size(), grid.cells());
}

TEST_F(CheckpointTest, ExistingJournalWithoutResumeRefuses) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  SweepOptions opts;
  opts.checkpoint = path_;
  SweepRunner(1).run_shard(grid, plan, opts);
  try {
    SweepRunner(1).run_shard(grid, plan, opts);
    FAIL() << "expected refusal to clobber an existing journal";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("resume"), std::string::npos) << e.what();
  }
}

TEST_F(CheckpointTest, ResumeWithMissingJournalStartsFresh) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  const auto reference = SweepRunner(1).run_shard(grid, plan);
  SweepOptions opts;
  opts.checkpoint = path_;
  opts.resume = true;  // nothing to resume from: must behave like a fresh run
  const auto cells = SweepRunner(2).run_shard(grid, plan, opts);
  EXPECT_EQ(sim::shard_to_json({grid, plan, cells}),
            sim::shard_to_json({grid, plan, reference}));
}

TEST_F(CheckpointTest, TruncatedTailIsDroppedAndRecomputed) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  const auto reference = SweepRunner(1).run_shard(grid, plan);
  SweepOptions opts;
  opts.checkpoint = path_;
  SweepRunner(1).run_shard(grid, plan, opts);

  // SIGKILL mid-append: the file ends inside the last record.
  const std::string full = read_file(path_);
  write_file(path_, full.substr(0, full.size() - 7));

  const CheckpointState cut = sim::read_journal(read_file(path_), grid, plan);
  EXPECT_GT(cut.dropped_bytes, 0u);
  EXPECT_EQ(cut.completed.size(), grid.cells() - 1);

  opts.resume = true;
  const auto resumed = SweepRunner(2).run_shard(grid, plan, opts);
  EXPECT_EQ(sim::shard_to_json({grid, plan, resumed}),
            sim::shard_to_json({grid, plan, reference}));
  // Resume truncated the torn tail and re-appended the lost cell.
  const CheckpointState healed = sim::read_journal(read_file(path_), grid, plan);
  EXPECT_EQ(healed.dropped_bytes, 0u);
  EXPECT_EQ(healed.completed.size(), grid.cells());
}

TEST_F(CheckpointTest, TornAppendFailsChecksumAndResumes) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  const auto reference = SweepRunner(1).run_shard(grid, plan);

  // The append for cell 2 writes a full-length record with one garbled
  // payload byte, then "crashes": framing parses, the checksum must not.
  failpoint::arm("checkpoint.append", "torn_write@key=2");
  SweepOptions opts;
  opts.checkpoint = path_;
  EXPECT_THROW(SweepRunner(1).run_shard(grid, plan, opts), Error);
  failpoint::disarm_all();

  const CheckpointState torn = sim::read_journal(read_file(path_), grid, plan);
  EXPECT_GT(torn.dropped_bytes, 0u);
  for (const auto& [cell, result] : torn.completed) EXPECT_NE(cell, 2u) << result.config;

  opts.resume = true;
  const auto resumed = SweepRunner(2).run_shard(grid, plan, opts);
  EXPECT_EQ(sim::shard_to_json({grid, plan, resumed}),
            sim::shard_to_json({grid, plan, reference}));
}

TEST_F(CheckpointTest, ShortAppendLeavesRecoverableJournal) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  const auto reference = SweepRunner(1).run_shard(grid, plan);

  failpoint::arm("checkpoint.append", "short_write@key=1");
  SweepOptions opts;
  opts.checkpoint = path_;
  EXPECT_THROW(SweepRunner(1).run_shard(grid, plan, opts), Error);
  failpoint::disarm_all();

  const CheckpointState cut = sim::read_journal(read_file(path_), grid, plan);
  EXPECT_GT(cut.dropped_bytes, 0u);

  opts.resume = true;
  const auto resumed = SweepRunner(2).run_shard(grid, plan, opts);
  EXPECT_EQ(sim::shard_to_json({grid, plan, resumed}),
            sim::shard_to_json({grid, plan, reference}));
}

TEST_F(CheckpointTest, BoundedRetriesSurviveTransientFaults) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  const auto reference = SweepRunner(1).run_shard(grid, plan);

  // The first simulated cell faults once; with one retry the sweep heals and
  // stays bit-identical to a clean run.
  failpoint::arm("sweep.cell", "throw@1");
  SweepOptions opts;
  opts.retries = 1;
  const auto cells = SweepRunner(1).run_shard(grid, plan, opts);
  ASSERT_EQ(cells.size(), reference.size());
  for (size_t i = 0; i < cells.size(); ++i)
    expect_cell_bit_equal(cells[i], reference[i], "cell " + std::to_string(i));
}

TEST_F(CheckpointTest, KeepGoingQuarantinesAndNamesTheFailingCell) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  const auto reference = SweepRunner(1).run_shard(grid, plan);

  failpoint::arm("sweep.cell", "throw@key=2");
  SweepOptions opts;
  opts.keep_going = true;
  opts.retries = 1;  // both attempts hit the key trigger: persistent fault
  const auto cells = SweepRunner(2).run_shard(grid, plan, opts);
  ASSERT_EQ(cells.size(), grid.cells());

  for (size_t i = 0; i < cells.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(cells[i].ok()) << cells[i].error;
    expect_cell_bit_equal(cells[i], reference[i], "cell " + std::to_string(i));
  }
  const SweepResult& bad = cells[2];
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("sweep cell 2"), std::string::npos) << bad.error;
  EXPECT_NE(bad.error.find(grid.workloads[0]), std::string::npos) << bad.error;
  EXPECT_NE(bad.error.find(grid.configs[2]), std::string::npos) << bad.error;
  EXPECT_NE(bad.error.find("after 2 attempts"), std::string::npos) << bad.error;
  EXPECT_EQ(bad.metrics.dram_bytes, 0u);
  EXPECT_EQ(bits(bad.metrics.seconds), bits(0.0));
}

TEST_F(CheckpointTest, QuarantinedFailuresAreNotJournaledSoResumeRetriesThem) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  const auto reference = SweepRunner(1).run_shard(grid, plan);

  failpoint::arm("sweep.cell", "throw@key=3");
  SweepOptions opts;
  opts.keep_going = true;
  opts.checkpoint = path_;
  const auto quarantined = SweepRunner(2).run_shard(grid, plan, opts);
  EXPECT_FALSE(quarantined[3].ok());
  failpoint::disarm_all();

  // The journal holds only the successes; resuming after the fault is fixed
  // re-runs cell 3 and lands byte-identical to an uninterrupted clean run.
  const CheckpointState state = sim::read_journal(read_file(path_), grid, plan);
  EXPECT_EQ(state.completed.size(), grid.cells() - 1);
  for (const auto& [cell, result] : state.completed) EXPECT_NE(cell, 3u) << result.config;

  opts.resume = true;
  const auto resumed = SweepRunner(2).run_shard(grid, plan, opts);
  EXPECT_EQ(sim::shard_to_json({grid, plan, resumed}),
            sim::shard_to_json({grid, plan, reference}));
}

TEST_F(CheckpointTest, AbortingErrorNamesTheCell) {
  const auto grid = test_grid();
  const auto plan = sim::plan_shard(grid, 1, 1);
  failpoint::arm("sweep.cell", "throw@key=5");
  try {
    SweepRunner(2).run_shard(grid, plan, SweepOptions{});
    FAIL() << "expected the injected fault to abort the sweep";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sweep cell 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find(grid.workloads[1]), std::string::npos) << msg;  // 5 / 3 = workload 1
    EXPECT_NE(msg.find(grid.configs[2]), std::string::npos) << msg;    // 5 % 3 = config 2
    EXPECT_NE(msg.find("injected fault"), std::string::npos) << msg;
  }
}

TEST_F(CheckpointTest, PlainRunErrorsAlsoNameTheCell) {
  // The non-shard entry point wraps cell failures with the same coordinates.
  failpoint::arm("sweep.cell", "throw@key=1");
  const std::vector<std::string> spec_texts = {"cg:m=9604,nnz=85264,n=16,iters=3"};
  const std::vector<std::string> config_names = {"Flexagon", "Cello"};
  try {
    SweepRunner(1).run(test::workloads(spec_texts), test::configs(config_names),
                       {AcceleratorConfig{}});
    FAIL() << "expected the injected fault to abort the sweep";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sweep cell 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Cello"), std::string::npos) << msg;
  }
}

TEST_F(CheckpointTest, CheckpointRequiresShardScopedRun) {
  SweepOptions opts;
  opts.checkpoint = path_;
  EXPECT_THROW(SweepRunner(1).run(std::vector<sim::Workload>{},
                                  std::vector<sim::Configuration>{}, {AcceleratorConfig{}},
                                  opts),
               Error);
}

}  // namespace
