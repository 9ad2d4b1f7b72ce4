// Tests for the parallel SweepRunner: deterministic ordering and
// bit-identical agreement with serial execution.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "cello/cello.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/policies/explicit_buffers.hpp"
#include "sparse/datasets.hpp"
#include "sparse/generators.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;
using sim::AcceleratorConfig;
using sim::ConfigRegistry;
using sim::Simulator;
using sim::SweepRunner;

/// Two rows over prebuilt DAGs, as the figure drivers build them.
std::vector<sim::Workload> two_workloads() {
  std::vector<sim::Workload> w;
  w.push_back({"cg", "cg",
               std::make_shared<const ir::TensorDag>(
                   workloads::build_cg_dag({9604, 16, 85264, 3, 4})),
               nullptr});
  w.push_back({"gnn", "gnn",
               std::make_shared<const ir::TensorDag>(
                   workloads::build_gnn_dag({1000, 5000, 64, 16})),
               nullptr});
  return w;
}

TEST(Sweep, MatchesSerialRunsBitIdentical) {
  const auto workloads_vec = two_workloads();
  const auto& config_names = ConfigRegistry::table4_names();
  const AcceleratorConfig arch;

  const auto cells =
      SweepRunner(/*threads=*/4).run(workloads_vec, test::configs(config_names), {arch});
  ASSERT_EQ(cells.size(), workloads_vec.size() * config_names.size());

  for (size_t wi = 0; wi < workloads_vec.size(); ++wi) {
    for (size_t ci = 0; ci < config_names.size(); ++ci) {
      // Serial reference: a one-shot run of the same cell.
      const auto serial = test::run(*workloads_vec[wi].dag, config_names[ci], arch);
      const auto& cell = cells[wi * config_names.size() + ci];
      EXPECT_EQ(cell.workload, workloads_vec[wi].name);
      EXPECT_EQ(cell.config, config_names[ci]);
      EXPECT_EQ(cell.metrics.seconds, serial.seconds) << cell.config;
      EXPECT_EQ(cell.metrics.dram_bytes, serial.dram_bytes) << cell.config;
      EXPECT_EQ(cell.metrics.onchip_energy_pj, serial.onchip_energy_pj) << cell.config;
      EXPECT_EQ(cell.metrics.sram_line_accesses, serial.sram_line_accesses) << cell.config;
    }
  }
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  const auto workloads_vec = two_workloads();
  const std::vector<std::string> config_names = {"Flexagon", "Cello", "SCORE+LRU",
                                                 "FLAT+CHORD"};
  const AcceleratorConfig arch;
  const auto configs = test::configs(config_names);
  const auto serial = SweepRunner(/*threads=*/1).run(workloads_vec, configs, {arch});
  const auto parallel = SweepRunner(/*threads=*/5).run(workloads_vec, configs, {arch});
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].workload, parallel[i].workload);
    EXPECT_EQ(serial[i].config, parallel[i].config);
    EXPECT_EQ(serial[i].metrics.seconds, parallel[i].metrics.seconds) << serial[i].config;
    EXPECT_EQ(serial[i].metrics.dram_bytes, parallel[i].metrics.dram_bytes)
        << serial[i].config;
  }
}

TEST(Sweep, SharedMatrixContextIsSafeAcrossThreads) {
  const auto spec = sparse::dataset_by_name("fv1");
  const auto matrix = std::make_shared<const sparse::CsrMatrix>(sparse::instantiate(spec));
  const std::vector<sim::Workload> w{
      {"cg", "cg",
       std::make_shared<const ir::TensorDag>(
           workloads::build_cg_dag({spec.rows, 16, matrix->nnz(), 2, 4})),
       matrix}};
  const AcceleratorConfig arch;
  const std::vector<std::string> config_names = {"Flex+LRU", "Flex+BRRIP", "Cello"};
  const auto cells = SweepRunner(/*threads=*/3).run(w, test::configs(config_names), {arch});
  for (size_t ci = 0; ci < config_names.size(); ++ci) {
    const auto reference = test::run(*w[0].dag, config_names[ci], arch, matrix.get());
    EXPECT_EQ(cells[ci].metrics.dram_bytes, reference.dram_bytes) << config_names[ci];
    EXPECT_EQ(cells[ci].metrics.seconds, reference.seconds) << config_names[ci];
  }
}

// Two rows sharing one DAG but carrying different matrices capture different
// access streams: each row's cache cells must replay its own matrix's stream,
// exactly as a one-shot run of that row does, at any thread count.
TEST(Sweep, SharedDagWithDifferentMatricesMatchesOneShot) {
  const auto spec = sparse::dataset_by_name("fv1");
  const auto fv1 = std::make_shared<const sparse::CsrMatrix>(sparse::instantiate(spec));
  Rng rng(7);
  const auto circuit =
      std::make_shared<const sparse::CsrMatrix>(sparse::make_circuit(spec.rows, fv1->nnz(), rng));
  const auto dag = std::make_shared<const ir::TensorDag>(
      workloads::build_cg_dag({spec.rows, 16, fv1->nnz(), 5, 4}));
  const std::vector<sim::Workload> rows{{"fv1", "cg", dag, fv1}, {"circuit", "cg", dag, circuit}};
  const std::vector<std::string> config_names = {"Flexagon", "Flex+LRU"};
  const auto configs = test::configs(config_names);
  const AcceleratorConfig arch;

  for (u32 threads : {1u, 4u}) {
    const auto cells = SweepRunner(threads).run(rows, configs, {arch});
    ASSERT_EQ(cells.size(), rows.size() * configs.size());
    for (size_t wi = 0; wi < rows.size(); ++wi) {
      const Simulator simulator(arch, rows[wi].matrix.get());
      for (size_t ci = 0; ci < configs.size(); ++ci) {
        const auto oneshot = simulator.run(*dag, configs[ci]);
        const auto& cell = cells[wi * configs.size() + ci];
        const std::string ctx =
            std::to_string(threads) + " threads, " + rows[wi].name + "/" + config_names[ci];
        EXPECT_EQ(cell.metrics.dram_bytes, oneshot.dram_bytes) << ctx;
        EXPECT_EQ(cell.metrics.dram_read_bytes, oneshot.dram_read_bytes) << ctx;
        EXPECT_EQ(cell.metrics.seconds, oneshot.seconds) << ctx;
        EXPECT_EQ(cell.metrics.sram_line_accesses, oneshot.sram_line_accesses) << ctx;
      }
    }
  }
}

// Without a fabric axis a cell runs under the arch as given, so a nodes > 1
// cell takes Simulator::run's multi-node path and equals the one-shot run of
// the same arch.
TEST(Sweep, MultiNodeCellsMatchOneShot) {
  const std::vector<sim::Workload> rows{
      {"cg", "cg",
       std::make_shared<const ir::TensorDag>(workloads::build_cg_dag({2048, 8, 2048 * 9, 2, 4})),
       nullptr}};
  const auto configs = test::configs({"Flexagon", "Cello"});

  AcceleratorConfig single;
  AcceleratorConfig four;
  four.nodes = 4;
  for (const AcceleratorConfig& arch : {single, four}) {
    const auto cells = SweepRunner(/*threads=*/2).run(rows, configs, {arch});
    ASSERT_EQ(cells.size(), configs.size());
    const Simulator simulator(arch);
    for (size_t ci = 0; ci < configs.size(); ++ci) {
      const auto oneshot = simulator.run(*rows[0].dag, configs[ci]);
      const auto& cell = cells[ci];
      const std::string ctx = std::to_string(arch.nodes) + " nodes, " + configs[ci].name;
      ASSERT_TRUE(cell.ok()) << ctx << ": " << cell.error;
      EXPECT_EQ(cell.metrics.nodes, oneshot.nodes) << ctx;
      EXPECT_EQ(cell.metrics.seconds, oneshot.seconds) << ctx;
      EXPECT_EQ(cell.metrics.dram_bytes, oneshot.dram_bytes) << ctx;
      EXPECT_EQ(cell.metrics.noc_bytes, oneshot.noc_bytes) << ctx;
      EXPECT_EQ(cell.metrics.parallel_efficiency, oneshot.parallel_efficiency) << ctx;
    }
    EXPECT_EQ(cells[0].metrics.nodes, arch.nodes);
  }
}

TEST(Sweep, EmptyGridIsEmpty) {
  const AcceleratorConfig arch;
  EXPECT_TRUE(SweepRunner()
                  .run(std::vector<sim::Workload>{}, std::vector<sim::Configuration>{}, {arch})
                  .empty());
}

// A sweep without an arch has no cells to define, even with workloads and
// configurations: it is a caller error, not an empty grid.
TEST(Sweep, EmptyArchListThrows) {
  EXPECT_THROW(SweepRunner(/*threads=*/1)
                   .run(two_workloads(), test::configs({"Cello"}), std::vector<AcceleratorConfig>{}),
               Error);
}

// The arch axis shares one ArtifactCache across archs, so every artifact key
// must carry each arch field its build reads.  Vary one field at a time over
// a gather-heavy CG, an LLM decode, a GNN layer and the ResNet block (the one
// whose routing the hold budget changes) under every registered
// configuration: each cell must serialize exactly as a fresh one-shot run.
TEST(Sweep, ArchAxisMatchesOneShotRuns) {
  const auto rows = test::workloads(
      {"cg:dataset=fv1,iters=2", "llm:layers=1,seq=256,decode_steps=4", "gnn:cora", "resnet"});
  const auto configs = test::configs(ConfigRegistry::global().names());
  std::vector<AcceleratorConfig> archs(10);
  archs[1].dram_bytes_per_sec = 250e9;
  archs[2].sram_bytes = 1ull << 20;
  archs[3].line_bytes = 32;
  archs[4].cache_associativity = 16;
  archs[5].rf_bytes = 512;
  archs[6].hold_budget_bytes = 64 * 1024;
  archs[7].chord_entries = 4;
  archs[8].pipeline_style = sim::PipelineStyle::Sequential;
  archs[9].nodes = 4;
  archs[9].topology = "mesh:2x2";

  std::vector<std::string> expected;
  for (const auto& row : rows) {
    for (const auto& arch : archs) {
      const Simulator simulator(arch, row.matrix.get());
      for (const auto& config : configs) {
        std::string json;
        sim::result_to_json(json, {row.name, config.name, {}, simulator.run(*row.dag, config), {}},
                            0);
        expected.push_back(std::move(json));
      }
    }
  }
  for (u32 threads : {1u, 4u}) {
    const auto cells = SweepRunner(threads).run(rows, configs, archs);
    ASSERT_EQ(cells.size(), expected.size());
    for (size_t cell = 0; cell < cells.size(); ++cell) {
      std::string json;
      sim::result_to_json(json, cells[cell], 0);
      EXPECT_EQ(json, expected[cell]) << threads << " threads, cell " << cell << " (arch "
                                      << cell / configs.size() % archs.size() << ")";
    }
  }
}

// The schedule/address-map cache must be unobservable in the results: a
// spec-driven sweep (shared DAG + one schedule per (workload, policy) pair,
// fanned across threads) must be bit-identical to serial, cache-free
// Simulator::run calls that rebuild the schedule for every single cell.
TEST(Sweep, ScheduleCacheBitIdenticalToCacheFreeSerialRuns) {
  const std::vector<std::string> spec_texts = {
      "cg:m=9604,nnz=85264,n=16,iters=3",  // shape-only, analytic policies
      "spmv:dataset=fv1,iters=4,n=4",      // real matrix: exercises cache traces
      "sddmm:dataset=cora,heads=2",
  };
  // Mixed schedule policies on purpose: OpByOp, AdjacentPipeline and Score
  // rows each share one cached schedule per workload.
  const std::vector<std::string> config_names = {"Flexagon", "Flex+LRU", "FLAT",
                                                 "SET",      "Cello",    "SCORE+BRRIP"};
  const AcceleratorConfig arch;

  const auto cells = SweepRunner(/*threads=*/4)
                         .run(test::workloads(spec_texts), test::configs(config_names), {arch});
  ASSERT_EQ(cells.size(), spec_texts.size() * config_names.size());

  const auto& registry = sim::ConfigRegistry::global();
  for (size_t wi = 0; wi < spec_texts.size(); ++wi) {
    const sim::Workload wl = sim::WorkloadRegistry::global().resolve(spec_texts[wi]);
    const Simulator simulator(arch, wl.matrix.get());
    for (size_t ci = 0; ci < config_names.size(); ++ci) {
      const auto& cell = cells[wi * config_names.size() + ci];
      EXPECT_EQ(cell.workload, wl.name);
      EXPECT_EQ(cell.config, config_names[ci]);
      // Cache-free reference: rebuilds schedule + address map per cell.
      const auto reference = simulator.run(*wl.dag, registry.at(config_names[ci]));
      EXPECT_EQ(cell.metrics.seconds, reference.seconds) << cell.workload << "/" << cell.config;
      EXPECT_EQ(cell.metrics.dram_read_bytes, reference.dram_read_bytes)
          << cell.workload << "/" << cell.config;
      EXPECT_EQ(cell.metrics.dram_write_bytes, reference.dram_write_bytes)
          << cell.workload << "/" << cell.config;
      EXPECT_EQ(cell.metrics.sram_line_accesses, reference.sram_line_accesses)
          << cell.workload << "/" << cell.config;
      EXPECT_EQ(cell.metrics.onchip_energy_pj, reference.onchip_energy_pj)
          << cell.workload << "/" << cell.config;
      EXPECT_EQ(cell.metrics.traffic_by_tensor, reference.traffic_by_tensor)
          << cell.workload << "/" << cell.config;
    }
  }
}

// Resolving the same canonical spec twice must not rebuild: the sweep's rows
// genuinely share one immutable DAG.
TEST(Sweep, SpecResolutionSharesOneDag) {
  auto& registry = sim::WorkloadRegistry::global();
  const auto a = registry.resolve("cg:m=2048,n=8,iters=2");
  const auto b = registry.resolve("cg:m=2048,n=8,iters=2");
  EXPECT_EQ(a.dag.get(), b.dag.get());
  EXPECT_EQ(a.matrix.get(), b.matrix.get());

  // Same workload listed twice: both rows report the canonical name and
  // identical metrics.
  const AcceleratorConfig arch;
  const auto cells = SweepRunner(/*threads=*/2)
                         .run(test::workloads({"cg:m=2048,n=8,iters=2", "cg:m=2048,n=8,iters=2"}),
                              test::configs({"Cello"}), {arch});
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].workload, "cg:iters=2,m=2048,n=8");
  EXPECT_EQ(cells[0].metrics.seconds, cells[1].metrics.seconds);
  EXPECT_EQ(cells[0].metrics.dram_bytes, cells[1].metrics.dram_bytes);
}

// Which worker claims which cell must be invisible in the output: any thread
// count, including counts that don't divide the grid, produces bit-identical
// row-major results.
TEST(Sweep, BitIdenticalAcrossThreadCounts) {
  // 3 workloads x 7 configs = 21 cells, which 2, 5 and 8 threads do not
  // divide.
  const auto specs =
      test::workloads({"cg:m=4096,n=8,iters=2", "gnn:cora", "spmv:dataset=fv1,iters=2"});
  const auto configs = test::configs(
      {"Flexagon", "Flex+LRU", "Flex+BRRIP", "FLAT", "SET", "SCORE+BRRIP", "Cello"});
  const AcceleratorConfig arch;

  const auto reference = SweepRunner(/*threads=*/1).run(specs, configs, {arch});
  ASSERT_EQ(reference.size(), specs.size() * configs.size());
  for (u32 threads : {2u, 3u, 5u, 8u}) {
    const auto cells = SweepRunner(threads).run(specs, configs, {arch});
    ASSERT_EQ(cells.size(), reference.size()) << threads << " threads";
    for (size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(cells[i].workload, reference[i].workload) << threads << " threads cell " << i;
      EXPECT_EQ(cells[i].config, reference[i].config) << threads << " threads cell " << i;
      EXPECT_EQ(cells[i].metrics.seconds, reference[i].metrics.seconds)
          << threads << " threads cell " << i;
      EXPECT_EQ(cells[i].metrics.dram_bytes, reference[i].metrics.dram_bytes)
          << threads << " threads cell " << i;
      EXPECT_EQ(cells[i].metrics.onchip_energy_pj, reference[i].metrics.onchip_energy_pj)
          << threads << " threads cell " << i;
      EXPECT_EQ(cells[i].metrics.traffic_by_tensor, reference[i].metrics.traffic_by_tensor)
          << threads << " threads cell " << i;
    }
  }
}

// A configuration's name is a label, not an identity: two configurations
// sharing one name must each run on their own buffer policy, in a sweep and
// through one caller-owned RunScratch alike.
TEST(Sweep, ConfigurationsSharingANameRunTheirOwnPolicies) {
  const auto rows = test::workloads({"cg:m=4096,n=8,iters=2"});
  auto configs = test::configs({"SCORE+LRU", "SCORE+CHORD"});
  for (auto& config : configs) config.name = "X";
  const AcceleratorConfig arch;
  const Simulator simulator(arch, rows[0].matrix.get());

  const auto cells = SweepRunner(/*threads=*/1).run(rows, configs, {arch});
  ASSERT_EQ(cells.size(), configs.size());
  sim::RunScratch scratch;
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const auto oneshot = simulator.run(*rows[0].dag, configs[ci]);
    sim::RunArtifacts art;
    art.scratch = &scratch;
    const auto shared = simulator.run(*rows[0].dag, configs[ci], art);
    const std::string ctx = std::string(ci == 0 ? "SCORE+LRU" : "SCORE+CHORD") + " as X";
    EXPECT_EQ(cells[ci].metrics.dram_bytes, oneshot.dram_bytes) << ctx;
    EXPECT_EQ(cells[ci].metrics.seconds, oneshot.seconds) << ctx;
    EXPECT_EQ(shared.dram_bytes, oneshot.dram_bytes) << ctx;
    EXPECT_EQ(shared.seconds, oneshot.seconds) << ctx;
  }
  EXPECT_NE(cells[0].metrics.dram_bytes, cells[1].metrics.dram_bytes);
}

TEST(Sweep, CellErrorsPropagateAfterJoin) {
  auto workloads_vec = two_workloads();
  sim::Configuration broken;  // no buffer factory: Simulator::run throws
  broken.name = "broken";
  const AcceleratorConfig arch;
  EXPECT_THROW(SweepRunner(/*threads=*/2).run(workloads_vec, {broken}, {arch}), Error);
}

TEST(Sweep, FirstFailureAbandonsRemainingCells) {
  // A single-threaded sweep whose very first cell throws must not burn the
  // rest of the grid: the failed flag stops the job loop before any of the
  // later (counting) configurations run.
  const auto workloads_vec = two_workloads();
  const AcceleratorConfig arch;

  auto counting_factory = [](std::atomic<int>& counter) {
    return [&counter](const sim::AcceleratorConfig& a) {
      ++counter;
      return sim::explicit_buffers()(a);
    };
  };

  std::atomic<int> runs_after_failure{0};
  std::vector<sim::Configuration> configs;
  sim::Configuration throwing = sim::make_configuration(
      "throws", sim::SchedulePolicy::OpByOp,
      [](const sim::AcceleratorConfig&) -> std::unique_ptr<sim::BufferPolicy> {
        throw Error("injected cell failure");
      },
      "throws");
  configs.push_back(throwing);
  for (int i = 0; i < 4; ++i)
    configs.push_back(sim::make_configuration("count" + std::to_string(i),
                                              sim::SchedulePolicy::OpByOp,
                                              counting_factory(runs_after_failure), "EB"));

  EXPECT_THROW(SweepRunner(/*threads=*/1).run(workloads_vec, configs, {arch}), Error);
  // Job 0 threw; jobs 1..9 must all have been skipped.
  EXPECT_EQ(runs_after_failure.load(), 0);
}

}  // namespace
