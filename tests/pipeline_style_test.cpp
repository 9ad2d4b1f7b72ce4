// Table IV footnote: Sequential Pipeline vs Parallel Pipeline changes timing
// (no concurrent stage overlap) but never DRAM traffic.
#include <gtest/gtest.h>

#include "workloads/gnn.hpp"
#include "workloads/resnet.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;
using sim::AcceleratorConfig;
using sim::PipelineStyle;

TEST(PipelineStyle, TrafficIdenticalTimingDiffers) {
  const auto dag = workloads::build_resnet_block_dag({});
  AcceleratorConfig pp, sp;
  pp.dram_bytes_per_sec = sp.dram_bytes_per_sec = 250e9;
  sp.pipeline_style = PipelineStyle::Sequential;
  for (auto config : {"FLAT", "SET", "Cello"}) {
    const auto a = test::run(dag, config, pp);
    const auto b = test::run(dag, config, sp);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes) << config;
    EXPECT_LE(a.seconds, b.seconds) << config;
  }
}

TEST(PipelineStyle, NoEffectOnOpByOpConfigs) {
  const auto dag = workloads::build_gnn_dag({1000, 5000, 64, 16});
  AcceleratorConfig pp, sp;
  sp.pipeline_style = PipelineStyle::Sequential;
  const auto a = test::run(dag, "Flexagon", pp);
  const auto b = test::run(dag, "Flexagon", sp);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
}

TEST(PipelineStyle, SequentialStillBeatsFlexagonViaTraffic) {
  // Even without stage overlap, the traffic elimination alone wins (the
  // paper's note: SP "does not impact the DRAM accesses").
  const auto dag = workloads::build_gnn_dag({2708, 9464, 1433, 7});
  AcceleratorConfig sp;
  sp.pipeline_style = PipelineStyle::Sequential;
  const auto flex = test::run(dag, "Flexagon", sp);
  const auto flat = test::run(dag, "FLAT", sp);
  EXPECT_LT(flat.seconds, flex.seconds);
}

}  // namespace
