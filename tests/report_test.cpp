// Tests for the per-op / per-tensor reporting layer.
#include <gtest/gtest.h>

#include "sim/report.hpp"
#include "workloads/cg.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;

sim::RunMetrics cg_metrics(const std::string& config) {
  const auto dag = workloads::build_cg_dag({9604, 16, 85264, 3, 4});
  return test::run(dag, config, sim::AcceleratorConfig{});
}

TEST(Report, PerOpRowsCoverEveryStep) {
  const auto m = cg_metrics("Cello");
  EXPECT_EQ(m.per_op.size(), 24u);  // 8 ops x 3 iterations
  i64 macs = 0;
  Bytes dram = 0;
  for (const auto& r : m.per_op) {
    macs += r.macs;
    dram += r.dram_bytes;
  }
  EXPECT_EQ(macs, m.total_macs);
  // Per-op rows cover all traffic except the end-of-run drains.
  EXPECT_LE(dram, m.dram_bytes);
  EXPECT_GE(dram + 1024 * 1024, m.dram_bytes);
}

TEST(Report, CacheConfigAlsoFillsPerOp) {
  const auto m = cg_metrics("Flex+LRU");
  EXPECT_EQ(m.per_op.size(), 24u);
}

TEST(Report, PerOpReportRendersBoundColumn) {
  const auto m = cg_metrics("Flexagon");
  const auto text = sim::per_op_report(m, sim::AcceleratorConfig{});
  EXPECT_NE(text.find("memory"), std::string::npos);
  EXPECT_NE(text.find("1@1"), std::string::npos);
}

TEST(Report, PerOpReportTruncates) {
  const auto m = cg_metrics("Flexagon");
  const auto text = sim::per_op_report(m, sim::AcceleratorConfig{}, 4);
  EXPECT_NE(text.find("more ops"), std::string::npos);
}

TEST(Report, PerTensorSharesSumBelowHundred) {
  const auto m = cg_metrics("Cello");
  const auto text = sim::per_tensor_report(m);
  EXPECT_NE(text.find("%"), std::string::npos);
  EXPECT_NE(text.find("A"), std::string::npos);  // the sparse matrix appears
}

}  // namespace
