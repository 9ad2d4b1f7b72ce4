// End-to-end smoke: build CG, schedule with SCORE, run all configurations.
#include <gtest/gtest.h>

#include "cello/cello.hpp"
#include "test_helpers.hpp"

namespace {

TEST(Smoke, CgRunsAllConfigs) {
  cello::workloads::CgShape shape;
  shape.m = 9604;
  shape.n = 16;
  shape.nnz = 85264;
  shape.iterations = 3;
  const auto dag = cello::workloads::build_cg_dag(shape);
  cello::sim::AcceleratorConfig arch;
  ASSERT_EQ(cello::sim::ConfigRegistry::table4_names().size(), 7u);
  for (const std::string& name : cello::sim::ConfigRegistry::table4_names()) {
    const auto m = cello::test::run(dag, name, arch);
    EXPECT_GT(m.seconds, 0.0) << name;
    EXPECT_GT(m.total_macs, 0) << name;
  }
}

}  // namespace
