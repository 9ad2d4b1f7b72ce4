// Tests for the composable policy API: Configuration, ConfigRegistry,
// Simulator — name lookup, preset order, and novel policy combinations
// beyond the seven Table IV presets.  The presets' metrics are pinned by
// tests/goldens/table4_metrics.txt (metrics_golden_test).
#include <gtest/gtest.h>

#include <algorithm>

#include "cello/cello.hpp"
#include "common/error.hpp"
#include "sim/policies/cache_policy.hpp"
#include "sim/policies/chord_policy.hpp"
#include "sim/policies/explicit_buffers.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"

namespace {

using namespace cello;
using sim::AcceleratorConfig;
using sim::ConfigRegistry;
using sim::Configuration;
using sim::SchedulePolicy;
using sim::Simulator;

TEST(Registry, LookupIsNormalized) {
  const auto& registry = ConfigRegistry::global();
  EXPECT_NE(registry.find("cello"), nullptr);
  EXPECT_NE(registry.find("FLEXAGON"), nullptr);
  EXPECT_NE(registry.find("flex+lru"), nullptr);
  EXPECT_NE(registry.find("flexlru"), nullptr);
  EXPECT_NE(registry.find("prelude-only"), nullptr);
  EXPECT_EQ(registry.find("no-such-config"), nullptr);
  EXPECT_THROW(registry.at("no-such-config"), Error);
}

TEST(Registry, ScoreChordAliasResolvesToCello) {
  const auto& registry = ConfigRegistry::global();
  const Configuration* alias = registry.find("score+chord");
  ASSERT_NE(alias, nullptr);
  EXPECT_EQ(alias, registry.find("Cello"));
  // Aliases are lookup-only: names() still lists each configuration once.
  const auto names = registry.names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "Cello"), 1);
  EXPECT_EQ(std::count(names.begin(), names.end(), "SCORE+CHORD"), 0);
}

TEST(Registry, Table4NamesComeFirstInPaperOrder) {
  const auto names = ConfigRegistry::global().names();
  const auto& table4 = ConfigRegistry::table4_names();
  ASSERT_GE(names.size(), table4.size());
  for (size_t i = 0; i < table4.size(); ++i) EXPECT_EQ(names[i], table4[i]);
  EXPECT_EQ(table4.front(), "Flexagon");
  EXPECT_EQ(table4.back(), "Cello");
}

TEST(Registry, RejectsDuplicatesAndMissingFactories) {
  ConfigRegistry registry;  // fresh, preset-populated
  EXPECT_THROW(registry.add(registry.at("Cello")), Error);
  Configuration no_factory;
  no_factory.name = "broken";
  EXPECT_THROW(registry.add(no_factory), Error);
}

TEST(NovelCombos, ScoreWithLruRunsEndToEnd) {
  // SCORE scheduling over an implicit LRU cache, beyond Table IV.  Pipelined
  // edges bypass the cache, so traffic can only drop relative to the
  // op-by-op cache baseline.
  const auto dag = workloads::build_gnn_dag({2708, 9464, 1433, 7});
  const AcceleratorConfig arch;
  const Simulator simulator(arch);
  const auto score_lru = simulator.run(dag, ConfigRegistry::global().at("SCORE+LRU"));
  const auto flex_lru = simulator.run(dag, ConfigRegistry::global().at("Flex+LRU"));
  EXPECT_GT(score_lru.total_macs, 0);
  EXPECT_GT(score_lru.seconds, 0.0);
  EXPECT_GT(score_lru.dram_bytes, 0u);
  EXPECT_LE(score_lru.dram_bytes, flex_lru.dram_bytes);
}

TEST(NovelCombos, FlatWithChordRunsEndToEnd) {
  // Adjacent pipelining over a CHORD buffer: pipelined feature maps stay in
  // the pipeline buffer, everything else enjoys CHORD reuse — so it cannot
  // move more bytes than the op-by-op PRELUDE/CHORD hierarchy alone.
  const auto dag = workloads::build_cg_dag({81920, 16, 327680, 5, 4});
  const AcceleratorConfig arch;
  const Simulator simulator(arch);
  const auto flat_chord = simulator.run(dag, ConfigRegistry::global().at("FLAT+CHORD"));
  const auto flexagon = simulator.run(dag, ConfigRegistry::global().at("Flexagon"));
  EXPECT_GT(flat_chord.dram_bytes, 0u);
  EXPECT_LT(flat_chord.dram_bytes, flexagon.dram_bytes);
  EXPECT_EQ(flat_chord.dram_bytes, flat_chord.dram_read_bytes + flat_chord.dram_write_bytes);
}

TEST(NovelCombos, UserDefinedConfigurationViaMakeConfiguration) {
  const auto dag = workloads::build_gnn_dag({1000, 5000, 64, 16});
  const AcceleratorConfig arch;
  const auto mine = sim::make_configuration("mine", SchedulePolicy::Score, sim::brrip_cache(),
                                            "BRRIP", /*allow_delayed_hold=*/true);
  const auto m = Simulator(arch).run(dag, mine);
  EXPECT_GT(m.total_macs, 0);
  EXPECT_GT(m.dram_bytes, 0u);
}

TEST(NovelCombos, UserRegistrationIsLookupable) {
  ConfigRegistry registry;
  registry.add(sim::make_configuration("My-Combo", SchedulePolicy::AdjacentPipeline,
                                       sim::prelude_only(), "PRELUDE"));
  ASSERT_NE(registry.find("my-combo"), nullptr);
  EXPECT_EQ(registry.find("MY COMBO"), registry.find("My-Combo"));
}

TEST(Simulator, UnknownNameThrowsWithListing) {
  EXPECT_THROW(ConfigRegistry::global().at("definitely-not-registered"), Error);
}

}  // namespace
