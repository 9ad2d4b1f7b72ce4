// Tests for sim::ArtifactCache: every artifact is built once per key and
// shared (also under concurrent first requests), keys are exactly as fine as
// the builds they stand for, and a failed build rethrows its own message to
// every caller.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/artifact_cache.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "sparse/generators.hpp"
#include "workloads/cg.hpp"

namespace {

using namespace cello;
using sim::AcceleratorConfig;
using sim::ArtifactCache;
using sim::Configuration;
using sim::Simulator;

/// The routing key Simulator::run resolves a configuration to.
ArtifactCache::RouteKey route_key(const Simulator& simulator, const Configuration& config) {
  return ArtifactCache::RouteKey::of(config, simulator.effective_arch(config));
}

struct Fixture {
  ir::TensorDag dag = workloads::build_cg_dag({2048, 8, 2048 * 9, 2, 4});
  std::unique_ptr<sparse::CsrMatrix> matrix_a = make(1);
  std::unique_ptr<sparse::CsrMatrix> matrix_b = make(2);

  static std::unique_ptr<sparse::CsrMatrix> make(u64 seed) {
    Rng rng(seed);
    return std::make_unique<sparse::CsrMatrix>(sparse::make_circuit(2048, 2048 * 9, rng));
  }
};

/// Addresses of every artifact one Flex+LRU run resolves.
struct Resolved {
  const void* map = nullptr;
  const void* schedule = nullptr;
  const void* reuse = nullptr;
  const void* tables = nullptr;
  const void* stream = nullptr;
  bool operator==(const Resolved&) const = default;
};

Resolved resolve(ArtifactCache& cache, const ir::TensorDag& dag, const Simulator& simulator,
                 const Configuration& config, const sparse::CsrMatrix* matrix) {
  const ArtifactCache::RouteKey key = route_key(simulator, config);
  const score::Schedule& sched = cache.schedule(dag, simulator.schedule_options(config));
  const sim::AddressMap& map = cache.address_map(dag);
  const sim::RouterTables& tables = cache.router_tables(dag, sched, key);
  Resolved r;
  r.schedule = &sched;
  r.map = &map;
  r.tables = &tables;
  r.stream = &cache.access_stream(dag, sched, map, tables, key, matrix);
  r.reuse = &cache.reuse_index(dag, sched, map);
  return r;
}

TEST(ArtifactCache, ConcurrentFirstRequestsBuildOnce) {
  const Fixture f;
  const Simulator simulator(AcceleratorConfig{}, f.matrix_a.get());
  const Configuration& config = sim::ConfigRegistry::global().at("Flex+LRU");
  ArtifactCache cache;

  constexpr int kThreads = 8;
  std::vector<Resolved> seen(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back(
        [&, t] { seen[t] = resolve(cache, f.dag, simulator, config, f.matrix_a.get()); });
  for (auto& th : pool) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]) << "thread " << t;

  // The built stream is the one a fresh capture produces.
  ArtifactCache fresh;
  const Resolved again = resolve(fresh, f.dag, simulator, config, f.matrix_a.get());
  EXPECT_EQ(static_cast<const sim::AccessStream*>(seen[0].stream)->fingerprint(),
            static_cast<const sim::AccessStream*>(again.stream)->fingerprint());
}

TEST(ArtifactCache, StreamKeyIncludesTheMatrix) {
  const Fixture f;
  const Simulator simulator(AcceleratorConfig{});
  const Configuration& config = sim::ConfigRegistry::global().at("Flex+LRU");
  const auto key = route_key(simulator, config);
  ArtifactCache cache;
  const score::Schedule& sched = cache.schedule(f.dag, simulator.schedule_options(config));
  const sim::AddressMap& map = cache.address_map(f.dag);
  const sim::RouterTables& tables = cache.router_tables(f.dag, sched, key);
  const sim::AccessStream& a =
      cache.access_stream(f.dag, sched, map, tables, key, f.matrix_a.get());
  const sim::AccessStream& b =
      cache.access_stream(f.dag, sched, map, tables, key, f.matrix_b.get());
  EXPECT_NE(&a, &b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(&a, &cache.access_stream(f.dag, sched, map, tables, key, f.matrix_a.get()));
  // Everything upstream of the gather resolution is shared.
  EXPECT_EQ(&tables, &cache.router_tables(f.dag, sched, key));
}

TEST(ArtifactCache, FlatAndCelloShareTheScheduleButNotTheRouterTables) {
  const Fixture f;
  const Simulator simulator(AcceleratorConfig{});
  const auto& registry = sim::ConfigRegistry::global();
  const Configuration& flat = registry.at("FLAT");
  const Configuration& cello = registry.at("Cello");
  ArtifactCache cache;
  ASSERT_EQ(simulator.schedule_options(flat), simulator.schedule_options(cello));
  const score::Schedule& sched = cache.schedule(f.dag, simulator.schedule_options(flat));
  EXPECT_EQ(&sched, &cache.schedule(f.dag, simulator.schedule_options(cello)));
  EXPECT_NE(&cache.router_tables(f.dag, sched, route_key(simulator, flat)),
            &cache.router_tables(f.dag, sched, route_key(simulator, cello)));

  // Op-by-op (Flexagon) schedules separately.
  EXPECT_NE(&cache.schedule(f.dag, simulator.schedule_options(registry.at("Flexagon"))), &sched);
}

TEST(ArtifactCache, ArchsDifferingOnlyOutsideRoutingShareTablesAndStreams) {
  // Bandwidth and SRAM size are read by neither routing nor capture.
  const Fixture f;
  const Configuration& config = sim::ConfigRegistry::global().at("Flex+LRU");
  AcceleratorConfig slow;
  slow.dram_bytes_per_sec = 250e9;
  AcceleratorConfig big = slow;
  big.dram_bytes_per_sec = 1e12;
  big.sram_bytes = 16ull * 1024 * 1024;
  const Simulator a(slow, f.matrix_a.get());
  const Simulator b(big, f.matrix_a.get());
  ASSERT_NE(a.effective_arch(config), b.effective_arch(config));
  ArtifactCache cache;
  EXPECT_EQ(resolve(cache, f.dag, a, config, f.matrix_a.get()),
            resolve(cache, f.dag, b, config, f.matrix_a.get()));

  // A field routing reads still splits them.
  AcceleratorConfig wide = slow;
  wide.line_bytes = 64;
  const Resolved base = resolve(cache, f.dag, a, config, f.matrix_a.get());
  const Resolved other = resolve(cache, f.dag, Simulator(wide), config, f.matrix_a.get());
  EXPECT_NE(other.tables, base.tables);
  EXPECT_NE(other.stream, base.stream);
}

TEST(ArtifactCache, DerivesFromTheScheduleItIsHanded) {
  // A caller-supplied schedule keys its own reuse index, router tables and
  // stream: nothing is derived from a schedule the cache built itself.
  const Fixture f;
  const Simulator simulator(AcceleratorConfig{}, f.matrix_a.get());
  const Configuration& config = sim::ConfigRegistry::global().at("Flex+LRU");
  const auto key = route_key(simulator, config);
  ArtifactCache cache;
  const score::Schedule mine = score::build_schedule(f.dag, simulator.schedule_options(config));
  const score::Schedule& cached = cache.schedule(f.dag, simulator.schedule_options(config));
  const sim::AddressMap& map = cache.address_map(f.dag);

  const score::ReuseIndex& reuse = cache.reuse_index(f.dag, mine, map);
  EXPECT_EQ(&reuse, &cache.reuse_index(f.dag, mine, map));
  EXPECT_NE(&reuse, &cache.reuse_index(f.dag, cached, map));

  const sim::RouterTables& tables = cache.router_tables(f.dag, mine, key);
  EXPECT_NE(&tables, &cache.router_tables(f.dag, cached, key));
  const sim::AccessStream& stream =
      cache.access_stream(f.dag, mine, map, tables, key, f.matrix_a.get());
  EXPECT_EQ(stream.schedule_steps, mine.steps.size());
  // Equal schedules still derive equal artifacts.
  EXPECT_EQ(stream.fingerprint(),
            cache
                .access_stream(f.dag, cached, map, cache.router_tables(f.dag, cached, key), key,
                               f.matrix_a.get())
                .fingerprint());
}

TEST(ArtifactCache, FailedPartitionRethrowsItsMessageToEveryCaller) {
  // m = 8 cannot be split over 16 nodes.
  const ir::TensorDag dag = workloads::build_cg_dag({8, 2, 32, 1, 4});
  ArtifactCache cache;
  constexpr int kThreads = 8;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      try {
        cache.partition(dag, 16);
      } catch (const Error& e) {
        errors[t] = e.what();
      }
    });
  for (auto& th : pool) th.join();
  EXPECT_NE(errors[0].find("16 nodes exceed the shard rank 'm' extent 8"), std::string::npos)
      << errors[0];
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(errors[t], errors[0]) << "thread " << t;
  // Later requests see the same failure; other keys are unaffected.
  try {
    cache.partition(dag, 16);
    ADD_FAILURE() << "a failed build must keep failing";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), errors[0]);
  }
  EXPECT_EQ(cache.partition(dag, 4).nodes, 4);
}

}  // namespace
