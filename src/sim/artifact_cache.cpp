#include "sim/artifact_cache.hpp"

namespace cello::sim {

ArtifactCache::RouteKey ArtifactCache::RouteKey::of(const Configuration& config,
                                                    const AcceleratorConfig& arch) {
  return {config.schedule, config.allow_delayed_hold, arch.hold_budget_bytes, arch.line_bytes,
          arch.rf_bytes};
}

AcceleratorConfig ArtifactCache::RouteKey::arch() const {
  AcceleratorConfig a;
  a.hold_budget_bytes = hold_budget_bytes;
  a.line_bytes = line_bytes;
  a.rf_bytes = rf_bytes;
  return a;
}

const AddressMap& ArtifactCache::address_map(const ir::TensorDag& dag) {
  return maps_.get(&dag, [&] { return AddressMap::build(dag); });
}

const score::Schedule& ArtifactCache::schedule(const ir::TensorDag& dag,
                                               const score::ScheduleOptions& opts) {
  return schedules_.get({&dag, opts}, [&] { return score::build_schedule(dag, opts); });
}

const score::ReuseIndex& ArtifactCache::reuse_index(const ir::TensorDag& dag,
                                                    const score::Schedule& sched,
                                                    const AddressMap& map) {
  return reuse_.get({&dag, &sched, &map}, [&] {
    return score::ReuseIndex::build(dag, sched, map.base_of, map.entries.size());
  });
}

const RouterTables& ArtifactCache::router_tables(const ir::TensorDag& dag,
                                                 const score::Schedule& sched,
                                                 const RouteKey& key) {
  return tables_.get({&dag, &sched, key}, [&] {
    return RouterTables::build(dag, sched, key.policy, key.allow_delayed_hold, key.arch());
  });
}

const AccessStream& ArtifactCache::access_stream(const ir::TensorDag& dag,
                                                 const score::Schedule& sched,
                                                 const AddressMap& map,
                                                 const RouterTables& tables, const RouteKey& key,
                                                 const sparse::CsrMatrix* matrix) {
  return streams_.get({&dag, &sched, &map, &tables, key, matrix}, [&] {
    const Router router(dag, sched, key.policy, tables);
    return AccessStream::capture(dag, sched, map, matrix, key.arch(), router);
  });
}

const Partition& ArtifactCache::partition(const ir::TensorDag& dag, i64 nodes) {
  return partitions_.get({&dag, nodes}, [&] { return build_partition(dag, nodes); });
}

double ArtifactCache::baseline_seconds(const ir::TensorDag& dag, const sparse::CsrMatrix* matrix,
                                       const Configuration& config,
                                       const AcceleratorConfig& arch,
                                       const std::function<double()>& simulate) {
  return baselines_.get({&dag, matrix, &config, arch}, simulate);
}

}  // namespace cello::sim
