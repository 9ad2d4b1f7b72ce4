// sim::ArtifactCache: the one place the immutable per-DAG run artifacts are
// built — address map, SCORE schedule, reuse index (CHORD's next-use oracle),
// router tables, captured access stream and multi-node partition — plus the
// 1-node baseline a multi-node run folds against.
//
// Every artifact is built lazily, once per key, on first request, and then
// shared read-only by every later request for the same key:
//
//   AddressMap       per DAG
//   Schedule         per (DAG, schedule options)
//   ReuseIndex       per (DAG, schedule, address map)
//   RouterTables     per (DAG, schedule, RouteKey)
//   AccessStream     per (DAG, schedule, address map, router tables, RouteKey,
//                    matrix)
//   Partition        per (DAG, nodes)
//   baseline seconds per (DAG, matrix, configuration, 1-node arch)
//
// RouteKey holds only the routing policy and the arch fields routing and
// capture read, so archs differing in bandwidth or SRAM size share them.
//
// A derived artifact is keyed by the addresses of the artifacts it is built
// from, so it is always derived from exactly the objects passed in: the
// cache's own, or ones a caller supplied.  Simulator::run fills every
// artifact its caller left null from a cache — a private one per one-shot
// call, or the one SweepRunner shares across a whole sweep call, where every
// input is the cache's own, so configurations differing only in their buffer
// policy reuse one schedule and the cache presets replay one stream.
// Thread-safe: a key is built outside any cache-wide lock, so distinct keys
// build concurrently while later requests for a key under construction wait
// for it.  A build that throws is remembered, and every request for its key —
// the first included — throws cello::Error carrying the build's own message.
// Keys hold the addresses of DAGs, matrices, configurations and input
// artifacts, so those must outlive the cache.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "ir/dag.hpp"
#include "score/reuse_index.hpp"
#include "score/schedule.hpp"
#include "sim/access_stream.hpp"
#include "sim/address_map.hpp"
#include "sim/config.hpp"
#include "sim/configuration.hpp"
#include "sim/partition.hpp"
#include "sim/policies/schedule_policy.hpp"
#include "sparse/csr.hpp"

namespace cello::sim {

class ArtifactCache {
 public:
  /// Everything RouterTables::build and AccessStream::capture read beyond
  /// the DAG, schedule, address map and matrix: the configuration's routing
  /// policy and the three arch fields routing and capture consult.
  /// Configurations sharing a schedule (FLAT and Cello) can still route
  /// differently; archs differing only elsewhere (bandwidth, SRAM size)
  /// share tables and streams.
  struct RouteKey {
    SchedulePolicy policy = SchedulePolicy::OpByOp;
    bool allow_delayed_hold = false;
    Bytes hold_budget_bytes = 0;
    u32 line_bytes = 0;
    Bytes rf_bytes = 0;

    /// The key of `config` running on its effective arch `arch`.
    static RouteKey of(const Configuration& config, const AcceleratorConfig& arch);
    /// An arch carrying the key's fields, every other field at its default:
    /// what the builds see, so they depend on nothing outside the key.
    AcceleratorConfig arch() const;
    auto operator<=>(const RouteKey&) const = default;
  };

  const AddressMap& address_map(const ir::TensorDag& dag);
  const score::Schedule& schedule(const ir::TensorDag& dag, const score::ScheduleOptions& opts);
  const score::ReuseIndex& reuse_index(const ir::TensorDag& dag, const score::Schedule& sched,
                                       const AddressMap& map);
  const RouterTables& router_tables(const ir::TensorDag& dag, const score::Schedule& sched,
                                    const RouteKey& key);
  /// The stream of `dag` routed by `tables` under `key`, with `matrix` (may
  /// be null) resolving its gathers — rows sharing a DAG but not a matrix
  /// capture different streams.
  const AccessStream& access_stream(const ir::TensorDag& dag, const score::Schedule& sched,
                                    const AddressMap& map, const RouterTables& tables,
                                    const RouteKey& key, const sparse::CsrMatrix* matrix);
  const Partition& partition(const ir::TensorDag& dag, i64 nodes);

  /// Seconds of the 1-node baseline of (dag, matrix, config) under `arch`,
  /// computed by `simulate` on the first request only.
  double baseline_seconds(const ir::TensorDag& dag, const sparse::CsrMatrix* matrix,
                          const Configuration& config, const AcceleratorConfig& arch,
                          const std::function<double()>& simulate);

 private:
  /// Build-once slots by key (see the header comment for the semantics).
  template <class Key, class Value>
  class Slots {
   public:
    template <class Build>
    const Value& get(const Key& key, Build&& build) {
      Slot* slot;
      {
        std::lock_guard<std::mutex> lock(mu_);
        slot = &slots_[key];  // map nodes never move
      }
      std::lock_guard<std::mutex> lock(slot->mu);
      if (!slot->done) {
        try {
          slot->value.emplace(build());
        } catch (const std::exception& e) {
          slot->error = e.what();
        }
        slot->done = true;
      }
      if (!slot->value) throw Error(slot->error);
      return *slot->value;
    }

   private:
    struct Slot {
      std::mutex mu;
      bool done = false;
      std::optional<Value> value;
      std::string error;  ///< the failed build's message
    };
    std::mutex mu_;
    std::map<Key, Slot> slots_;
  };

  using Dag = const ir::TensorDag*;
  using Sched = const score::Schedule*;
  using Map = const AddressMap*;

  Slots<Dag, AddressMap> maps_;
  Slots<std::pair<Dag, score::ScheduleOptions>, score::Schedule> schedules_;
  Slots<std::tuple<Dag, Sched, Map>, score::ReuseIndex> reuse_;
  Slots<std::tuple<Dag, Sched, RouteKey>, RouterTables> tables_;
  Slots<std::tuple<Dag, Sched, Map, const RouterTables*, RouteKey, const sparse::CsrMatrix*>,
        AccessStream>
      streams_;
  Slots<std::pair<Dag, i64>, Partition> partitions_;
  Slots<std::tuple<Dag, const sparse::CsrMatrix*, const Configuration*, AcceleratorConfig>,
        double>
      baselines_;
};

}  // namespace cello::sim
