#include "sim/simulator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/types.hpp"
#include "noc/topology.hpp"
#include "sim/access_stream.hpp"
#include "sim/address_map.hpp"
#include "sim/artifact_cache.hpp"
#include "sim/partition.hpp"
#include "sim/policies/buffer_policy.hpp"
#include "sim/policies/schedule_policy.hpp"
#include "trace/trace.hpp"

namespace cello::sim {

namespace {

using score::Schedule;

// Track layout of a traced run: one pid, fixed tid lanes.
constexpr i32 kTracePid = 0;
constexpr i32 kScheduleTid = 0;  ///< per-step compute spans
constexpr i32 kDramTid = 1;      ///< per-group DRAM spans + end-of-run drain
constexpr i32 kBufferTid = 2;    ///< buffer-occupancy counter samples
constexpr i32 kNocTid = 3;       ///< multi-node collective spans

/// Per-step observations collected (only when a sink is armed) during the
/// loop and replayed into events once the group times are final — a group's
/// duration is max(compute, dram) and is only known when the group closes.
struct TraceStep {
  i32 group = 0;
  Bytes dram = 0;       ///< DRAM bytes this step moved
  Bytes occupancy = 0;  ///< policy occupancy after the step retired its inputs
};

/// Serialize one single-chip run: per-step compute spans laid back-to-back
/// inside their pipeline group on the schedule track, one aggregated DRAM
/// span per group (the model prices DRAM per group, not per op), occupancy
/// counter samples at each step's compute end, and the end-of-run drain.
void emit_run_trace(trace::TraceSink& sink, const ir::TensorDag& dag, const Schedule& sched,
                    const AcceleratorConfig& arch, const std::vector<TraceStep>& steps,
                    const std::vector<double>& group_compute,
                    const std::vector<double>& group_dram, bool drained, Bytes drained_bytes,
                    Bytes final_occupancy) {
  sink.track(kTracePid, kScheduleTid, "cello-sim", "schedule");
  sink.track(kTracePid, kDramTid, "cello-sim", "dram");
  sink.track(kTracePid, kBufferTid, "cello-sim", "buffer");

  // Groups serialize; within a group compute and DRAM overlap, so group g
  // starts at the sum of max(compute, dram) over the groups before it.
  std::vector<double> gstart(group_compute.size() + 1, 0.0);
  for (size_t g = 0; g < group_compute.size(); ++g)
    gstart[g + 1] = gstart[g] + std::max(group_compute[g], group_dram[g]);

  std::vector<Bytes> gbytes(group_compute.size(), 0);
  i32 cur = -1;
  double cursor = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    const TraceStep& ts = steps[i];
    if (ts.group != cur) {
      cur = ts.group;
      cursor = gstart[cur];
    }
    gbytes[cur] += ts.dram;
    const ir::EinsumOp& op = dag.op(sched.steps[i].op);
    const double dur = arch.compute_seconds(op.macs());
    sink.span(kTracePid, kScheduleTid, op.name, cursor, dur,
              {trace::arg("step", static_cast<u64>(i)), trace::arg("group", i64{cur}),
               trace::arg("macs", op.macs()), trace::arg("dram_bytes", ts.dram)});
    cursor += dur;
    sink.counter(kTracePid, kBufferTid, "buffer_occupancy", cursor, ts.occupancy);
  }

  // The drain, when present, is the one trailing group without steps.
  const size_t run_groups = group_compute.size() - (drained ? 1 : 0);
  for (size_t g = 0; g < run_groups; ++g)
    if (group_dram[g] > 0)
      sink.span(kTracePid, kDramTid, "dram", gstart[g], group_dram[g],
                {trace::arg("group", static_cast<u64>(g)), trace::arg("bytes", gbytes[g])});
  if (drained)
    sink.span(kTracePid, kDramTid, "drain", gstart[run_groups], group_dram[run_groups],
              {trace::arg("bytes", drained_bytes)});
  sink.counter(kTracePid, kBufferTid, "buffer_occupancy", gstart[group_compute.size()],
               final_occupancy);
}

/// Emit the NoC collective span of a folded multi-node run onto `sink`'s noc
/// track: the routed collectives occupy [per_node_seconds, per_node_seconds +
/// folded.noc_seconds).
void trace_collectives(trace::TraceSink& sink, const RunMetrics& folded,
                       double per_node_seconds) {
  sink.track(kTracePid, kNocTid, "cello-sim", "noc");
  sink.span(kTracePid, kNocTid, "collectives", per_node_seconds, folded.noc_seconds,
            {trace::arg("nodes", folded.nodes), trace::arg("noc_bytes", folded.noc_bytes),
             trace::arg("max_link_utilization", folded.max_link_utilization)});
}

}  // namespace

// Out-of-line so the header can hold BufferPolicy by forward declaration.
RunScratch::RunScratch() = default;
RunScratch::~RunScratch() = default;
RunScratch::RunScratch(RunScratch&&) noexcept = default;
RunScratch& RunScratch::operator=(RunScratch&&) noexcept = default;

AcceleratorConfig Simulator::effective_arch(const Configuration& config) const {
  AcceleratorConfig arch = arch_;
  if (config.pipeline_style) arch.pipeline_style = *config.pipeline_style;
  if (config.hold_budget_bytes) arch.hold_budget_bytes = *config.hold_budget_bytes;
  if (config.nodes) arch.nodes = *config.nodes;
  if (config.topology) arch.topology = *config.topology;
  return arch;
}

score::ScheduleOptions Simulator::schedule_options(const Configuration& config) const {
  const AcceleratorConfig arch = effective_arch(config);
  score::ScheduleOptions opts;
  opts.rf_bytes = arch.rf_bytes;
  opts.enable_pipelining = config.schedule != SchedulePolicy::OpByOp;
  return opts;
}

RunMetrics Simulator::run(const ir::TensorDag& dag, const Configuration& config,
                          const RunArtifacts& artifacts) const {
  ArtifactCache cache;
  return run(dag, config, artifacts, cache);
}

RunMetrics Simulator::run(const ir::TensorDag& dag, const Configuration& config,
                          const RunArtifacts& artifacts, ArtifactCache& cache) const {
  const AcceleratorConfig arch = effective_arch(config);
  if (arch.nodes > 1) {
    // Multi-chip path (Sec. V-B): shard the dominant rank, run one node's
    // slice through the exact single-chip machinery, then fold NoC traffic
    // and the 1-node baseline into whole-system metrics.  Any sparse-matrix
    // context describes the full workload; the shard run keeps it as an
    // approximation of one node's slice of the sparsity structure.  The
    // partition, the shard's artifacts and the baseline all come from
    // `cache`, so a sweep builds each once across its fabric cells.
    CELLO_CHECK_MSG(artifacts.schedule == nullptr && artifacts.address_map == nullptr &&
                        artifacts.reuse_index == nullptr && artifacts.router_tables == nullptr &&
                        artifacts.access_stream == nullptr,
                    "prebuilt artifacts describe one DAG and are single-chip; multi-node runs "
                    "build per-node shard artifacts themselves");
    const noc::Topology topo =
        noc::Topology::build(noc::resolve_topology(arch.topology, arch.nodes));
    const Partition& part = cache.partition(dag, arch.nodes);
    // Every fabric's shard and baseline run on the same single chip, so
    // fabrics with equal node counts share them.
    AcceleratorConfig single = arch;
    single.nodes = 1;
    single.topology = noc::TopologySpec{}.to_string();
    Configuration inner = config;
    inner.nodes.reset();
    inner.topology.reset();
    const Simulator node_sim(single, matrix_);
    // The node's shard run carries the trace; the 1-node baseline stays
    // untraced (its only contribution is the parallel-efficiency scalar).
    RunArtifacts node_artifacts;
    node_artifacts.scratch = artifacts.scratch;
    node_artifacts.trace = artifacts.trace;
    const RunMetrics per_node = node_sim.run(part.shard, inner, node_artifacts, cache);
    node_artifacts.trace = nullptr;
    const double baseline = cache.baseline_seconds(dag, matrix_, config, single, [&] {
      return node_sim.run(dag, inner, node_artifacts, cache).seconds;
    });
    RunMetrics folded = fold_multinode(per_node, baseline, part, topo, arch);
    if (artifacts.trace != nullptr) trace_collectives(*artifacts.trace, folded, per_node.seconds);
    return folded;
  }
  CELLO_CHECK_MSG((artifacts.schedule == nullptr) == (artifacts.address_map == nullptr),
                  "RunArtifacts::schedule and ::address_map travel together: both or neither");
  CELLO_CHECK_MSG(artifacts.schedule != nullptr ||
                      (artifacts.reuse_index == nullptr && artifacts.router_tables == nullptr &&
                       artifacts.access_stream == nullptr),
                  "a prebuilt reuse index / router tables / access stream need their schedule "
                  "alongside");
  CELLO_CHECK_MSG(static_cast<bool>(config.buffers),
                  "configuration '" << config.name << "' has no buffer policy factory");

  // Caller-supplied artifacts win; every null one comes from the cache,
  // derived from the resolved schedule and address map.
  const Schedule& sched = artifacts.schedule != nullptr
                              ? *artifacts.schedule
                              : cache.schedule(dag, schedule_options(config));
  const AddressMap& map =
      artifacts.address_map != nullptr ? *artifacts.address_map : cache.address_map(dag);
  const score::ReuseIndex& reuse_index = artifacts.reuse_index != nullptr
                                             ? *artifacts.reuse_index
                                             : cache.reuse_index(dag, sched, map);
  const auto route = ArtifactCache::RouteKey::of(config, arch);
  const RouterTables& tables = artifacts.router_tables != nullptr
                                   ? *artifacts.router_tables
                                   : cache.router_tables(dag, sched, route);

  // All per-run mutable state lives in a RunScratch; without a caller-owned
  // one this run uses a private scratch (identical behavior, fresh storage).
  RunScratch local;
  RunScratch& scratch = artifacts.scratch != nullptr ? *artifacts.scratch : local;

  // The buffer policy: pooled policies are reset to constructed state instead
  // of reconstructed (cache arrays, CHORD tables keep their storage); configs
  // whose policy cannot guarantee that — or whose effective arch changed
  // since the pooled instance was built — get a fresh instance.
  RunScratch::PooledPolicy& slot = scratch.policies_[config.name];
  if (slot.policy != nullptr && slot.policy->reusable() && slot.arch == arch) {
    slot.policy->reset();
  } else {
    slot.policy = config.buffers(arch);
    slot.arch = arch;
  }

  // Trace-driven policies replay the run's access stream; analytic ones
  // never fetch (or capture) one.
  const AccessStream* stream = nullptr;
  if (slot.policy->trace_driven())
    stream = artifacts.access_stream != nullptr
                 ? artifacts.access_stream
                 : &cache.access_stream(dag, sched, map, tables, route, matrix_);
  return run_impl(dag, config, arch, sched, map, reuse_index, tables, scratch, *slot.policy,
                  stream, artifacts.trace);
}

RunMetrics Simulator::run_impl(const ir::TensorDag& dag, const Configuration& config,
                               const AcceleratorConfig& arch, const Schedule& sched,
                               const AddressMap& map, const score::ReuseIndex& reuse_index,
                               const RouterTables& tables, RunScratch& s, BufferPolicy& policy,
                               const AccessStream* stream, trace::TraceSink* sink) const {
  CELLO_CHECK_MSG(reuse_index.num_bases() == map.entries.size(),
                  "reuse index covers " << reuse_index.num_bases() << " bases, address map "
                                        << map.entries.size()
                                        << " — artifacts from different workloads?");
  CELLO_CHECK_MSG(tables.pipelined.size() == dag.tensors().size(),
                  "router tables cover " << tables.pipelined.size() << " tensors, DAG has "
                                         << dag.tensors().size()
                                         << " — artifacts from a different workload?");
  const Router router(dag, sched, config.schedule, tables);
  const size_t n_bases = map.entries.size();
  const bool trace = stream != nullptr;

  // Trace-driven policies are serviced by replaying the run's access stream
  // in one pass up front; the loop below then only reads per-step services.
  std::vector<BufferService>& replayed = s.replay_services_;
  replayed.clear();
  if (trace) {
    CELLO_CHECK_MSG(stream->schedule_steps == sched.steps.size(),
                    "access stream captured over a different schedule ("
                        << stream->schedule_steps << " steps, schedule has "
                        << sched.steps.size() << ")");
    policy.replay(*stream, replayed);
  }
  u64 valid_lines = 0;  ///< trace-driven occupancy: running sum of replayed fills

  score::ReuseCursor& reuse = s.cursor_;
  reuse.reset(reuse_index);

  RunMetrics metrics;
  metrics.reserve_steps(sched.steps.size());

  // DRAM traffic attribution, accumulated per base id during the run and
  // materialized into the name-keyed map once at the end (no string-keyed
  // map lookups on the hot path).  `touched` preserves which bases appeared,
  // so zero-byte attributions still materialize like they used to.
  std::vector<Bytes>& traffic = s.traffic_;
  traffic.assign(n_bases, 0);
  std::vector<u8>& traffic_touched = s.traffic_touched_;
  traffic_touched.assign(n_bases, 0);

  auto attribute_read = [&](Bytes b, i32 base) {
    metrics.dram_read_bytes += b;
    traffic[base] += b;
    traffic_touched[base] = 1;
  };
  auto attribute_write = [&](Bytes b, i32 base) {
    metrics.dram_write_bytes += b;
    traffic[base] += b;
    traffic_touched[base] = 1;
  };

  auto meta_for = [&](const ir::TensorDesc& t, i64 step) {
    chord::TensorMeta m;
    m.id = map.base_id(t.id);
    m.name = map.of(t.id).base;
    m.start_addr = map.of(t.id).start;
    m.bytes = t.bytes();
    m.remaining_uses = reuse.remaining_after(reuse_index, m.id, step);
    m.next_use_distance = reuse.next_distance(reuse_index, m.id, step);
    if (t.append_only) {
      m.append_only = true;
      m.appended_bytes = dag.appended_bytes(t.id);
    }
    return m;
  };

  // External register-file-resident bases already fetched once.
  std::vector<u8>& rf_loaded = s.rf_loaded_;
  rf_loaded.assign(n_bases, 0);

  // Bases whose final version is a result stay resident until the
  // end-of-run drain instead of being retired at their last consumption.
  std::vector<u8>& result_base = s.result_base_;
  result_base.assign(n_bases, 0);
  for (const auto& t : dag.tensors())
    if (t.is_result) result_base[map.base_id(t.id)] = 1;

  // Per-pipeline-group timing accumulators: consecutive steps linked by an
  // on-chip serviced edge share a group (Parallel pipeline style only);
  // everything else is op-by-op.
  std::vector<double>& group_compute = s.group_compute_;
  std::vector<double>& group_dram = s.group_dram_;
  group_compute.clear();
  group_dram.clear();
  group_compute.reserve(sched.steps.size() + 1);
  group_dram.reserve(sched.steps.size() + 1);
  i32 cur_group = -1;

  // Scratch for per-step input-base dedup (op arity is tiny; sorted so the
  // retirement order matches the old std::set iteration).
  std::vector<i32>& retire_bases = s.retire_bases_;
  retire_bases.clear();
  retire_bases.reserve(8);

  u64 pipeline_sram_lines = 0;  ///< pipeline-buffer staging accesses

  // Armed only when a sink is present: per-step observations for the trace,
  // replayed into events after the loop once group durations are final.
  std::vector<TraceStep> tsteps;
  if (sink != nullptr) tsteps.reserve(sched.steps.size());

  for (size_t i = 0; i < sched.steps.size(); ++i) {
    const ir::EinsumOp& op = dag.op(sched.steps[i].op);
    const i64 step = static_cast<i64>(i);

    bool joined = false;
    if (i > 0 && arch.pipeline_style == PipelineStyle::Parallel && router.pipelines())
      joined = router.linked_onchip(sched.steps[i - 1].op, sched.steps[i].op);
    if (!joined) {
      group_compute.push_back(0);
      group_dram.push_back(0);
      ++cur_group;
    }
    group_compute[cur_group] += arch.compute_seconds(op.macs());
    metrics.total_macs += op.macs();

    Bytes op_dram = 0;

    // ---- inputs ----
    for (size_t ii = 0; ii < op.inputs.size(); ++ii) {
      const ir::TensorId in = op.inputs[ii];
      // Same tensor used twice (R^T R): only the first occurrence is serviced.
      bool repeat = false;
      for (size_t jj = 0; jj < ii; ++jj) repeat = repeat || op.inputs[jj] == in;
      if (repeat) continue;
      // In-place append (KV-cache decode): the op extends this operand into
      // its own output — same growing base, untouched prefix.  No data moves
      // for the prefix, so the operand is not serviced; the output write
      // prices whatever the policy charges for the step's growth.
      if (dag.tensor(op.output).append_prev == in) continue;
      const ir::TensorDesc& t = dag.tensor(in);
      const Bytes b = t.bytes();
      const i32 base = map.base_id(in);

      switch (router.route_input(op, in)) {
        case Route::PipelineBuffer:
          pipeline_sram_lines += ceil_div<Bytes>(b, arch.line_bytes);
          break;
        case Route::RegisterFile:
          // Externals cost one cold fetch; on-chip-produced stay in the RF.
          if (!dag.producer(in).has_value() && !rf_loaded[base]) {
            rf_loaded[base] = 1;
            attribute_read(b, base);
            op_dram += b;
          }
          break;
        case Route::Buffer:
          if (!trace) {
            const BufferService s = policy.read_tensor(meta_for(t, step));
            if (s.dram_read > 0) attribute_read(s.dram_read, base);
            if (s.dram_write > 0) attribute_write(s.dram_write, base);
            op_dram += s.total();
          }
          break;
        case Route::DirectDram:
        case Route::Discard:
          break;  // not produced by route_input
      }
    }

    // ---- output ----
    {
      const ir::TensorDesc& t = dag.tensor(op.output);
      const Bytes b = t.bytes();
      const i32 base = map.base_id(op.output);

      switch (router.route_output(op)) {
        case Route::PipelineBuffer:
          pipeline_sram_lines += ceil_div<Bytes>(b, arch.line_bytes);
          break;
        case Route::RegisterFile:
        case Route::Discard:
          break;
        case Route::DirectDram:
          attribute_write(b, base);
          op_dram += b;
          break;
        case Route::Buffer:
          if (!trace) {
            const BufferService s = policy.write_tensor(meta_for(t, step));
            if (s.dram_read > 0) attribute_read(s.dram_read, base);
            if (s.dram_write > 0) attribute_write(s.dram_write, base);
            op_dram += s.total();
          }
          break;
      }
    }

    if (trace) {
      // The replay already drove the cache; per-step traffic was recorded at
      // the stream's op boundaries.
      op_dram += replayed[i].total();
      valid_lines += replayed[i].fills;
    }

    metrics.per_op.push_back({op.name, op.macs(), op_dram});

    // ---- retirement: free buffer space of bases with no further use ----
    retire_bases.clear();
    for (ir::TensorId in : op.inputs) {
      const i32 base = map.base_id(in);
      if (std::find(retire_bases.begin(), retire_bases.end(), base) == retire_bases.end())
        retire_bases.push_back(base);
    }
    std::sort(retire_bases.begin(), retire_bases.end());
    for (i32 base : retire_bases)
      if (reuse.remaining_after(reuse_index, base, step) == 0 && !result_base[base])
        policy.retire(base);

    group_dram[cur_group] += arch.dram_seconds(op_dram);
    if (sink != nullptr)
      tsteps.push_back({cur_group, op_dram,
                        trace ? valid_lines * arch.line_bytes : policy.occupancy_bytes()});
  }

  // ---- end-of-run drain (resident result prefixes / dirty cache lines) ----
  bool did_drain = false;
  Bytes drained_bytes = 0;
  {
    DrainContext ctx;
    ctx.dag = &dag;
    ctx.map = &map;
    ctx.results_written_through = config.schedule == SchedulePolicy::Score;
    if (auto items = policy.drain(ctx)) {
      Bytes drained = 0;
      for (const auto& item : *items) {
        drained += item.dram_write;
        // Empty base = timing only; the policy's finalize() owns the totals.
        if (!item.base.empty()) {
          metrics.dram_write_bytes += item.dram_write;
          metrics.traffic_by_tensor[item.base] += item.dram_write;
        }
      }
      group_compute.push_back(0);
      group_dram.push_back(arch.dram_seconds(drained));
      did_drain = true;
      drained_bytes = drained;
    }
  }

  // Materialize the name-keyed attribution map (drain entries are already
  // in it; a base drained *and* touched during the run merges by name, same
  // as when every attribution went through the map).
  for (size_t b = 0; b < n_bases; ++b)
    if (traffic_touched[b]) metrics.traffic_by_tensor[map.entries[b].base] += traffic[b];

  for (size_t g = 0; g < group_compute.size(); ++g)
    metrics.seconds += std::max(group_compute[g], group_dram[g]);
  metrics.dram_bytes = metrics.dram_read_bytes + metrics.dram_write_bytes;

  policy.finalize(arch, pipeline_sram_lines, metrics);
  metrics.offchip_energy_pj =
      static_cast<double>(metrics.dram_bytes) * arch.dram_energy_pj_per_byte;
  if (sink != nullptr)
    emit_run_trace(*sink, dag, sched, arch, tsteps, group_compute, group_dram, did_drain,
                   drained_bytes, policy.occupancy_bytes());
  return metrics;
}

}  // namespace cello::sim
