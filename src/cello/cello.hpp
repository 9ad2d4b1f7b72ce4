// Cello public facade: resolve a workload by name, schedule it with SCORE,
// run it under a named or custom-composed configuration, and report metrics.
//
// Quickstart (composable API — both axes of the sweep grid are registries):
//   // Workloads are named, parameterized specs resolved to immutable DAGs.
//   auto& workloads = cello::sim::WorkloadRegistry::global();
//   auto cg  = workloads.resolve("cg:m=81920,n=16,iters=10");  // shape-only
//   auto gnn = workloads.resolve("gnn:cora");                  // dataset preset
//
//   cello::sim::AcceleratorConfig arch;                  // Table V defaults
//   cello::sim::Simulator simulator(arch, cg.matrix.get());
//   auto& registry = cello::sim::ConfigRegistry::global();
//   auto cello_m = simulator.run(*cg.dag, registry.at("Cello"));
//   auto novel_m = simulator.run(*cg.dag, registry.at("SCORE+LRU"));  // novel combo
//
//   // Transformer decode: append-only KV-cache chains in the DAG, priced by
//   // the KV-aware buffer (see sim/policies/kv_cache_policy.hpp).
//   auto llm = workloads.resolve("llm:d_model=512,seq=2048,decode_steps=8,layers=2");
//   auto kv_m = cello::sim::Simulator(arch).run(*llm.dag, registry.at("Flex+KV"));
//
//   // Custom pairing: any SchedulePolicy x BufferPolicy combination.
//   auto mine = cello::sim::make_configuration(
//       "mine", cello::sim::SchedulePolicy::Score, cello::sim::brrip_cache(), "BRRIP");
//   auto mine_m = simulator.run(*cg.dag, mine);
//
//   // Multi-chip scale-out (Sec. V-B): set a node count and a topology spec
//   // ("mesh:4x4", "torus:8x8", "ring:16", "crossbar:8") on the arch and the
//   // same run() shards the dominant rank, simulates one node's slice, and
//   // folds routed per-link NoC traffic back into whole-system metrics
//   // (noc_bytes, noc_seconds, max_link_utilization, parallel_efficiency):
//   cello::sim::AcceleratorConfig multi = arch;
//   multi.nodes = 16;
//   multi.topology = "torus:4x4";
//   auto scaled = cello::sim::Simulator(multi, gnn.matrix.get())
//                     .run(*gnn.dag, registry.at("Cello"));
//
//   // Parallel {workloads} x {archs} x {configs} grid, row-major; each
//   // workload's DAG, schedule, address map and reuse index are built once
//   // and shared read-only across the pool and across archs:
//   std::vector<cello::sim::Configuration> configs;
//   for (const auto& name : registry.names()) configs.push_back(registry.at(name));
//   cello::sim::SweepRunner sweep;
//   auto cells = sweep.run({cg, gnn, workloads.resolve("spmv")}, configs, {arch, multi});
//
//   // The same grid by name (what `cello_cli sweep` runs), here as one
//   // shard of one; plan_shard(grid, i, k) splits it across machines and
//   // SweepOptions adds checkpointing, resume and keep-going:
//   auto grid = cello::sim::make_grid({"cg", "gnn:cora", "spmv", "sddmm:heads=4"},
//                                     registry.names(), arch);
//   auto all  = sweep.run_shard(grid, cello::sim::plan_shard(grid, 1, 1));
//
//   // Drivers doing their own cell loops share the same immutable artifacts
//   // through one sim::RunArtifacts bundle (bit-identical to the one-shot
//   // run above).  This bundle IS the run API: every optional input —
//   // prebuilt schedule/map/reuse/router tables, reusable scratch, trace writer —
//   // rides in it, and run(dag, config) is just the empty-bundle default.
//   auto sched = cello::score::build_schedule(
//       *cg.dag, simulator.schedule_options(registry.at("Cello")));
//   auto map   = cello::sim::AddressMap::build(*cg.dag);
//   auto reuse = cello::score::ReuseIndex::build(*cg.dag, sched, map.base_of,
//                                                map.entries.size());
//   cello::sim::RunScratch scratch;  // per-run vectors, reused across runs
//   cello::sim::RunArtifacts art;
//   art.schedule = &sched; art.address_map = &map;
//   art.reuse_index = &reuse; art.scratch = &scratch;
//   auto fast_m = simulator.run(*cg.dag, registry.at("Cello"), art);
//
//   // Op-level observability: arm a trace writer and the same run builds a
//   // Perfetto-loadable Chrome trace_event document in memory (simulated
//   // timestamps, fully deterministic; see trace/trace.hpp and the README's
//   // Observability section).  `cello_cli run --trace out.json` is this in
//   // flag form.
//   cello::trace::ChromeTraceWriter writer;
//   cello::sim::RunArtifacts traced;
//   traced.trace = &writer;
//   simulator.run(*cg.dag, registry.at("Cello"), traced);
//   writer.finish();
//   std::ofstream("trace.json", std::ios::binary) << writer.document();
//
//   std::cout << cello::compare_table(*cg.dag, arch);    // the seven Table IV rows
//
// Workload DAGs can also be built directly (build_cg_dag & friends) and run
// the same way, or by hand: add tensors, then ops in dataflow order —
// TensorDag::add_op derives every producer->consumer edge from the operands,
// and a tensor no op produces is an external input:
//   cello::ir::TensorDag dag;
//   auto x = dag.add_tensor(...), y = dag.add_tensor(...);
//   cello::ir::EinsumOp op;
//   op.name = "scale"; op.inputs = {x}; op.output = y; op.ranks = {...};
//   dag.add_op(std::move(op));  // x is external; later readers of y get edges
#pragma once

#include <string>

#include "ir/dag.hpp"
#include "noc/topology.hpp"
#include "sim/config.hpp"
#include "sim/configuration.hpp"
#include "sim/metrics.hpp"
#include "sim/partition.hpp"
#include "sim/policies/cache_policy.hpp"
#include "sim/policies/chord_policy.hpp"
#include "sim/policies/explicit_buffers.hpp"
#include "sim/registry.hpp"
#include "sim/result_io.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/workload_registry.hpp"
#include "sim/workload_spec.hpp"
#include "sparse/csr.hpp"
#include "trace/trace.hpp"
#include "workloads/bicgstab.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/llm.hpp"
#include "workloads/resnet.hpp"
#include "workloads/sddmm.hpp"
#include "workloads/spmv.hpp"

namespace cello {

/// Render a paper-style comparison table (throughput, traffic, energy, and
/// speedup / energy ratio relative to the Flexagon baseline): one sweep of
/// `dag` (with `matrix`, may be null) under the seven Table IV configurations.
std::string compare_table(const ir::TensorDag& dag, const sim::AcceleratorConfig& arch,
                          const sparse::CsrMatrix* matrix = nullptr);

}  // namespace cello
