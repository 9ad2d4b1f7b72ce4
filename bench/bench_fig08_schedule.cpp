// Fig. 8: the CG iteration schedule (pipeline groups, loop orders, buffer
// bindings) and the multi-node dataflow argument (move small tensors across
// the NoC, not the skewed ones).
#include "bench_util.hpp"
#include "noc/topology.hpp"
#include "score/schedule.hpp"
#include "workloads/cg.hpp"

int main() {
  using namespace cello;
  bench::print_header("SCORE schedule for one CG iteration + multi-node dataflow",
                      "Fig. 8");

  workloads::CgShape shape;
  shape.m = 1000000;
  shape.n = 16;
  shape.nnz = 9000000;
  shape.iterations = 3;  // show iteration 2: steady state with live successors
  const auto dag = workloads::build_cg_dag(shape);
  const auto sched = score::build_schedule(dag);

  TextTable t({"step", "op", "loop order (outer->inner)", "pipeline group", "output ->"});
  for (size_t i = 8; i < 16 && i < sched.steps.size(); ++i) {  // steady-state iteration 2
    const auto& step = sched.steps[i];
    const auto& op = dag.op(step.op);
    std::string order;
    for (const auto& r : step.loop_order) order += r + " ";
    t.add_row({std::to_string(i), op.name, order, std::to_string(step.pipeline_group),
               std::string(score::to_string(sched.residency[op.output]))});
  }
  std::cout << t.to_string();
  std::cout << "\nswizzles required: " << sched.swizzle_count
            << " (SCORE keeps every skewed tensor m-major)\n";

  // Multi-node traffic comparison (Fig. 8 bottom): pipelining split across
  // nodes moves SIZE_R = M*N words; SCORE's cluster-local schedule moves the
  // small Greek tensors with broadcast+reduce hops instead.
  std::cout << "\nMulti-node NoC traffic for the op4->op5 stage (M=1e6, N=16):\n";
  TextTable noc_t({"nodes", "naive: move R (words)", "SCORE: move small x hops (words)",
                   "reduction"});
  for (i64 nodes : {4, 16, 64}) {
    // A broadcast and a reduction, each the depth of the mesh's collective tree.
    const i64 hops = 2 * noc::Topology::build(noc::resolve_topology("mesh", nodes)).depth();
    const double naive_words = static_cast<double>(shape.m) * static_cast<double>(shape.n);
    const double score_words =
        static_cast<double>(shape.n) * static_cast<double>(shape.n) * static_cast<double>(hops);
    noc_t.add_row({std::to_string(nodes), format_double(naive_words, 0),
                   format_double(score_words, 0),
                   format_double(naive_words / score_words, 0) + "x"});
  }
  std::cout << noc_t.to_string();
  return 0;
}
