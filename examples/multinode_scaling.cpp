// Multi-node scaling study (Sec. V-B "Scalable Dataflow"): compare NoC
// traffic when pipelines are split across nodes (move the skewed tensor)
// versus SCORE's cluster-local schedule (broadcast/reduce the small tensors),
// across node counts and problem shapes.
//
//   ./example_multinode_scaling [M] [N]
#include <cstdlib>
#include <iostream>

#include "common/format.hpp"
#include "noc/topology.hpp"
#include "sim/metrics.hpp"
#include "sim/registry.hpp"
#include "sim/sweep.hpp"
#include "sim/workload_registry.hpp"

int main(int argc, char** argv) {
  using namespace cello;
  const i64 m = argc > 1 ? std::atoll(argv[1]) : 1000000;
  const i64 n = argc > 2 ? std::atoll(argv[2]) : 16;

  std::cout << "Pipelining ops 4->5 of CG across a mesh: M=" << m << ", N=N'=" << n << "\n\n";

  const sim::AcceleratorConfig arch;
  const double pj_per_word_hop = 4 * arch.noc_energy_pj_per_byte;
  TextTable t({"nodes", "fabric", "bcast+reduce hops", "naive words (move R)",
               "SCORE words (move Lambda/Gamma)", "traffic reduction", "NoC energy saved"});
  for (i64 nodes : {2, 4, 8, 16, 32, 64, 128}) {
    const noc::TopologySpec mesh = noc::resolve_topology("mesh", nodes);
    // A broadcast and a reduction, each the depth of the mesh's collective tree.
    const i64 hops = 2 * noc::Topology::build(mesh).depth();
    const double naive_words = static_cast<double>(m) * static_cast<double>(n);
    const double score_words =
        static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(hops);
    const double saved_pj = (naive_words - score_words) * pj_per_word_hop;
    t.add_row({std::to_string(nodes), mesh.to_string(), std::to_string(hops),
               format_double(naive_words, 0), format_double(score_words, 0),
               score_words > 0 ? format_double(naive_words / score_words, 0) + "x" : "-",
               format_double(saved_pj / 1e6, 2) + " uJ"});
  }
  std::cout << t.to_string();

  std::cout << "\nCrossover check: SCORE's strategy wins whenever M >> N * hops.  With\n"
               "M=" << m << " one cluster already holds the whole small tensor, so the\n"
               "skewed rank is partitioned across nodes and pipelines never span the NoC\n"
               "(Fig. 8 bottom).\n\n";

  // The full routed path: shard the dominant rank of a real workload DAG,
  // simulate one node's slice under the Cello preset, and fold per-link NoC
  // traffic back in.  Ring vs mesh shows the topology term: the same
  // collectives saturate a ring's root links long before a mesh's.
  // One sweep: the 1-node arch, then each (topology, node count) fabric.
  std::vector<sim::AcceleratorConfig> archs{arch};
  for (const std::string topo : {"mesh", "torus", "ring"}) {
    for (const i64 nodes : {4, 16, 64}) {
      archs.push_back(arch);
      archs.back().nodes = nodes;
      archs.back().topology = noc::resolve_topology(topo, nodes).to_string();
    }
  }
  const auto cells =
      sim::SweepRunner().run({sim::WorkloadRegistry::global().resolve("gnn:cora")},
                             {sim::ConfigRegistry::global().at("Cello")}, archs);
  std::cout << "gnn:cora under the Cello preset, routed NoC fold (1 node: "
            << format_double(cells[0].metrics.seconds * 1e6, 1) << " us):\n";
  TextTable rt({"fabric", "time", "NoC byte-hops", "naive bytes", "max-link util",
                "par eff"});
  for (size_t ai = 1; ai < archs.size(); ++ai) {
    const sim::RunMetrics& mm = cells[ai].metrics;
    rt.add_row({archs[ai].topology, format_double(mm.seconds * 1e6, 1) + " us",
                format_bytes(static_cast<double>(mm.noc_bytes)),
                format_bytes(static_cast<double>(mm.naive_noc_bytes)),
                format_double(mm.max_link_utilization * 100, 1) + "%",
                format_double(mm.parallel_efficiency, 2)});
  }
  std::cout << rt.to_string();
  return 0;
}
