// Golden regression test: RunMetrics for all seven Table IV presets on CG,
// GNN and ResNet (plus CG over a real sparse matrix, which exercises the CSR
// gather path of the trace-driven caches) must stay bit-identical across
// refactors of the simulation hot path.  A second test runs the
// trace-driven presets at 250 GB/s and 1 TB/s and checks that bandwidth moves
// only the time-derived fields.
//
// Doubles are serialized as hexfloats, so comparison is exact.  To refresh
// after an *intended* behavioral change:
//
//   CELLO_UPDATE_GOLDENS=1 ./build/metrics_golden_test
//
// and commit the updated tests/goldens/table4_metrics.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/workload_registry.hpp"
#include "sparse/datasets.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/resnet.hpp"

namespace {

using namespace cello;

const char* golden_path() { return CELLO_SOURCE_DIR "/tests/goldens/table4_metrics.txt"; }

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// FNV-1a over the per-op (macs, dram_bytes) sequence: pins the whole per-op
/// breakdown without a line per op.
u64 per_op_hash(const sim::RunMetrics& m) {
  u64 h = 1469598103934665603ull;
  auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& op : m.per_op) {
    mix(static_cast<u64>(op.macs));
    mix(op.dram_bytes);
  }
  return h;
}

/// Every byte and event field of `m` (everything but the time-derived ones).
std::string byte_and_event_fields(const sim::RunMetrics& m) {
  std::ostringstream os;
  os << "macs=" << m.total_macs << " read=" << m.dram_read_bytes
     << " write=" << m.dram_write_bytes << " dram=" << m.dram_bytes
     << " offchip=" << hex_double(m.offchip_energy_pj)
     << " onchip=" << hex_double(m.onchip_energy_pj) << " sram=" << m.sram_line_accesses
     << " ops=" << m.per_op.size() << " ophash=" << std::hex << per_op_hash(m) << std::dec
     << " traffic=";
  bool first = true;
  for (const auto& [base, bytes] : m.traffic_by_tensor) {
    if (!first) os << ';';
    os << base << ':' << bytes;
    first = false;
  }
  return os.str();
}

std::string format_record(const std::string& workload, const std::string& config,
                          const sim::RunMetrics& m) {
  return workload + '|' + config + " seconds=" + hex_double(m.seconds) + ' ' +
         byte_and_event_fields(m);
}

struct Workload {
  std::string name;
  ir::TensorDag dag;
  const sparse::CsrMatrix* matrix = nullptr;
};

Workload cg_workload() {
  return {"cg", workloads::build_cg_dag({81920, 16, 327680, 5, 4}), nullptr};
}

/// CG over the real fv1 matrix: the CSR gather path of the trace-driven caches.
Workload cg_fv1_workload() {
  static const sparse::CsrMatrix fv1 = sparse::instantiate(sparse::dataset_by_name("fv1"));
  return {"cg_fv1",
          workloads::build_cg_dag({sparse::dataset_by_name("fv1").rows, 16, fv1.nnz(), 3, 4}),
          &fv1};
}

/// The two LLM decode specs; the second is the documented budget-exceeding
/// decode where Flex+KV beats LRU.
std::vector<Workload> llm_workloads() {
  std::vector<Workload> wls;
  for (const char* spec : {"llm:layers=1,seq=256,decode_steps=4",
                           "llm:d_model=512,seq=2048,decode_steps=8,layers=2"}) {
    const sim::Workload wl = sim::WorkloadRegistry::global().resolve(spec);
    wls.push_back({wl.name, *wl.dag, nullptr});
  }
  return wls;
}

std::vector<std::string> current_lines() {
  std::vector<Workload> wls;
  wls.push_back(cg_workload());
  wls.push_back({"gnn", workloads::build_gnn_dag({2708, 9464, 1433, 7}), nullptr});
  wls.push_back({"resnet", workloads::build_resnet_block_dag({}), nullptr});
  wls.push_back(cg_fv1_workload());

  const sim::AcceleratorConfig arch;
  const auto& registry = sim::ConfigRegistry::global();
  std::vector<std::string> lines;
  for (const auto& wl : wls) {
    const sim::Simulator simulator(arch, wl.matrix);
    for (const auto& name : sim::ConfigRegistry::table4_names())
      lines.push_back(format_record(wl.name, name, simulator.run(wl.dag, registry.at(name))));
  }

  // LLM decode rows: the Table IV presets plus the KV-cache configuration
  // (registered after the combos, so not part of table4_names).
  std::vector<std::string> llm_configs = sim::ConfigRegistry::table4_names();
  llm_configs.push_back("Flex+KV");
  for (const auto& wl : llm_workloads()) {
    const sim::Simulator simulator(arch);
    for (const auto& name : llm_configs)
      lines.push_back(format_record(wl.name, name, simulator.run(wl.dag, registry.at(name))));
  }
  return lines;
}

TEST(MetricsGolden, Table4PresetsBitIdentical) {
  const auto lines = current_lines();

  if (std::getenv("CELLO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    for (const auto& line : lines) out << line << '\n';
    GTEST_SKIP() << "goldens regenerated at " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good()) << "missing " << golden_path()
                         << " — run with CELLO_UPDATE_GOLDENS=1 to generate";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) golden.push_back(line);

  ASSERT_EQ(golden.size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) EXPECT_EQ(lines[i], golden[i]) << "record " << i;
}

// DRAM bandwidth only prices time: the trace-driven presets replay the same
// stream at any bandwidth, so every byte and event field must come out
// identical at Table V's 250 GB/s and 1 TB/s.
TEST(MetricsGolden, TraceDrivenBytesAndEventsIgnoreBandwidth) {
  std::vector<Workload> wls;
  wls.push_back(cg_workload());
  wls.push_back(cg_fv1_workload());
  for (auto& wl : llm_workloads()) wls.push_back(std::move(wl));

  sim::AcceleratorConfig slow, fast;
  slow.dram_bytes_per_sec = 250e9;
  fast.dram_bytes_per_sec = 1e12;
  const auto& registry = sim::ConfigRegistry::global();
  for (const auto& wl : wls) {
    const sim::Simulator at_slow(slow, wl.matrix), at_fast(fast, wl.matrix);
    for (const char* name : {"Flex+LRU", "Flex+BRRIP", "SCORE+LRU", "SCORE+BRRIP"}) {
      const sim::RunMetrics a = at_slow.run(wl.dag, registry.at(name));
      const sim::RunMetrics b = at_fast.run(wl.dag, registry.at(name));
      EXPECT_EQ(byte_and_event_fields(a), byte_and_event_fields(b)) << wl.name << '|' << name;
      EXPECT_GT(a.dram_bytes, 0u) << wl.name << '|' << name;
      EXPECT_GE(a.seconds, b.seconds) << wl.name << '|' << name;
    }
  }
}

}  // namespace
