// trace::ChromeTraceWriter + Simulator run tracing.
//
// Traces are *simulated-time* narrations, so they must be deterministic to
// the byte: checked-in goldens pin the exact serialization for one analytic
// CG cell and two cache-preset cells (CELLO_UPDATE_GOLDENS=1 ./trace_test to
// refresh after an intended change),
// schema assertions pin the Chrome trace_event grammar Perfetto expects, and
// equality tests pin that (a) arming a writer never perturbs the metrics and
// (b) a sweep's --trace-cell bytes equal a direct Simulator::run's bytes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/registry.hpp"
#include "sim/result_io.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/workload_registry.hpp"
#include "trace/trace.hpp"

namespace {

using namespace cello;

/// Compare `got` with the checked-in golden `tests/goldens/<file>`, or rewrite
/// the golden when CELLO_UPDATE_GOLDENS is set.
void expect_golden(const std::string& file, const std::string& got) {
  const std::string path = CELLO_SOURCE_DIR "/tests/goldens/" + file;
  if (std::getenv("CELLO_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << got;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run with CELLO_UPDATE_GOLDENS=1 to generate";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << file << ": trace serialization drifted; CELLO_UPDATE_GOLDENS=1 ./trace_test if intended";
}

/// Trace one run of `spec` under configuration `name` and return the exact
/// ChromeTraceWriter bytes (finish() included).
std::string trace_run(const std::string& spec, const std::string& name,
                      const sim::AcceleratorConfig& arch = {}) {
  const sim::Workload wl = sim::WorkloadRegistry::global().resolve(spec);
  const sim::Simulator simulator(arch, wl.matrix.get());
  trace::ChromeTraceWriter writer;
  sim::RunArtifacts art;
  art.trace = &writer;
  simulator.run(*wl.dag, sim::ConfigRegistry::global().at(name), art);
  writer.finish();
  return writer.document();
}

TEST(Trace, GoldenBytesForCgCello) {
  expect_golden("trace_cg_cello.json", trace_run("cg:m=2048,n=8,iters=2", "Cello"));
}

// Cache presets: per-step DRAM spans and the valid-line occupancy samples of
// the trace-driven path.  The CG run is periodic, so its samples cover the
// occurrences the replayer fast-forwards over instead of simulating.
TEST(Trace, GoldenBytesForCachePresets) {
  expect_golden("trace_spmv_fv1_flex_brrip.json",
                trace_run("spmv:dataset=fv1,iters=2", "Flex+BRRIP"));
  expect_golden("trace_cg_fv1_score_lru.json",
                trace_run("cg:dataset=fv1,iters=5,n=8", "SCORE+LRU"));
}

TEST(Trace, TwoRunsAreByteIdentical) {
  const std::string a = trace_run("gnn:cora", "SCORE+LRU");
  const std::string b = trace_run("gnn:cora", "SCORE+LRU");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// The emitted document must be one valid JSON object shaped like the Chrome
// trace_event format: {"traceEvents": [...]}, every event carrying name / ph /
// ts / pid / tid, ph limited to the phases we emit (M metadata, X complete
// span, C counter), X durations non-negative, and counter timestamps
// non-decreasing per (pid, tid, name) series.
TEST(Trace, DocumentMatchesChromeTraceSchema) {
  const std::string text = trace_run("cg:dataset=fv1,iters=3,n=8", "Cello");
  const sim::JsonValue doc = sim::json_parse(text);

  ASSERT_EQ(doc.type, sim::JsonValue::Type::Object);
  const sim::JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.type, sim::JsonValue::Type::Array);
  ASSERT_FALSE(events.items.empty());

  int spans = 0, counters = 0, metas = 0;
  std::map<std::string, double> counter_clock;  // per-series last ts
  for (const auto& e : events.items) {
    ASSERT_EQ(e.type, sim::JsonValue::Type::Object);
    const std::string& ph = e.at("ph").as_string();
    ASSERT_TRUE(ph == "X" || ph == "C" || ph == "M") << "unexpected phase " << ph;
    EXPECT_FALSE(e.at("name").as_string().empty());
    EXPECT_GE(e.at("pid").as_i64(), 0);
    EXPECT_GE(e.at("tid").as_i64(), 0);

    if (ph == "M") {
      ++metas;
      continue;  // metadata events have no timestamp semantics
    }
    const double ts = e.at("ts").as_double();
    EXPECT_GE(ts, 0.0);
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.at("dur").as_double(), 0.0);
    } else {
      ++counters;
      const std::string series = e.at("pid").scalar + "/" + e.at("tid").scalar + "/" +
                                 e.at("name").as_string();
      auto it = counter_clock.find(series);
      if (it != counter_clock.end()) {
        EXPECT_GE(ts, it->second) << "counter series " << series << " went backwards";
      }
      counter_clock[series] = ts;
      const sim::JsonValue& args = e.at("args");
      EXPECT_EQ(args.type, sim::JsonValue::Type::Object);
      EXPECT_GE(args.at("bytes").as_i64(), 0);
    }
  }
  EXPECT_GT(spans, 0) << "no compute/dram spans emitted";
  EXPECT_GT(counters, 0) << "no buffer-occupancy samples emitted";
  EXPECT_GE(metas, 2) << "track metadata (process_name/thread_name) missing";
}

// Arming a writer must not perturb the simulation: same metrics to the bit.
TEST(Trace, TracedRunMetricsEqualUntracedRun) {
  const sim::Workload wl = sim::WorkloadRegistry::global().resolve("spmv:dataset=fv1,iters=2");
  const sim::Simulator simulator({}, wl.matrix.get());
  const sim::Configuration& config = sim::ConfigRegistry::global().at("Flex+BRRIP");

  const sim::RunMetrics plain = simulator.run(*wl.dag, config);
  trace::ChromeTraceWriter writer;
  sim::RunArtifacts art;
  art.trace = &writer;
  const sim::RunMetrics traced = simulator.run(*wl.dag, config, art);

  EXPECT_EQ(plain.seconds, traced.seconds);
  EXPECT_EQ(plain.dram_bytes, traced.dram_bytes);
  EXPECT_EQ(plain.onchip_energy_pj, traced.onchip_energy_pj);
  EXPECT_EQ(plain.offchip_energy_pj, traced.offchip_energy_pj);
  EXPECT_EQ(plain.sram_line_accesses, traced.sram_line_accesses);
  EXPECT_EQ(plain.traffic_by_tensor, traced.traffic_by_tensor);
}

// A trace_sink_for that selects one cell narrates exactly that cell, and the bytes
// equal a direct Simulator::run of that cell — shared
// schedules, reuse indexes, router tables and per-worker scratch included.
// Over a 2-arch grid the traced cell is (workload, arch, config) in row-major
// order, and its trace is the direct run under that arch.
TEST(Trace, SweepTraceCellBytesEqualDirectRun) {
  const std::vector<std::string> specs = {"cg:m=2048,n=8,iters=2", "gnn:cora"};
  const std::vector<std::string> configs = {"Flexagon", "Cello", "SCORE+LRU"};
  sim::AcceleratorConfig small;
  small.sram_bytes = 1ull << 20;
  small.dram_bytes_per_sec = 250e9;
  auto& wreg = sim::WorkloadRegistry::global();
  auto& creg = sim::ConfigRegistry::global();

  std::vector<sim::Workload> workloads;
  for (const auto& s : specs) workloads.push_back(wreg.resolve(s));
  std::vector<sim::Configuration> cfgs;
  for (const auto& c : configs) cfgs.push_back(creg.at(c));

  const std::vector<std::vector<sim::AcceleratorConfig>> grids = {{sim::AcceleratorConfig{}},
                                                                  {sim::AcceleratorConfig{}, small}};
  for (const auto& archs : grids) {
    // Trace cell (workload 1, last arch, config 1): gnn:cora under Cello.
    const size_t cell = (1 * archs.size() + archs.size() - 1) * configs.size() + 1;
    trace::ChromeTraceWriter from_sweep;
    sim::SweepOptions opts;
    opts.trace_sink_for = [&](size_t c) { return c == cell ? &from_sweep : nullptr; };
    const auto cells = sim::SweepRunner(/*threads=*/3).run(workloads, cfgs, archs, opts);
    ASSERT_EQ(cells.size(), specs.size() * archs.size() * configs.size());
    EXPECT_EQ(cells[cell].workload, workloads[1].name);
    EXPECT_EQ(cells[cell].config, "Cello");
    from_sweep.finish();
    const std::string direct = trace_run("gnn:cora", "Cello", archs.back());
    EXPECT_FALSE(direct.empty());
    EXPECT_EQ(from_sweep.document(), direct) << archs.size() << " archs";
  }
}

// Multi-node runs add a NoC track whose "collectives" span starts where the
// slowest shard finishes.
TEST(Trace, MultinodeRunEmitsCollectivesSpan) {
  sim::AcceleratorConfig arch;
  arch.nodes = 4;
  arch.topology = "mesh:2x2";
  const std::string text = trace_run("gnn:cora", "Cello", arch);
  const sim::JsonValue doc = sim::json_parse(text);

  bool saw_collectives = false, saw_noc_track = false;
  for (const auto& e : doc.at("traceEvents").items) {
    const std::string& ph = e.at("ph").as_string();
    const std::string& name = e.at("name").as_string();
    if (ph == "X" && name == "collectives") {
      saw_collectives = true;
      const sim::JsonValue& args = e.at("args");
      EXPECT_EQ(args.at("nodes").as_i64(), 4);
      EXPECT_GE(args.at("noc_bytes").as_i64(), 0);
    }
    if (ph == "M" && name == "thread_name" &&
        e.at("args").at("name").as_string() == "noc")
      saw_noc_track = true;
  }
  EXPECT_TRUE(saw_collectives);
  EXPECT_TRUE(saw_noc_track);
}

TEST(Trace, FinishIsIdempotentAndCountsEvents) {
  trace::ChromeTraceWriter writer;
  writer.track(0, 0, "p", "t");
  writer.span(0, 0, "op", 0.0, 1e-6, {trace::arg("macs", i64{42})});
  writer.counter(0, 0, "occ", 1e-6, Bytes{128});
  writer.finish();
  const std::string once = writer.document();
  writer.finish();  // idempotent: no extra bytes
  EXPECT_EQ(writer.document(), once);
  // track() expands to process_name + thread_name metadata events.
  EXPECT_EQ(writer.events(), 4u);
  EXPECT_NO_THROW(sim::json_parse(once));
}

}  // namespace
