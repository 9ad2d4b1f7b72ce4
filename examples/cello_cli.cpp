// cello_cli — drive the full pipeline from the command line.  Workloads and
// configurations both resolve by name: workloads in the sim::WorkloadRegistry
// (spec strings like "cg:m=65536,n=16", "gnn:cora", "spmv:mm=file.mtx"),
// configurations in the sim::ConfigRegistry (every Table IV preset AND every
// registered novel combination).
//
// Usage:
//   ./example_cello_cli run       [--workload <spec>]... [--config <name>|all]
//                                 [--bw <GB/s>] [--sram <MiB>]
//                                 [--nodes <n>] [--topology mesh|torus:RxC|ring|crossbar]
//                                 [--trace out.json]  (op-level Perfetto trace;
//                                  needs one --workload and a named --config)
//   ./example_cello_cli sweep     [--workload <spec>]... [--jobs <n>]
//                                 [--nodes <n>[,<n>...]] [--topology <kind>[,<kind>...]]
//                                 [--shard <i>/<k>] [--shard-mode contiguous|strided]
//                                 [--out results.json|results.csv]
//                                 [--checkpoint <journal>] [--resume]
//                                 [--keep-going] [--retries <n>]
//                                 [--trace out.json --trace-cell W,C|W,F,C|all]...
//                                 (trace grid cells, by 0-based
//                                  workload/fabric/config indices, to
//                                  Perfetto-loadable trace_event files —
//                                  byte-identical to tracing direct runs.
//                                  --trace-cell repeats to trace several
//                                  cells, or "all" traces every cell; with
//                                  more than one traced cell each writes
//                                  out.cell<N>.json, N the flattened
//                                  row-major cell id)
//                                 (all registered configs, parallel SweepRunner;
//                                  one immutable DAG/schedule per workload row;
//                                  --shard runs one deterministic slice of the
//                                  grid, --out writes a machine-readable,
//                                  bit-exact result file instead of a table.
//                                  --checkpoint journals each completed cell
//                                  crash-safely; --resume continues a killed
//                                  run from its journal, byte-identical to an
//                                  uninterrupted sweep.  --keep-going
//                                  quarantines failing cells as error records
//                                  instead of aborting; --retries re-runs
//                                  transient cell failures)
//   ./example_cello_cli merge     <out.json> <shard.json>...
//                                 (recombine shard files — any order — into the
//                                  exact row-major file a full single-process
//                                  sweep of the same grid writes, byte for byte)
//   ./example_cello_cli classify  [--workload <spec>]
//   ./example_cello_cli report    [--workload <spec>]      (per-op breakdown)
//   ./example_cello_cli workloads (list registered workload kinds + parameters)
//   ./example_cello_cli configs   (list registry entries)
//   ./example_cello_cli datasets
//
// Every workload parameter (dataset, matrix file, block width, iterations)
// is a spec parameter: "cg:dataset=fv1,n=4,iters=3", "spmv:mm=file.mtx".
// Without a dataset, each kind resolves its own documented default
// (bicgstab -> nasa4704, gnn -> cora, power -> G2_circuit).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cello/cello.hpp"
#include "common/format.hpp"
#include "noc/topology.hpp"
#include "score/dependency.hpp"
#include "sim/report.hpp"
#include "sparse/datasets.hpp"
#include "trace/trace.hpp"

namespace {

using namespace cello;

struct Options {
  std::string command = "run";
  std::vector<std::string> workloads;  ///< registry spec strings; empty = {"cg"}
  std::string config = "all";
  std::optional<double> bw_gbps;  ///< default 1000
  std::optional<Bytes> sram_mib;  ///< default 4
  std::optional<u32> jobs;  ///< sweep: worker threads; 0 = hardware concurrency
  std::optional<std::string> nodes;     ///< run: one count; sweep: comma list
  std::optional<std::string> topology;  ///< run: one spec; sweep: comma list
  std::optional<std::string> shard;       ///< "i/k" slice of the sweep grid
  std::optional<std::string> shard_mode;  ///< contiguous (default) | strided
  std::optional<std::string> out;      ///< sweep: write results here (.json/.csv)
  std::optional<std::string> checkpoint;  ///< sweep: crash-safe cell journal path
  bool resume = false;                    ///< sweep: continue from the journal
  bool keep_going = false;                ///< sweep: quarantine failing cells
  u32 retries = 0;                        ///< sweep: extra attempts per failing cell
  std::optional<std::string> trace;  ///< run/sweep: Chrome trace_event output path
  std::vector<std::string> trace_cells;  ///< sweep: "W,C" / "W,F,C" cells, or "all"
  std::vector<std::string> positional;  ///< merge: <out.json> <shard.json>...
};

/// `text` as a whole decimal integer in [lo, hi]; a sign, a suffix or an
/// out-of-range value is an error naming `flag`.
u64 parse_uint(const char* flag, const std::string& text, u64 lo, u64 hi) {
  u64 value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end || value < lo || value > hi)
    throw Error(std::string(flag) + " expects an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got '" + text + "'");
  return value;
}

constexpr u64 kMaxI64 = static_cast<u64>(std::numeric_limits<i64>::max());

/// One `--nodes` chip count; resolve_topology checks it against the fabric.
i64 parse_nodes(const std::string& text) {
  return static_cast<i64>(parse_uint("--nodes", text, 1, kMaxI64));
}

/// `text` as a whole positive finite number; anything else names `flag`.
double parse_positive(const char* flag, const std::string& text) {
  char* stop = nullptr;
  const double value = std::strtod(text.c_str(), &stop);
  if (text.empty() || *stop != '\0' || !std::isfinite(value) || value <= 0)
    throw Error(std::string(flag) + " expects a positive finite number, got '" + text + "'");
  return value;
}

Options parse(int argc, char** argv) {
  Options o;
  if (argc > 1 && argv[1][0] != '-') o.command = argv[1];
  for (int i = 2; i + 1 < argc + 1; ++i) {
    auto next = [&](const char* flag) -> std::optional<std::string> {
      if (std::strcmp(argv[i], flag) != 0) return std::nullopt;
      if (i + 1 >= argc) throw Error(std::string("flag ") + flag + " expects a value");
      return std::string(argv[++i]);
    };
    if (auto v = next("--workload")) o.workloads.push_back(*v);
    else if (auto v6 = next("--bw")) o.bw_gbps = parse_positive("--bw", *v6);
    // MiB: the byte count (x 2^20) must still fit in Bytes.
    else if (auto v7 = next("--sram")) o.sram_mib = parse_uint("--sram", *v7, 1, ~Bytes{0} >> 20);
    else if (auto v8 = next("--config")) o.config = *v8;
    else if (auto v9 = next("--jobs"))
      o.jobs = static_cast<u32>(parse_uint("--jobs", *v9, 0, ~u32{0}));
    else if (auto vn = next("--nodes")) o.nodes = *vn;
    else if (auto vt = next("--topology")) o.topology = *vt;
    else if (auto v10 = next("--shard")) o.shard = *v10;
    else if (auto v11 = next("--shard-mode")) o.shard_mode = *v11;
    else if (auto v12 = next("--out")) o.out = *v12;
    else if (auto v13 = next("--checkpoint")) o.checkpoint = *v13;
    else if (auto v14 = next("--retries"))
      o.retries = static_cast<u32>(parse_uint("--retries", *v14, 0, ~u32{0}));
    else if (auto v15 = next("--trace")) o.trace = *v15;
    else if (auto v16 = next("--trace-cell")) o.trace_cells.push_back(*v16);
    else if (std::strcmp(argv[i], "--resume") == 0) o.resume = true;
    else if (std::strcmp(argv[i], "--keep-going") == 0) o.keep_going = true;
    else if (argv[i][0] == '-')
      // A typo'd flag ("--shards 2/3") must not silently run a different
      // sweep whose mistake only surfaces at merge time; a known flag with
      // its value missing throws from next() above.
      throw Error(std::string("unknown flag: ") + argv[i]);
    else o.positional.push_back(argv[i]);
  }
  if (o.command != "merge" && !o.positional.empty())
    throw Error("unexpected argument: " + o.positional.front());
  // Flags a command does not consume are rejected rather than silently
  // ignored ("run --out x.json" must not print a table and write nothing;
  // "merge --workload gnn" must not merge an unrelated grid without comment).
  if (o.command != "sweep" && (o.shard || o.out || o.shard_mode))
    throw Error("--shard/--shard-mode/--out apply only to the sweep command");
  if (o.command != "sweep" &&
      (o.jobs || o.checkpoint || o.resume || o.keep_going || o.retries != 0))
    throw Error(
        "--jobs/--checkpoint/--resume/--keep-going/--retries apply only to the sweep command");
  if ((o.nodes || o.topology) && o.command != "sweep" && o.command != "run")
    throw Error("--nodes/--topology apply only to the run and sweep commands");
  if (o.topology && !o.nodes)
    throw Error("--topology needs --nodes to know how many chips to lay out");
  if (o.resume && !o.checkpoint)
    throw Error("--resume needs --checkpoint <journal> to know what to resume from");
  if (o.trace && o.command != "run" && o.command != "sweep")
    throw Error("--trace applies only to the run and sweep commands");
  if (!o.trace_cells.empty() && o.command != "sweep")
    throw Error("--trace-cell applies only to the sweep command");
  if (!o.trace_cells.empty() && !o.trace)
    throw Error("--trace-cell needs --trace <out.json> for the events to land in");
  if (o.command == "sweep" && o.trace && o.trace_cells.empty())
    throw Error("sweep --trace needs --trace-cell to pick the traced cells");
  if (std::find(o.trace_cells.begin(), o.trace_cells.end(), "all") != o.trace_cells.end() &&
      o.trace_cells.size() != 1)
    throw Error("--trace-cell all already traces every cell: pass it alone");
  if (o.trace && o.command != "sweep") {
    if (o.workloads.size() > 1)
      throw Error("--trace records one run: pass exactly one --workload");
    if (o.config == "all")
      throw Error("--trace records one run: pick a single --config (not 'all')");
  }
  if (o.command == "merge" &&
      (!o.workloads.empty() || o.bw_gbps || o.sram_mib || o.config != "all"))
    throw Error("merge takes only file arguments: merge <out.json> <shard.json>...");
  if (o.workloads.empty()) o.workloads.push_back("cg");
  return o;
}

int list_configs() {
  TextTable t({"name", "schedule", "buffer", "composition"});
  const auto& registry = sim::ConfigRegistry::global();
  for (const auto& name : registry.names()) {
    const auto& c = registry.at(name);
    t.add_row({c.name, sim::to_string(c.schedule), c.buffer_name, c.describe()});
  }
  std::cout << t.to_string();
  return 0;
}

int list_workloads() {
  const auto& registry = sim::WorkloadRegistry::global();
  for (const auto& name : registry.names()) {
    const auto& kind = registry.at(name);
    std::cout << kind.name << " — " << kind.description << "\n";
    for (const auto& p : kind.params)
      std::cout << "    " << p.name << "=" << p.default_value << "  " << p.doc << "\n";
  }
  std::cout << "\nspec grammar: kind[:k=v,...]  e.g. \"cg:m=65536,n=16,iters=10\", "
               "\"gnn:cora\", \"spmv:mm=file.mtx\"\n";
  return 0;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write '" + path + "'");
  out << content;
  if (!out.flush()) throw Error("failed writing '" + path + "'");
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  size_t at = 0;
  while (at <= text.size()) {
    const size_t comma = text.find(',', at);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    out.push_back(text.substr(at, end - at));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
}

/// Cross "--nodes 1,4,16" with "--topology mesh,torus" into the canonical
/// fabric axis, nodes-major ("1", "mesh:2x2", "torus:2x2", "mesh:4x4", ...).
/// A single chip has no fabric, so n=1 collapses to one "1" entry whatever
/// the topology list says; resolve_topology validates each (kind, count)
/// pair, including explicit shapes that contradict a count.
std::vector<std::string> fabric_specs(const Options& o) {
  if (!o.nodes) return {};
  const std::vector<std::string> topos =
      o.topology ? split_csv(*o.topology) : std::vector<std::string>{"mesh"};
  std::vector<std::string> fabs;
  for (const std::string& count_text : split_csv(*o.nodes)) {
    const i64 count = parse_nodes(count_text);
    for (const std::string& topo : topos) {
      const std::string spec = noc::resolve_topology(topo, count).to_string();
      if (std::find(fabs.begin(), fabs.end(), spec) == fabs.end()) fabs.push_back(spec);
    }
  }
  return fabs;
}

/// "--trace-cell W,C" — or "W,F,C" when the grid has a fabric axis — with
/// 0-based workload/fabric/configuration indices; returns the flattened
/// row-major cell id.  Out-of-range indices are rejected here, with the axis
/// extents, instead of surfacing as an anonymous grid-bounds error later.
size_t parse_trace_cell(const std::string& text, const sim::SweepGrid& grid) {
  const std::vector<std::string> parts = split_csv(text);
  if (parts.size() != 2 && parts.size() != 3)
    throw Error("--trace-cell expects W,C or W,F,C (0-based indices), got '" + text + "'");
  std::vector<size_t> idx;
  for (const auto& part : parts)
    idx.push_back(parse_uint("--trace-cell", part, 0, std::numeric_limits<size_t>::max()));
  if (parts.size() == 2 && grid.has_fabric_axis())
    throw Error("this sweep has a fabric axis: --trace-cell needs W,F,C");
  const size_t wi = idx[0];
  const size_t fi = parts.size() == 3 ? idx[1] : 0;
  const size_t ci = parts.size() == 3 ? idx[2] : idx[1];
  if (wi >= grid.workloads.size() || fi >= grid.fabrics.size() || ci >= grid.configs.size())
    throw Error("--trace-cell " + text + " outside the grid (" +
                std::to_string(grid.workloads.size()) + " workloads x " +
                std::to_string(grid.fabrics.size()) + " fabrics x " +
                std::to_string(grid.configs.size()) + " configs)");
  return (wi * grid.fabrics.size() + fi) * grid.configs.size() + ci;
}

/// Per-cell trace file naming: "out.json" + cell 7 -> "out.cell7.json" (no
/// extension: "out" -> "out.cell7").  N is the flattened row-major cell id —
/// the same number --trace-cell's W,C / W,F,C indices flatten to — so a file
/// maps back to its grid coordinates without opening it.
std::string trace_cell_path(const std::string& base, size_t cell) {
  const size_t slash = base.find_last_of('/');
  const size_t dot = base.find_last_of('.');
  const std::string tag = ".cell" + std::to_string(cell);
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return base + tag;
  return base.substr(0, dot) + tag + base.substr(dot);
}

/// "--shard i/k" with 1-based i in [1, k]; plan_shard re-validates the range.
/// Both numbers must consume their whole token — "2/3x" must not silently
/// run shard 2/3.
void parse_shard_flag(const std::string& text, u32& index, u32& count) {
  const auto fail = [&]() -> u32 {
    throw Error("--shard expects i/k (e.g. 2/3), got '" + text + "'");
  };
  const size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) fail();
  const auto parse_u32 = [&](const std::string& part) -> u32 {
    if (part.empty() || part.find_first_not_of("0123456789") != std::string::npos)
      return fail();
    char* end = nullptr;
    const unsigned long v = std::strtoul(part.c_str(), &end, 10);
    if (end != part.c_str() + part.size() || v > 0xffffffffUL) return fail();
    return static_cast<u32>(v);
  };
  index = parse_u32(text.substr(0, slash));
  count = parse_u32(text.substr(slash + 1));
}

int merge_command(const Options& o) {
  if (o.positional.size() < 2) {
    std::cerr << "usage: cello_cli merge <out.json> <shard.json>...\n";
    return 1;
  }
  std::vector<sim::ShardResult> shards;
  shards.reserve(o.positional.size() - 1);
  // shard_from_json_file prefixes every load/parse failure with its path, so
  // one bad file among dozens is quarantined by name instead of aborting the
  // merge with an anonymous parse error.
  for (size_t i = 1; i < o.positional.size(); ++i)
    shards.push_back(sim::shard_from_json_file(o.positional[i]));
  const size_t shard_count = shards.size();
  sim::ShardResult full;
  full.grid = shards.front().grid;
  full.results = sim::merge_shards(std::move(shards));
  // A merged file IS a full single-process result file: shard 1 of 1.
  full.plan = sim::plan_shard(full.grid, 1, 1, sim::ShardMode::Contiguous);
  write_file(o.positional[0], sim::shard_to_json(full));
  std::cout << "merged " << shard_count << " shard(s), " << full.results.size()
            << " cells -> " << o.positional[0] << "\n";
  return 0;
}

void print_workload(const sim::Workload& wl) {
  std::cout << "workload: " << wl.name << "  (" << wl.dag->ops().size() << " ops, "
            << wl.dag->edges().size() << " edges)";
  if (wl.matrix)
    std::cout << "  matrix: M=" << wl.matrix->rows() << " nnz=" << wl.matrix->nnz();
  else
    std::cout << "  matrix: shape-only";
  std::cout << "\n";
}

}  // namespace

int run_cli(int argc, char** argv) {
  const Options o = parse(argc, argv);

  if (o.command == "configs") return list_configs();
  if (o.command == "workloads") return list_workloads();

  if (o.command == "datasets") {
    TextTable t({"name", "workload", "rows", "nnz", "GNN N", "GNN O"});
    for (const auto& d : sparse::table6_datasets())
      t.add_row({d.name, d.workload, std::to_string(d.rows), std::to_string(d.nnz),
                 std::to_string(d.gnn_in_features), std::to_string(d.gnn_out_features)});
    std::cout << t.to_string();
    return 0;
  }

  // Pure file-to-file recombination: no workloads are built or simulated.
  if (o.command == "merge") return merge_command(o);

  // Validate the command before building workloads: a typo must not trigger
  // (or mask its error behind) DAG and matrix construction.
  if (o.command != "classify" && o.command != "report" && o.command != "sweep" &&
      o.command != "run") {
    std::cerr << "unknown command: " << o.command << "\n";
    return 1;
  }

  sim::AcceleratorConfig arch;
  arch.dram_bytes_per_sec = o.bw_gbps.value_or(1000) * 1e9;
  arch.sram_bytes = o.sram_mib.value_or(4) * 1024 * 1024;
  if (o.nodes && o.command != "sweep") {
    // run: one fabric on the arch itself (sweeps ride the grid's
    // fabric axis instead, keeping the shared arch single-node).
    if (o.nodes->find(',') != std::string::npos)
      throw Error("run takes a single --nodes count; comma lists are for sweep");
    if (o.topology && o.topology->find(',') != std::string::npos)
      throw Error("run takes a single --topology; comma lists are for sweep");
    const noc::TopologySpec spec =
        noc::resolve_topology(o.topology.value_or("mesh"), parse_nodes(*o.nodes));
    arch.nodes = spec.nodes();
    arch.topology = spec.to_string();
  }

  {
    if (o.command == "sweep") {
      // Every workload row under every registered configuration, fanned
      // across a thread pool; each row shares one immutable DAG and one
      // schedule per schedule policy.  Ordering is deterministic.  The grid
      // is pinned (canonical specs + config names + arch fingerprint) so
      // --shard slices taken on different machines merge back losslessly —
      // and resolution happens inside run_shard, scoped to the shard, so a
      // slice never builds (or needs the datasets of) rows it does not run.
      const sim::SweepGrid grid = sim::make_grid(
          o.workloads, sim::ConfigRegistry::global().names(), arch, fabric_specs(o));
      u32 shard_index = 1, shard_count = 1;
      if (o.shard) parse_shard_flag(*o.shard, shard_index, shard_count);
      const sim::ShardPlan plan = sim::plan_shard(
          grid, shard_index, shard_count,
          sim::shard_mode_from_string(o.shard_mode.value_or("contiguous")));
      sim::SweepOptions sweep_options;
      sweep_options.keep_going = o.keep_going;
      sweep_options.retries = o.retries;
      sweep_options.checkpoint = o.checkpoint.value_or("");
      sweep_options.resume = o.resume;
      std::ofstream trace_stream;
      std::optional<trace::ChromeTraceWriter> tracer;
      // Multi-cell tracing: one lazily-created writer per traced cell (the
      // callback runs on pool workers, hence the mutex), each writing to the
      // --trace path with ".cell<id>" spliced in before the extension.
      struct CellTrace {
        std::string path;
        std::ofstream stream;
        std::optional<trace::ChromeTraceWriter> writer;
      };
      std::map<size_t, CellTrace> cell_traces;
      std::mutex cell_traces_mu;
      const bool trace_all = !o.trace_cells.empty() && o.trace_cells.front() == "all";
      if (o.trace && o.trace_cells.size() == 1 && !trace_all) {
        // One named cell keeps the historical behavior: the trace lands at
        // the --trace path itself, no ".cell<id>" tag.
        const size_t cell = parse_trace_cell(o.trace_cells.front(), grid);
        if (std::find(plan.cells.begin(), plan.cells.end(), cell) == plan.cells.end())
          throw Error("--trace-cell " + o.trace_cells.front() + " (cell " +
                      std::to_string(cell) + ") is not in this shard's slice");
        trace_stream.open(*o.trace, std::ios::binary);
        if (!trace_stream) throw Error("cannot write '" + *o.trace + "'");
        tracer.emplace(trace_stream);
        sweep_options.trace_sink_for = [cell, sink = &*tracer](size_t c) -> trace::TraceSink* {
          return c == cell ? sink : nullptr;
        };
      } else if (o.trace) {
        std::set<size_t> selected;
        if (!trace_all) {
          for (const auto& text : o.trace_cells) {
            const size_t cell = parse_trace_cell(text, grid);
            if (std::find(plan.cells.begin(), plan.cells.end(), cell) == plan.cells.end())
              throw Error("--trace-cell " + text + " (cell " + std::to_string(cell) +
                          ") is not in this shard's slice");
            selected.insert(cell);
          }
        }
        sweep_options.trace_sink_for =
            [&cell_traces, &cell_traces_mu, &o, trace_all,
             selected = std::move(selected)](size_t cell) -> trace::TraceSink* {
          if (!trace_all && selected.find(cell) == selected.end()) return nullptr;
          std::lock_guard<std::mutex> lock(cell_traces_mu);
          auto it = cell_traces.find(cell);
          if (it == cell_traces.end()) {
            it = cell_traces.try_emplace(cell).first;
            it->second.path = trace_cell_path(*o.trace, cell);
            it->second.stream.open(it->second.path, std::ios::binary);
            if (!it->second.stream) throw Error("cannot write '" + it->second.path + "'");
            it->second.writer.emplace(it->second.stream);
          }
          return &*it->second.writer;
        };
      }
      const sim::SweepRunner runner(o.jobs.value_or(0));
      auto cells = runner.run_shard(grid, plan, sweep_options);
      if (tracer) {
        tracer->finish();
        if (!trace_stream.flush()) throw Error("failed writing '" + *o.trace + "'");
        std::cout << "wrote trace " << *o.trace << " (" << tracer->events() << " events)\n";
      }
      for (auto& [cell, ct] : cell_traces) {
        ct.writer->finish();
        if (!ct.stream.flush()) throw Error("failed writing '" + ct.path + "'");
        std::cout << "wrote trace " << ct.path << " (cell " << cell << ", "
                  << ct.writer->events() << " events)\n";
      }
      size_t failed = 0;
      for (const auto& cell : cells)
        if (!cell.ok()) ++failed;
      if (o.out) {
        // A CSV export drops the grid/plan metadata merge needs; a shard of
        // a split sweep written as CSV would be unrecoverable.
        if (o.out->ends_with(".csv") && plan.count > 1)
          throw Error("CSV cannot describe a mergeable shard; use a .json --out with --shard");
        if (o.out->ends_with(".csv")) {
          write_file(*o.out, sim::results_to_csv(cells));
        } else {
          sim::ShardResult shard{grid, plan, std::move(cells)};
          write_file(*o.out, sim::shard_to_json(shard));
        }
        std::cout << "wrote " << *o.out << " (shard " << plan.index << "/" << plan.count
                  << ", " << plan.cells.size() << " of " << grid.cells() << " cells)\n";
        if (failed > 0) {
          std::cerr << "warning: " << failed << " of " << plan.cells.size()
                    << " cells failed and were quarantined (--keep-going)\n";
          return 2;
        }
        return 0;
      }
      const bool fabric_axis = grid.has_fabric_axis();
      TextTable t(fabric_axis
                      ? std::vector<std::string>{"workload", "fabric", "config", "GMACs/s",
                                                 "time", "DRAM traffic", "NoC traffic",
                                                 "par eff"}
                      : std::vector<std::string>{"workload", "config", "GMACs/s", "time",
                                                 "DRAM traffic"});
      for (const auto& cell : cells) {
        std::vector<std::string> row{cell.workload};
        if (fabric_axis) row.push_back(cell.fabric.empty() ? "1" : cell.fabric);
        row.push_back(cell.config);
        if (!cell.ok()) {
          row.insert(row.end(), fabric_axis ? 5 : 3, "-");
          row[fabric_axis ? 3 : 2] = "FAILED";
        } else {
          row.push_back(format_double(cell.metrics.gmacs_per_sec(), 2));
          row.push_back(format_double(cell.metrics.seconds * 1e6, 1) + " us");
          row.push_back(format_bytes(static_cast<double>(cell.metrics.dram_bytes)));
          if (fabric_axis) {
            row.push_back(cell.metrics.nodes > 1
                              ? format_bytes(static_cast<double>(cell.metrics.noc_bytes))
                              : std::string("-"));
            row.push_back(cell.metrics.nodes > 1
                              ? format_double(cell.metrics.parallel_efficiency, 2)
                              : std::string("-"));
          }
        }
        t.add_row(std::move(row));
      }
      std::cout << t.to_string();
      if (failed > 0) {
        for (const auto& cell : cells)
          if (!cell.ok()) std::cerr << "failed: " << cell.error << "\n";
        std::cerr << "warning: " << failed << " of " << plan.cells.size()
                  << " cells failed and were quarantined (--keep-going)\n";
        return 2;
      }
      return 0;
    }

    // Resolve through the registry: each distinct spec's DAG is built once
    // and shared immutably with every command below.
    std::vector<sim::Workload> workloads;
    workloads.reserve(o.workloads.size());
    for (const auto& spec : o.workloads)
      workloads.push_back(sim::WorkloadRegistry::global().resolve(spec));

    if (o.command == "classify") {
      for (const sim::Workload& wl : workloads) {
        print_workload(wl);
        const auto cls = score::classify_scheduled(*wl.dag, wl.dag->topo_order());
        TextTable t({"edge", "tensor", "dependency"});
        for (const auto& e : wl.dag->edges())
          t.add_row({wl.dag->op(e.src).name + " -> " + wl.dag->op(e.dst).name,
                     wl.dag->tensor(e.tensor).name, score::to_string(cls.edge_kind[e.id])});
        std::cout << t.to_string();
      }
      return 0;
    }
    if (o.command == "report") {
      for (const sim::Workload& wl : workloads) {
        print_workload(wl);
        const sim::Simulator simulator(arch, wl.matrix.get());
        const auto m = simulator.run(*wl.dag, sim::ConfigRegistry::global().at("Cello"));
        std::cout << "Cello per-op breakdown:\n" << sim::per_op_report(m, arch) << "\n";
        std::cout << "Traffic by tensor:\n" << sim::per_tensor_report(m);
      }
      return 0;
    }
    // run
    const sim::Configuration* config =
        o.config == "all" ? nullptr : sim::ConfigRegistry::global().find(o.config);
    if (o.config != "all" && config == nullptr) {
      std::cerr << "unknown config: " << o.config << " (use 'all' or one of:";
      for (const auto& name : sim::ConfigRegistry::global().names()) std::cerr << " " << name;
      std::cerr << ")\n";
      return 1;
    }
    for (const sim::Workload& wl : workloads) {
      print_workload(wl);
      if (config == nullptr) {
        std::cout << compare_table(*wl.dag, arch, wl.matrix.get()) << "\n";
        continue;
      }
      const sim::Simulator simulator(arch, wl.matrix.get());
      sim::RunArtifacts artifacts;
      std::ofstream trace_stream;
      std::optional<trace::ChromeTraceWriter> tracer;
      if (o.trace) {
        trace_stream.open(*o.trace, std::ios::binary);
        if (!trace_stream) throw Error("cannot write '" + *o.trace + "'");
        tracer.emplace(trace_stream);
        artifacts.trace = &*tracer;
      }
      const auto m = simulator.run(*wl.dag, *config, artifacts);
      std::cout << config->name << " (" << config->describe() << "): "
                << format_double(m.gmacs_per_sec(), 1) << " GMACs/s, "
                << format_bytes(static_cast<double>(m.dram_bytes)) << " DRAM, "
                << format_double(m.seconds * 1e6, 1) << " us\n";
      if (tracer) {
        tracer->finish();
        if (!trace_stream.flush()) throw Error("failed writing '" + *o.trace + "'");
        std::cout << "wrote trace " << *o.trace << " (" << tracer->events() << " events)\n";
      }
    }
    return 0;
  }
}

int main(int argc, char** argv) {
  // Catches cello::Error (bad specs, unknown datasets, unreadable .mtx) and
  // the std:: exceptions the numeric flag parsing can throw.
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
