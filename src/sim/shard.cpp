#include "sim/shard.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include <fstream>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "noc/topology.hpp"
#include "score/schedule.hpp"
#include "sim/registry.hpp"
#include "sim/result_io.hpp"
#include "sim/simulator.hpp"
#include "sim/workload_spec.hpp"

namespace cello::sim {

namespace {

const char* kFormatTag = "cello-sweep/1";

const char* pipeline_style_name(PipelineStyle s) {
  return s == PipelineStyle::Parallel ? "parallel" : "sequential";
}

PipelineStyle pipeline_style_from_name(const std::string& text) {
  if (text == "parallel") return PipelineStyle::Parallel;
  if (text == "sequential") return PipelineStyle::Sequential;
  throw Error("unknown pipeline style '" + text + "' (expected parallel|sequential)");
}

std::string fingerprint_string(u64 fp) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

u64 fingerprint_from_string(const std::string& text) {
  if (text.size() != 18 || text[0] != '0' || text[1] != 'x')
    throw Error("malformed grid fingerprint '" + text + "'");
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str() + 2, &end, 16);
  if (end != text.c_str() + text.size())
    throw Error("malformed grid fingerprint '" + text + "'");
  return static_cast<u64>(v);
}

/// FNV-1a 64-bit over one token, folding a terminator so "ab"+"c" and
/// "a"+"bc" hash differently.
u64 fnv1a(u64 h, const std::string& token) {
  for (const unsigned char c : token) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= 0xffu;
  h *= 1099511628211ull;
  return h;
}

void arch_to_json(std::string& out, const AcceleratorConfig& a, int indent) {
  const std::string in(static_cast<size_t>(indent), ' ');
  const std::string in2(static_cast<size_t>(indent) + 2, ' ');
  out += "{\n";
  out += in2 + "\"sram_bytes\": " + std::to_string(a.sram_bytes) + ",\n";
  out += in2 + "\"num_macs\": " + std::to_string(a.num_macs) + ",\n";
  out += in2 + "\"clock_hz\": \"" + hex_double(a.clock_hz) + "\",\n";
  out += in2 + "\"line_bytes\": " + std::to_string(a.line_bytes) + ",\n";
  out += in2 + "\"cache_associativity\": " + std::to_string(a.cache_associativity) + ",\n";
  out += in2 + "\"dram_bytes_per_sec\": \"" + hex_double(a.dram_bytes_per_sec) + "\",\n";
  out += in2 + "\"dram_energy_pj_per_byte\": \"" + hex_double(a.dram_energy_pj_per_byte) +
         "\",\n";
  out += in2 + "\"rf_bytes\": " + std::to_string(a.rf_bytes) + ",\n";
  out += in2 + "\"hold_budget_bytes\": " + std::to_string(a.hold_budget_bytes) + ",\n";
  out += in2 + "\"chord_entries\": " + std::to_string(a.chord_entries) + ",\n";
  out += in2 + "\"pipeline_style\": \"" + pipeline_style_name(a.pipeline_style) + "\"";
  // Multi-chip parameters are emitted only when they differ from the
  // single-chip defaults, so classic grids keep their serialized form (and
  // fingerprints, which hash this JSON) byte-identical.
  const AcceleratorConfig defaults;
  if (a.nodes != defaults.nodes) out += ",\n" + in2 + "\"nodes\": " + std::to_string(a.nodes);
  if (a.topology != defaults.topology)
    out += ",\n" + in2 + "\"topology\": \"" + json_escape(a.topology) + "\"";
  if (a.noc_link_bytes_per_sec != defaults.noc_link_bytes_per_sec)
    out += ",\n" + in2 + "\"noc_link_bytes_per_sec\": \"" + hex_double(a.noc_link_bytes_per_sec) +
           "\"";
  if (a.noc_hop_seconds != defaults.noc_hop_seconds)
    out += ",\n" + in2 + "\"noc_hop_seconds\": \"" + hex_double(a.noc_hop_seconds) + "\"";
  if (a.noc_energy_pj_per_byte != defaults.noc_energy_pj_per_byte)
    out += ",\n" + in2 + "\"noc_energy_pj_per_byte\": \"" +
           hex_double(a.noc_energy_pj_per_byte) + "\"";
  out += "\n" + in + "}";
}

std::string arch_json(const AcceleratorConfig& a) {
  std::string out;
  arch_to_json(out, a, 0);
  return out;
}

/// A u32 arch field: a value past 2^32 - 1 is refused, not wrapped (a file
/// saying line_bytes 2^32 + 16 would otherwise load as 16).
u32 arch_u32(const JsonValue& v, const char* key) {
  const u64 x = v.at(key).as_u64();
  if (x > 0xffffffffull)
    throw Error(std::string("arch: ") + key + " " + std::to_string(x) + " does not fit in 32 bits");
  return static_cast<u32>(x);
}

AcceleratorConfig arch_from_json(const JsonValue& v) {
  if (v.type != JsonValue::Type::Object) throw Error("arch: expected a JSON object");
  reject_unknown_keys(v,
                      {"sram_bytes", "num_macs", "clock_hz", "line_bytes",
                       "cache_associativity", "dram_bytes_per_sec",
                       "dram_energy_pj_per_byte", "rf_bytes", "hold_budget_bytes",
                       "chord_entries", "pipeline_style", "nodes", "topology",
                       "noc_link_bytes_per_sec", "noc_hop_seconds", "noc_energy_pj_per_byte"},
                      "arch");
  AcceleratorConfig a;
  a.sram_bytes = v.at("sram_bytes").as_u64();
  a.num_macs = v.at("num_macs").as_i64();
  a.clock_hz = v.at("clock_hz").as_double();
  a.line_bytes = arch_u32(v, "line_bytes");
  a.cache_associativity = arch_u32(v, "cache_associativity");
  a.dram_bytes_per_sec = v.at("dram_bytes_per_sec").as_double();
  a.dram_energy_pj_per_byte = v.at("dram_energy_pj_per_byte").as_double();
  a.rf_bytes = v.at("rf_bytes").as_u64();
  a.hold_budget_bytes = v.at("hold_budget_bytes").as_u64();
  a.chord_entries = arch_u32(v, "chord_entries");
  a.pipeline_style = pipeline_style_from_name(v.at("pipeline_style").as_string());
  // Conditionally-emitted multi-chip parameters: absent = defaults.
  if (const JsonValue* nodes = v.find("nodes")) a.nodes = nodes->as_i64();
  if (const JsonValue* topology = v.find("topology")) a.topology = topology->as_string();
  if (const JsonValue* bw = v.find("noc_link_bytes_per_sec"))
    a.noc_link_bytes_per_sec = bw->as_double();
  if (const JsonValue* hop = v.find("noc_hop_seconds")) a.noc_hop_seconds = hop->as_double();
  if (const JsonValue* e = v.find("noc_energy_pj_per_byte"))
    a.noc_energy_pj_per_byte = e->as_double();
  return a;
}

/// Full grid agreement: fingerprint AND the definition it summarizes, so a
/// fingerprint collision cannot silently merge different grids.
bool same_grid(const SweepGrid& a, const SweepGrid& b) {
  return a.fingerprint == b.fingerprint && a.workloads == b.workloads &&
         a.fabrics == b.fabrics && a.configs == b.configs &&
         arch_json(a.arch) == arch_json(b.arch);
}

std::string shard_label(const ShardPlan& plan) {
  return std::to_string(plan.index) + "/" + std::to_string(plan.count);
}

}  // namespace

const char* to_string(ShardMode m) {
  return m == ShardMode::Contiguous ? "contiguous" : "strided";
}

ShardMode shard_mode_from_string(const std::string& text) {
  if (text == "contiguous") return ShardMode::Contiguous;
  if (text == "strided") return ShardMode::Strided;
  throw Error("unknown shard mode '" + text + "' (expected contiguous|strided)");
}

u64 grid_fingerprint(const SweepGrid& grid) {
  u64 h = 14695981039346656037ull;
  h = fnv1a(h, kFormatTag);
  for (const std::string& spec : grid.workloads) h = fnv1a(h, "w:" + spec);
  // The fabric axis folds in only when present, so classic two-axis grids
  // keep the fingerprints their existing shard files and journals carry.
  if (grid.has_fabric_axis())
    for (const std::string& fabric : grid.fabrics) h = fnv1a(h, "f:" + fabric);
  const Simulator scheduler(grid.arch);
  const auto& registry = ConfigRegistry::global();
  for (const std::string& name : grid.configs) {
    const Configuration& c = registry.at(name);
    const score::ScheduleOptions opts = scheduler.schedule_options(c);
    std::ostringstream os;
    // The "-|-" fills two retired slots (per-configuration pipeline-style
    // and hold-budget overrides), so existing grids keep their fingerprints.
    os << "c:" << c.name << '|' << to_string(c.schedule) << '|' << c.buffer_name << '|'
       << c.allow_delayed_hold << "|-|-|" << opts.rf_bytes << '|' << opts.enable_pipelining
       << '|' << opts.minimize_swizzle;
    h = fnv1a(h, os.str());
  }
  h = fnv1a(h, "arch:" + arch_json(grid.arch));
  return h;
}

SweepGrid make_grid(const std::vector<std::string>& workload_specs,
                    const std::vector<std::string>& config_names,
                    const AcceleratorConfig& arch,
                    const std::vector<std::string>& fabrics) {
  CELLO_CHECK_MSG(!workload_specs.empty() && !config_names.empty(),
                  "a sweep grid needs at least one workload and one configuration");
  CELLO_CHECK_MSG(arch.nodes == 1,
                  "grid arch must be single-node; sweep node counts via the fabric axis");
  SweepGrid grid;
  grid.workloads.reserve(workload_specs.size());
  for (const std::string& text : workload_specs)
    grid.workloads.push_back(WorkloadSpec::parse(text).to_string());
  if (!fabrics.empty()) {
    grid.fabrics.clear();
    for (const std::string& text : fabrics) {
      const std::string canonical = noc::TopologySpec::parse(text).to_string();
      CELLO_CHECK_MSG(std::find(grid.fabrics.begin(), grid.fabrics.end(), canonical) ==
                          grid.fabrics.end(),
                      "duplicate fabric '" << text << "' (canonical '" << canonical
                                           << "') in the sweep grid");
      grid.fabrics.push_back(canonical);
    }
  }
  grid.configs.reserve(config_names.size());
  const auto& registry = ConfigRegistry::global();
  for (const std::string& name : config_names)
    grid.configs.push_back(registry.at(name).name);  // normalized registered name
  grid.arch = arch;
  grid.fingerprint = grid_fingerprint(grid);
  return grid;
}

ShardPlan plan_shard(const SweepGrid& grid, u32 index, u32 count, ShardMode mode) {
  CELLO_CHECK_MSG(count >= 1, "shard count must be >= 1");
  CELLO_CHECK_MSG(index >= 1 && index <= count,
                  "shard index " << index << " outside 1.." << count);
  // A 1/1 plan holds every cell under either mode; canonicalize it so full
  // and merged result files are byte-identical regardless of the --shard-mode
  // the sweeps ran with.
  if (count == 1) mode = ShardMode::Contiguous;
  ShardPlan plan;
  plan.index = index;
  plan.count = count;
  plan.mode = mode;
  const size_t n = grid.cells();
  const size_t z = index - 1;  // 0-based
  if (mode == ShardMode::Contiguous) {
    const size_t base = n / count;
    const size_t rem = n % count;
    const size_t begin = z * base + std::min<size_t>(z, rem);
    const size_t len = base + (z < rem ? 1 : 0);
    plan.cells.reserve(len);
    for (size_t j = 0; j < len; ++j) plan.cells.push_back(begin + j);
  } else {
    plan.cells.reserve(n / count + 1);
    for (size_t c = z; c < n; c += count) plan.cells.push_back(c);
  }
  return plan;
}

std::string shard_to_json(const ShardResult& shard) {
  const SweepGrid& grid = shard.grid;
  std::string out = "{\n";
  out += "  \"format\": \"" + std::string(kFormatTag) + "\",\n";
  out += "  \"grid\": {\n";
  out += "    \"fingerprint\": \"" + fingerprint_string(grid.fingerprint) + "\",\n";
  out += "    \"workloads\": [\n";
  for (size_t i = 0; i < grid.workloads.size(); ++i)
    out += "      \"" + json_escape(grid.workloads[i]) + "\"" +
           (i + 1 < grid.workloads.size() ? ",\n" : "\n");
  out += "    ],\n";
  if (grid.has_fabric_axis()) {
    // Like the NoC arch keys: emitted only when the axis is swept, so
    // classic two-axis shard files stay byte-identical.
    out += "    \"fabrics\": [\n";
    for (size_t i = 0; i < grid.fabrics.size(); ++i)
      out += "      \"" + json_escape(grid.fabrics[i]) + "\"" +
             (i + 1 < grid.fabrics.size() ? ",\n" : "\n");
    out += "    ],\n";
  }
  out += "    \"configs\": [\n";
  for (size_t i = 0; i < grid.configs.size(); ++i)
    out += "      \"" + json_escape(grid.configs[i]) + "\"" +
           (i + 1 < grid.configs.size() ? ",\n" : "\n");
  out += "    ],\n";
  out += "    \"arch\": ";
  arch_to_json(out, grid.arch, 4);
  out += "\n  },\n";
  out += "  \"shard\": { \"index\": " + std::to_string(shard.plan.index) +
         ", \"count\": " + std::to_string(shard.plan.count) + ", \"mode\": \"" +
         to_string(shard.plan.mode) + "\" },\n";
  out += "  \"results\": [";
  if (shard.results.empty()) {
    out += "]\n";
  } else {
    out += "\n";
    for (size_t i = 0; i < shard.results.size(); ++i) {
      out += "    ";
      result_to_json(out, shard.results[i], 4);
      out += (i + 1 < shard.results.size()) ? ",\n" : "\n";
    }
    out += "  ]\n";
  }
  out += "}\n";
  return out;
}

ShardResult shard_from_json(const std::string& text) {
  failpoint::maybe_throw("shard.parse");
  const JsonValue doc = json_parse(text);
  if (doc.type != JsonValue::Type::Object) throw Error("shard file: expected a JSON object");
  reject_unknown_keys(doc, {"format", "grid", "shard", "results"}, "shard file");
  const std::string& format = doc.at("format").as_string();
  if (format != kFormatTag)
    throw Error("shard file: format '" + format + "' is not '" + kFormatTag + "'");

  ShardResult shard;
  const JsonValue& grid_v = doc.at("grid");
  reject_unknown_keys(grid_v, {"fingerprint", "workloads", "fabrics", "configs", "arch"},
                      "shard file grid");
  shard.grid.fingerprint = fingerprint_from_string(grid_v.at("fingerprint").as_string());
  const JsonValue& workloads_v = grid_v.at("workloads");
  const JsonValue& configs_v = grid_v.at("configs");
  if (workloads_v.type != JsonValue::Type::Array || configs_v.type != JsonValue::Type::Array)
    throw Error("shard file grid: workloads/configs must be arrays");
  for (const JsonValue& w : workloads_v.items) shard.grid.workloads.push_back(w.as_string());
  for (const JsonValue& c : configs_v.items) shard.grid.configs.push_back(c.as_string());
  if (shard.grid.workloads.empty() || shard.grid.configs.empty())
    throw Error("shard file grid: empty workload or configuration axis");
  if (const JsonValue* fabrics_v = grid_v.find("fabrics")) {
    if (fabrics_v->type != JsonValue::Type::Array || fabrics_v->items.empty())
      throw Error("shard file grid: fabrics must be a non-empty array");
    shard.grid.fabrics.clear();
    for (const JsonValue& f : fabrics_v->items) {
      const std::string& text = f.as_string();
      // Parse to validate AND require the canonical spelling: a file saying
      // "mesh:4" where the canonical axis says "mesh:2x2" is grid drift.
      if (noc::TopologySpec::parse(text).to_string() != text)
        throw Error("shard file grid: fabric '" + text + "' is not canonical");
      shard.grid.fabrics.push_back(text);
    }
  }
  shard.grid.arch = arch_from_json(grid_v.at("arch"));

  const JsonValue& shard_v = doc.at("shard");
  reject_unknown_keys(shard_v, {"index", "count", "mode"}, "shard file shard");
  const u64 index = shard_v.at("index").as_u64();
  const u64 count = shard_v.at("count").as_u64();
  // The u32 narrowing below must not wrap: a file claiming shard 2^32+1 of
  // 2^32+2 would otherwise be silently reinterpreted as shard 1/2.
  if (count < 1 || index < 1 || index > count || count > 0xffffffffull)
    throw Error("shard file: shard " + std::to_string(index) + "/" + std::to_string(count) +
                " is not a valid 1-based shard of its count");
  const ShardMode mode = shard_mode_from_string(shard_v.at("mode").as_string());
  // Rederive the cell list from (index, count, mode): the file cannot claim
  // cells its plan does not own.
  shard.plan = plan_shard(shard.grid, static_cast<u32>(index), static_cast<u32>(count), mode);

  const JsonValue& results_v = doc.at("results");
  if (results_v.type != JsonValue::Type::Array)
    throw Error("shard file: results must be an array");
  shard.results.reserve(results_v.items.size());
  for (const JsonValue& r : results_v.items) shard.results.push_back(result_from_json(r));

  if (shard.results.size() != shard.plan.cells.size())
    throw Error("shard file " + shard_label(shard.plan) + ": holds " +
                std::to_string(shard.results.size()) + " results but its plan has " +
                std::to_string(shard.plan.cells.size()) + " cells");
  const size_t n_fabrics = shard.grid.fabrics.size();
  const size_t n_configs = shard.grid.configs.size();
  const bool fabric_axis = shard.grid.has_fabric_axis();
  for (size_t j = 0; j < shard.results.size(); ++j) {
    const size_t cell = shard.plan.cells[j];
    const std::string& workload = shard.grid.workloads[cell / (n_fabrics * n_configs)];
    const std::string& fabric =
        fabric_axis ? shard.grid.fabrics[(cell / n_configs) % n_fabrics] : std::string();
    const std::string& config = shard.grid.configs[cell % n_configs];
    if (shard.results[j].workload != workload || shard.results[j].fabric != fabric ||
        shard.results[j].config != config)
      throw Error("shard file " + shard_label(shard.plan) + ": result " + std::to_string(j) +
                  " names (" + shard.results[j].workload + ", " + shard.results[j].fabric +
                  ", " + shard.results[j].config + ") but cell " + std::to_string(cell) +
                  " is (" + workload + ", " + fabric + ", " + config + ")");
  }
  return shard;
}

ShardResult shard_from_json_file(const std::string& path) {
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("shard file '" + path + "': cannot read");
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  try {
    return shard_from_json(text);
  } catch (const std::exception& e) {
    throw Error("shard file '" + path + "': " + e.what());
  }
}

std::vector<SweepResult> merge_shards(std::vector<ShardResult> shards) {
  CELLO_CHECK_MSG(!shards.empty(), "merge needs at least one shard");
  const ShardResult& first = shards.front();
  const u32 count = first.plan.count;
  if (shards.size() != count)
    throw Error("merge: grid is split " + std::to_string(count) + " ways but " +
                std::to_string(shards.size()) + " shard(s) were provided");

  std::vector<char> seen(count, 0);
  std::vector<SweepResult> out(first.grid.cells());
  std::vector<char> filled(out.size(), 0);
  for (ShardResult& shard : shards) {
    if (!same_grid(shard.grid, first.grid))
      throw Error("merge: shard " + shard_label(shard.plan) +
                  " was built against a different grid (fingerprint " +
                  fingerprint_string(shard.grid.fingerprint) + " vs " +
                  fingerprint_string(first.grid.fingerprint) + ")");
    if (shard.plan.count != count)
      throw Error("merge: shard " + shard_label(shard.plan) + " disagrees on the shard count " +
                  std::to_string(count));
    if (shard.plan.mode != first.plan.mode)
      throw Error("merge: shard " + shard_label(shard.plan) + " uses mode " +
                  to_string(shard.plan.mode) + " but the set started with " +
                  to_string(first.plan.mode));
    if (seen[shard.plan.index - 1])
      throw Error("merge: duplicate shard " + shard_label(shard.plan));
    seen[shard.plan.index - 1] = 1;
    // Never trust a hand-built cell list: rederive it from (index, count, mode).
    const ShardPlan plan =
        plan_shard(shard.grid, shard.plan.index, shard.plan.count, shard.plan.mode);
    if (shard.results.size() != plan.cells.size())
      throw Error("merge: shard " + shard_label(shard.plan) + " holds " +
                  std::to_string(shard.results.size()) + " results but its plan has " +
                  std::to_string(plan.cells.size()) + " cells");
    for (size_t j = 0; j < plan.cells.size(); ++j) {
      const size_t cell = plan.cells[j];
      if (filled[cell])
        throw Error("merge: cell " + std::to_string(cell) + " provided twice");
      out[cell] = std::move(shard.results[j]);  // only results move; grids stay valid
      filled[cell] = 1;
    }
  }
  for (u32 i = 0; i < count; ++i)
    if (!seen[i])
      throw Error("merge: missing shard " + std::to_string(i + 1) + "/" +
                  std::to_string(count));
  for (size_t cell = 0; cell < filled.size(); ++cell)
    if (!filled[cell]) throw Error("merge: cell " + std::to_string(cell) + " left unfilled");
  return out;
}

}  // namespace cello::sim
