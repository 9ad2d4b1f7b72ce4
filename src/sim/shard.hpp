// Deterministic partitioning of a {workload x configuration} sweep grid into
// self-describing shards, and the merge that recombines shard result files
// into exactly the row-major order SweepRunner produces.
//
// A SweepGrid pins the full grid definition: canonical workload spec strings,
// registered configuration names, and the accelerator architecture.  Its
// fingerprint also folds in each configuration's schedule options and buffer
// composition, so two machines only produce mergeable shards when they agree
// on the *meaning* of the grid, not just its names — a drifted registry or
// arch refuses to merge loudly instead of interleaving incomparable rows.
//
// Shards are planned, never enumerated by hand: plan_shard(grid, i, k, mode)
// assigns every flattened row-major cell id (workload-major, fabric, then
// configuration — see SweepGrid) to
// exactly one shard i in 1..k, either as one contiguous span per shard or
// strided round-robin.  Shard files store only (i, k, mode) plus the grid;
// the cell list is rederived on load, so a file cannot lie about which cells
// it holds.  merge_shards() then recombines any arrival order into the exact
// row-major result vector a single-process SweepRunner::run of the same grid
// returns, bit for bit.
//
//   grid  = make_grid({"cg:m=9604,n=16", "gnn:cora"}, registry.names(), arch);
//   plan  = plan_shard(grid, /*index=*/2, /*count=*/3);
//   cells = SweepRunner().run_shard(grid, plan);          // this machine's slice
//   text  = shard_to_json({grid, plan, cells});           // ship anywhere
//   ...
//   merged = merge_shards({shard_from_json(f1), ...});    // any order; validated
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/config.hpp"
#include "sim/sweep.hpp"

namespace cello::sim {

enum class ShardMode {
  Contiguous,  ///< shard i holds one contiguous span of row-major cell ids
  Strided,     ///< shard i holds cells i-1, i-1+k, i-1+2k, ... (round-robin)
};

const char* to_string(ShardMode m);
/// Inverse of to_string ("contiguous" / "strided"); throws cello::Error.
ShardMode shard_mode_from_string(const std::string& text);

/// The (workload, fabric, config) labels of one grid cell, as its
/// SweepResult names them: the fabric is "" on a grid without a fabric axis.
/// Views into the grid (or result) they were taken from.
struct CellLabels {
  std::string_view workload, fabric, config;

  static CellLabels of(const SweepResult& r) { return {r.workload, r.fabric, r.config}; }
  bool operator==(const CellLabels&) const = default;
  /// "(workload, fabric, config)", for error messages.
  std::string to_string() const;
};

/// The full grid definition every shard of a distributed sweep must share.
/// Cells are flattened row-major over (workload, fabric, configuration):
/// cell = (wi * fabrics.size() + fi) * configs.size() + ci.  The default
/// single-entry {"1"} fabric axis keeps two-axis grids — their cell ids,
/// fingerprints and serialized form — exactly as before.
struct SweepGrid {
  std::vector<std::string> workloads;  ///< canonical WorkloadSpec strings
  std::vector<std::string> fabrics{"1"};  ///< canonical noc::TopologySpec strings
  std::vector<std::string> configs;    ///< registered configuration names
  AcceleratorConfig arch;
  u64 fingerprint = 0;  ///< grid_fingerprint() of the fields above

  size_t cells() const { return workloads.size() * fabrics.size() * configs.size(); }
  /// True when the grid sweeps fabrics beyond the single-chip default.
  bool has_fabric_axis() const { return fabrics.size() != 1 || fabrics[0] != "1"; }
  /// The labels of flattened cell id `cell` (< cells()).
  CellLabels labels(size_t cell) const;
};

/// Canonicalize and validate a grid: every spec is parsed to its canonical
/// string and every configuration name resolved (and normalized) in the
/// global ConfigRegistry, then the fingerprint is computed.  `fabrics` are
/// noc::TopologySpec strings ("1", "mesh:2x2", "torus:16", ...); empty =
/// the single-chip default.  Throws cello::Error on an empty axis, a
/// malformed or duplicate spec, an unknown config, or a multi-node `arch`
/// (node counts ride the fabric axis, not the shared arch).
SweepGrid make_grid(const std::vector<std::string>& workload_specs,
                    const std::vector<std::string>& config_names,
                    const AcceleratorConfig& arch,
                    const std::vector<std::string>& fabrics = {});

/// FNV-1a over the canonical grid definition: spec strings, configuration
/// names plus their schedule options and buffer composition, and every
/// architecture parameter (doubles in hexfloat).  Shards whose recorded
/// fingerprints differ refuse to merge.
u64 grid_fingerprint(const SweepGrid& grid);

/// One shard's slice of the grid, fully determined by (index, count, mode).
struct ShardPlan {
  u32 index = 1;  ///< 1-based shard id, in [1, count]
  u32 count = 1;
  ShardMode mode = ShardMode::Contiguous;
  std::vector<size_t> cells;  ///< ascending flattened row-major cell ids
};

/// Deterministically partition the grid: over i = 1..count the plans cover
/// every cell exactly once.  Contiguous splits differ in length by at most
/// one cell; strided deals cells round-robin.  A count of 1 canonicalizes to
/// Contiguous (both modes are the full grid), keeping full and merged result
/// files byte-identical whatever mode the sweeps ran with.  Throws
/// cello::Error when index is outside [1, count].
ShardPlan plan_shard(const SweepGrid& grid, u32 index, u32 count,
                     ShardMode mode = ShardMode::Contiguous);

/// A shard's results (plan.cells order) plus everything needed to validate a
/// merge.  A full single-process run is simply shard 1 of count 1.
struct ShardResult {
  SweepGrid grid;
  ShardPlan plan;
  std::vector<SweepResult> results;
};

/// Serialize to the self-describing shard-file JSON ("cello-sweep/1").
/// Byte-deterministic, so a merged file and a full single-process sweep of
/// the same grid are byte-identical.
std::string shard_to_json(const ShardResult& shard);

/// Parse and validate a shard file: format tag, grid (rebuilt with make_grid
/// from its own axes and arch, which must reproduce it and its recorded
/// fingerprint), plan bounds, result count, and that every result row names
/// exactly the grid cell its plan position claims.  Throws cello::Error on any mismatch.  Fail-point site
/// "shard.parse" can inject a load failure for recovery-path tests.
ShardResult shard_from_json(const std::string& text);

/// Read + parse one shard file.  Every failure — unreadable file, truncated
/// or malformed JSON, grid/plan mismatch — is rethrown with the file path
/// prefixed, so a merge over many shards quarantines (names) the bad file
/// instead of leaving the operator to bisect an anonymous parse error.
ShardResult shard_from_json_file(const std::string& path);

/// Recombine shards (any order) into the exact row-major order a full
/// SweepRunner::run of the grid produces.  Throws cello::Error when shards
/// disagree on the grid (fingerprint, axes, arch), counts or modes differ, a
/// shard is missing or duplicated, or any cell is left unfilled.  Takes the
/// shards by value and moves the result payloads out; std::move() the vector
/// in when the shards are no longer needed.
std::vector<SweepResult> merge_shards(std::vector<ShardResult> shards);

}  // namespace cello::sim
