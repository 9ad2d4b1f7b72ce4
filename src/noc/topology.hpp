// Topology-scripted NoC model for multi-chip scale-out (Sec. V-B).
//
// A topology is named by a spec string, not an enum — the Garnet-standalone
// idiom — so sweeps can treat the fabric as just another axis:
//
//   "1"            single chip (no NoC)
//   "mesh:4x4"     2D mesh, rows x cols (rectangular shapes allowed)
//   "torus:2x8"    2D torus with wraparound links
//   "mesh:12"      auto-factored into the squarest RxC grid (here 3x4)
//   "ring:16"      1D ring
//   "crossbar:8"   single-stage switch (every node one hop from the fabric)
//
// `Topology::build` expands a spec into an explicit node/link graph and
// precomputes all-pairs shortest-path routing tables by per-destination BFS
// with a dimension-ordered tie-break: on mesh/torus the preferred next hop
// exhausts X (column) moves before Y moves, which is exactly XY routing and
// therefore deadlock-free on the mesh (torus/ring additionally assume the
// usual dateline virtual channels).  Transfers are priced by walking routes
// and accumulating per-link byte counts, so link contention and fabric
// saturation are visible instead of being averaged away.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cello::noc {

enum class TopoKind { Single, Mesh, Torus, Ring, Crossbar };

const char* to_string(TopoKind kind);

/// A parsed, canonicalized topology spec.  `to_string(parse(s))` is the
/// canonical spelling: auto-factored counts print their explicit shape
/// ("mesh:12" -> "mesh:3x4"), so equal fabrics compare equal as strings.
struct TopologySpec {
  TopoKind kind = TopoKind::Single;
  i64 rows = 1;  ///< 1 for ring/crossbar/single
  i64 cols = 1;  ///< node count for ring/crossbar

  i64 nodes() const { return rows * cols; }
  std::string to_string() const;

  /// Parse a spec string; throws Error with the offending text on any
  /// malformed kind, shape, or count (including "ring:1" and "mesh:0x4").
  static TopologySpec parse(const std::string& text);

  bool operator==(const TopologySpec&) const = default;
};

/// Resolve a topology for a concrete node count.  `text` may be a bare kind
/// ("mesh", "torus", "ring", "crossbar") — auto-shaped for `nodes` — or an
/// explicit spec, whose node count must then match `nodes` exactly; a
/// mismatch is an error, never a silent pad up to the next square mesh.
TopologySpec resolve_topology(const std::string& text, i64 nodes);

/// One directed fabric link.
struct Link {
  i32 src = 0;
  i32 dst = 0;
};

class Topology {
 public:
  static Topology build(const TopologySpec& spec);

  const TopologySpec& spec() const { return spec_; }
  /// Compute nodes (excludes the crossbar's internal switch vertex).
  i64 nodes() const { return spec_.nodes(); }
  size_t num_links() const { return links_.size(); }
  const std::vector<Link>& links() const { return links_; }

  /// Shortest-path hop count between compute nodes.
  i32 hops(i32 src, i32 dst) const { return dist_[idx(src, dst)]; }
  /// First vertex on the preferred shortest path src -> dst (src != dst).
  i32 next_hop(i32 src, i32 dst) const { return next_[idx(src, dst)]; }
  /// Max hops from any node to node 0 — the collective tree depth.
  i32 depth() const { return depth_; }

  /// Walk the routed path src -> dst, adding `bytes` to every traversed
  /// link's entry in `link_bytes` (sized num_links()).  Returns hop count.
  i64 route(i32 src, i32 dst, Bytes bytes, std::vector<Bytes>* link_bytes) const;

 private:
  size_t idx(i32 src, i32 dst) const {
    return static_cast<size_t>(src) * static_cast<size_t>(verts_) + static_cast<size_t>(dst);
  }

  TopologySpec spec_;
  i64 verts_ = 1;  ///< compute nodes + the crossbar switch vertex if any
  std::vector<Link> links_;
  /// Per-vertex neighbors in canonical (dimension-ordered) preference order,
  /// paired with the id of the link to that neighbor.
  std::vector<std::vector<std::pair<i32, size_t>>> nbrs_;
  std::vector<i32> dist_;
  std::vector<i32> next_;
  i32 depth_ = 0;
};

}  // namespace cello::noc
