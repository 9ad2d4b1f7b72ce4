// Topology-scripted NoC model (noc/topology): spec parse/print round-trips,
// the explicit error paths, and the routing-table properties every fabric
// must satisfy — all-pairs reachability, shortest-hop distances, the
// dimension-ordered (XY) tie-break that keeps mesh routing deadlock-free,
// and per-link byte accounting under route().
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "noc/topology.hpp"

namespace {

using namespace cello;
using noc::TopoKind;
using noc::Topology;
using noc::TopologySpec;

// ---- spec parse / print ------------------------------------------------------

TEST(TopologySpec, ParsePrintRoundTrips) {
  for (const char* text : {"1", "mesh:2x2", "mesh:3x4", "torus:2x8", "torus:8x8", "ring:2",
                           "ring:16", "crossbar:8"}) {
    const TopologySpec spec = TopologySpec::parse(text);
    EXPECT_EQ(spec.to_string(), text) << text;
    EXPECT_EQ(TopologySpec::parse(spec.to_string()), spec) << text;
  }
}

TEST(TopologySpec, CanonicalizesCountsAndAliases) {
  // A bare count auto-factors into the squarest rows x cols grid.
  EXPECT_EQ(TopologySpec::parse("mesh:12").to_string(), "mesh:3x4");
  EXPECT_EQ(TopologySpec::parse("mesh:16").to_string(), "mesh:4x4");
  EXPECT_EQ(TopologySpec::parse("torus:6").to_string(), "torus:2x3");
  EXPECT_EQ(TopologySpec::parse("mesh:7").to_string(), "mesh:1x7");  // prime: 1xN
  EXPECT_EQ(TopologySpec::parse("single").to_string(), "1");
}

TEST(TopologySpec, NodeCounts) {
  EXPECT_EQ(TopologySpec::parse("1").nodes(), 1);
  EXPECT_EQ(TopologySpec::parse("mesh:3x4").nodes(), 12);
  EXPECT_EQ(TopologySpec::parse("ring:16").nodes(), 16);
  EXPECT_EQ(TopologySpec::parse("crossbar:8").nodes(), 8);
}

TEST(TopologySpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "mesh", "torus", "ring", "crossbar",  // bare kinds need a count
                          "hypercube:8", "mesh:0x4", "mesh:4x0", "mesh:4x", "mesh:x4",
                          "mesh:4x4x4", "ring:1", "crossbar:1", "ring:2x3", "crossbar:2x2",
                          "mesh:abc", "mesh:-4", "mesh:4.5", "1:2", "mesh:2000000"}) {
    EXPECT_THROW(TopologySpec::parse(bad), Error) << "'" << bad << "'";
  }
}

TEST(TopologySpec, ResolveAutoShapesBareKindsAndChecksExplicitOnes) {
  EXPECT_EQ(noc::resolve_topology("mesh", 12).to_string(), "mesh:3x4");
  EXPECT_EQ(noc::resolve_topology("torus", 16).to_string(), "torus:4x4");
  EXPECT_EQ(noc::resolve_topology("ring", 5).to_string(), "ring:5");
  EXPECT_EQ(noc::resolve_topology("mesh:2x8", 16).to_string(), "mesh:2x8");
  // One chip is fabric-less whatever the kind says.
  EXPECT_EQ(noc::resolve_topology("mesh", 1).to_string(), "1");
  // An explicit shape that contradicts the node count is an error, never a
  // silent pad up to the next square.
  EXPECT_THROW(noc::resolve_topology("mesh:4x4", 12), Error);
  EXPECT_THROW(noc::resolve_topology("ring:8", 12), Error);
  EXPECT_THROW(noc::resolve_topology("1", 4), Error);
}

// ---- routing tables ----------------------------------------------------------

/// Every fabric: all pairs reachable, dist symmetric, triangle inequality
/// via next_hop chains (each step moves exactly one closer).
void check_routing_invariants(const Topology& topo) {
  const i64 n = topo.nodes();
  for (i32 s = 0; s < n; ++s) {
    for (i32 d = 0; d < n; ++d) {
      if (s == d) {
        EXPECT_EQ(topo.hops(s, d), 0);
        continue;
      }
      EXPECT_GT(topo.hops(s, d), 0) << s << "->" << d;
      EXPECT_EQ(topo.hops(s, d), topo.hops(d, s)) << s << "->" << d;
      // Walking preferred next hops reaches d in exactly hops() steps.
      i32 at = s;
      i32 steps = 0;
      while (at != d) {
        const i32 nxt = topo.next_hop(at, d);
        EXPECT_EQ(topo.hops(nxt, d), topo.hops(at, d) - 1) << s << "->" << d << " at " << at;
        at = nxt;
        ASSERT_LE(++steps, topo.hops(s, d) + 1) << "routing loop " << s << "->" << d;
      }
      EXPECT_EQ(steps, topo.hops(s, d)) << s << "->" << d;
    }
  }
}

TEST(Topology, RoutingInvariantsHoldOnEveryKind) {
  for (const char* text : {"mesh:1x2", "mesh:4x4", "mesh:3x5", "torus:4x4", "torus:2x7",
                           "ring:9", "crossbar:6"}) {
    SCOPED_TRACE(text);
    check_routing_invariants(Topology::build(TopologySpec::parse(text)));
  }
}

TEST(Topology, MeshHopsAreManhattanAndRoutingIsXY) {
  const Topology topo = Topology::build(TopologySpec::parse("mesh:4x4"));
  const auto rc = [](i32 v) { return std::pair<i32, i32>{v / 4, v % 4}; };
  for (i32 s = 0; s < 16; ++s) {
    for (i32 d = 0; d < 16; ++d) {
      const auto [sr, sc] = rc(s);
      const auto [dr, dc] = rc(d);
      EXPECT_EQ(topo.hops(s, d), std::abs(sr - dr) + std::abs(sc - dc));
      if (s == d) continue;
      // Dimension order: all X (column) moves happen before any Y move —
      // deadlock-free XY routing.  The first hop changes the column whenever
      // the columns differ.
      const auto [nr, nc] = rc(topo.next_hop(s, d));
      if (sc != dc) {
        EXPECT_EQ(nr, sr) << s << "->" << d;
        EXPECT_EQ(std::abs(nc - sc), 1) << s << "->" << d;
      } else {
        EXPECT_EQ(nc, sc) << s << "->" << d;
        EXPECT_EQ(std::abs(nr - sr), 1) << s << "->" << d;
      }
    }
  }
  // Corner-to-corner depth on a 4x4 mesh: 3 + 3.
  EXPECT_EQ(topo.depth(), 6);
}

TEST(Topology, TorusWrapsAndRingIsACycle) {
  const Topology torus = Topology::build(TopologySpec::parse("torus:4x4"));
  // Opposite corners are 2 hops by wrapping both dimensions, not 6.
  EXPECT_EQ(torus.hops(0, 15), 2);
  EXPECT_EQ(torus.hops(0, 3), 1);   // row wrap
  EXPECT_EQ(torus.hops(0, 12), 1);  // column wrap
  EXPECT_EQ(torus.depth(), 4);      // farthest node (2,2): 2 + 2 wrapped hops

  const Topology ring = Topology::build(TopologySpec::parse("ring:8"));
  EXPECT_EQ(ring.hops(0, 4), 4);  // antipode
  EXPECT_EQ(ring.hops(0, 7), 1);  // wraparound
  EXPECT_EQ(ring.depth(), 4);
  EXPECT_EQ(ring.num_links(), 16u);  // 8 undirected = 16 directed
}

TEST(Topology, CrossbarIsTwoHopsThroughTheSwitch) {
  const Topology xbar = Topology::build(TopologySpec::parse("crossbar:6"));
  for (i32 s = 0; s < 6; ++s)
    for (i32 d = 0; d < 6; ++d)
      EXPECT_EQ(xbar.hops(s, d), s == d ? 0 : 2);
  EXPECT_EQ(xbar.depth(), 2);
  EXPECT_EQ(xbar.num_links(), 12u);  // one in + one out port per node
}

TEST(Topology, RouteAccumulatesPerLinkBytes) {
  const Topology topo = Topology::build(TopologySpec::parse("mesh:2x2"));
  std::vector<Bytes> link_bytes(topo.num_links(), 0);
  // 0 -> 3 on a 2x2 mesh is 2 hops; XY order goes through node 1 (column
  // move first), never node 2.
  EXPECT_EQ(topo.route(0, 3, 100, &link_bytes), 2);
  Bytes total = 0;
  for (const Bytes b : link_bytes) total += b;
  EXPECT_EQ(total, 200);  // 100 bytes on each of 2 links
  // The same transfer again doubles the same links.
  EXPECT_EQ(topo.route(0, 3, 100, &link_bytes), 2);
  Bytes max_link = 0;
  for (const Bytes b : link_bytes) max_link = std::max(max_link, b);
  EXPECT_EQ(max_link, 200);
  // Self-route costs nothing.
  EXPECT_EQ(topo.route(2, 2, 100, &link_bytes), 0);
}

TEST(Topology, LinksAreDirectedAndCoverBothDirections) {
  for (const char* text : {"mesh:3x3", "torus:3x3", "ring:5", "crossbar:4"}) {
    SCOPED_TRACE(text);
    const Topology topo = Topology::build(TopologySpec::parse(text));
    std::set<std::pair<i32, i32>> seen;
    for (const noc::Link& l : topo.links()) {
      EXPECT_NE(l.src, l.dst);
      EXPECT_TRUE(seen.emplace(l.src, l.dst).second) << "duplicate link";
    }
    for (const auto& [src, dst] : seen)
      EXPECT_TRUE(seen.count({dst, src})) << src << "->" << dst << " has no reverse";
  }
}

}  // namespace
