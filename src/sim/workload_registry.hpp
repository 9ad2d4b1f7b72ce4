// sim::WorkloadRegistry: named, parameterized workload kinds resolved from
// WorkloadSpec strings into immutable, shareable DAGs.
//
// Mirrors the ConfigRegistry design on the workload axis of the sweep grid:
// construction pre-registers the repo's workload kinds (cg, bicgstab, gnn,
// power, resnet, spmv, sddmm); users register their own with add().
//
//   auto& registry = sim::WorkloadRegistry::global();
//   auto cg   = registry.resolve("cg:m=65536,n=16,iters=10");  // shape-only
//   auto gnn  = registry.resolve("gnn:cora");                  // dataset preset
//   auto real = registry.resolve("spmv:mm=matrix.mtx");        // Matrix Market
//
// resolve() builds each distinct (canonical) spec exactly once per process
// and returns shared_ptr<const ...> handles, so sweep cells, benches and
// tests share one immutable DAG + matrix instead of rebuilding per cell.
// Each distinct matrix source is likewise built once: "cg:shallow_water1"
// and "spmv:shallow_water1" hold the same matrix.
//
// Matrix sources, common to every matrix-backed kind (exactly one):
//   dataset=<name>   Table VI preset, instantiated synthetically (a bare
//                    token is shorthand: "gnn:cora" == "gnn:dataset=cora")
//   mm=<path>        Matrix Market file
//   gen=<style>      synthetic generator (fem | circuit | graph) over
//                    m=, nnz= (default 8*m), seed=
//   m=<rows>         shape-only: analytic statistics, no backing matrix
// With no source parameter at all, the kind's default dataset applies.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ir/dag.hpp"
#include "sim/workload_spec.hpp"
#include "sparse/csr.hpp"

namespace cello::sim {

/// A resolved, immutable workload: share freely across threads.
struct Workload {
  std::string name;  ///< canonical spec string (WorkloadSpec::to_string())
  std::string kind;
  std::shared_ptr<const ir::TensorDag> dag;
  /// Real sparsity pattern for the trace-driven policies; null when the
  /// spec is shape-only (analytic statistics without a backing matrix).
  std::shared_ptr<const sparse::CsrMatrix> matrix;
};

class WorkloadRegistry;

/// Typed accessor over a spec's parameters, handed to kind builders.  Every
/// getter records its key; after the builder returns, the registry rejects
/// any parameter no getter looked at, so "itres=5" fails loudly instead of
/// silently falling back to the default.
class WorkloadParams {
 public:
  WorkloadParams(const WorkloadSpec& spec, const WorkloadRegistry& registry)
      : spec_(spec), registry_(registry) {}

  /// Integer parameter; throws cello::Error on a malformed number.
  i64 get_i64(const std::string& key, i64 fallback);
  std::string get_string(const std::string& key, std::string fallback);

  /// The registry's matrix for `source`, the canonical text of a matrix
  /// source ("dataset=cora", "gen=fem,m=4096,nnz=32768,seed=1", "mm=a.mtx"):
  /// built by `build` on the first request, then shared by every spec that
  /// names the same source until WorkloadRegistry::clear_cache().
  std::shared_ptr<const sparse::CsrMatrix> matrix(
      const std::string& source, const std::function<sparse::CsrMatrix()>& build) const;

  const WorkloadSpec& spec() const { return spec_; }
  /// Throws cello::Error listing parameters no getter consumed.
  void check_all_consumed() const;

 private:
  const WorkloadSpec& spec_;
  const WorkloadRegistry& registry_;
  std::set<std::string> consumed_;
};

/// Documentation of one parameter a workload kind accepts.
struct WorkloadParamDoc {
  std::string name;
  std::string default_value;  ///< human-readable ("16", "dataset nnz", ...)
  std::string doc;
};

/// A registered workload kind: a name, its parameter catalog, and the
/// builder turning parameters into a DAG (+ optional matrix context).
struct WorkloadKind {
  std::string name;
  std::string description;
  std::vector<WorkloadParamDoc> params;
  /// Fills Workload::dag / Workload::matrix; name/kind are set by resolve().
  std::function<Workload(WorkloadParams&)> build;
};

class WorkloadRegistry {
 public:
  /// Pre-populated with the built-in kinds.
  WorkloadRegistry();

  /// Process-wide shared registry (thread-safe).
  static WorkloadRegistry& global();

  /// Register a kind under kind.name.  Throws cello::Error on a duplicate
  /// name or a missing builder.
  void add(WorkloadKind kind);

  /// Lookup by kind name; nullptr when absent.  The pointer stays valid for
  /// the registry's lifetime.
  const WorkloadKind* find(const std::string& kind_name) const;
  /// Lookup that throws cello::Error, listing the registered kinds.
  const WorkloadKind& at(const std::string& kind_name) const;

  /// Registered kind names, registration order.
  std::vector<std::string> names() const;

  /// Build (or fetch the cached build of) the workload a spec describes.
  /// Each canonical spec is built exactly once; concurrent resolves of the
  /// same spec return handles to the same immutable DAG.  Cached builds are
  /// held strongly for the registry's lifetime — a driver iterating many
  /// distinct large specs should clear_cache() between batches.
  Workload resolve(const WorkloadSpec& spec) const;
  Workload resolve(const std::string& spec_text) const;

  /// Drop every cached build, matrices included.  Outstanding Workload
  /// handles stay valid (they share ownership); subsequent resolves rebuild.
  void clear_cache() const;

 private:
  friend class WorkloadParams;

  mutable std::mutex mu_;        ///< guards kinds_/by_name_
  std::deque<WorkloadKind> kinds_;
  std::map<std::string, size_t> by_name_;

  mutable std::mutex cache_mu_;  ///< guards cache_ and matrices_
  mutable std::map<std::string, Workload> cache_;  ///< canonical spec -> built
  /// Matrix source (see WorkloadParams::matrix) -> built matrix.
  mutable std::map<std::string, std::shared_ptr<const sparse::CsrMatrix>> matrices_;
};

}  // namespace cello::sim
