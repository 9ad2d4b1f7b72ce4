#include "sim/workload_registry.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/datasets.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"
#include "workloads/bicgstab.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/llm.hpp"
#include "workloads/poweriter.hpp"
#include "workloads/resnet.hpp"
#include "workloads/sddmm.hpp"
#include "workloads/spmv.hpp"

namespace cello::sim {

namespace {

/// Expected-input validation failures (not internal invariants): a clean
/// cello::Error the CLI can surface verbatim.
[[noreturn]] void bad_spec(const WorkloadSpec& spec, const std::string& why) {
  throw Error("workload spec '" + spec.to_string() + "': " + why);
}

}  // namespace

i64 WorkloadParams::get_i64(const std::string& key, i64 fallback) {
  consumed_.insert(key);
  const auto it = spec_.params.find(key);
  if (it == spec_.params.end()) return fallback;
  const std::string& v = it->second;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno != 0)
    bad_spec(spec_, "parameter '" + key + "' expects an integer, got '" + v + "'");
  return static_cast<i64>(parsed);
}

std::string WorkloadParams::get_string(const std::string& key, std::string fallback) {
  consumed_.insert(key);
  const auto it = spec_.params.find(key);
  return it == spec_.params.end() ? std::move(fallback) : it->second;
}

std::shared_ptr<const sparse::CsrMatrix> WorkloadParams::matrix(
    const std::string& source, const std::function<sparse::CsrMatrix()>& build) const {
  {
    std::lock_guard<std::mutex> lock(registry_.cache_mu_);
    const auto it = registry_.matrices_.find(source);
    if (it != registry_.matrices_.end()) return it->second;
  }
  auto built = std::make_shared<const sparse::CsrMatrix>(build());
  std::lock_guard<std::mutex> lock(registry_.cache_mu_);
  // A concurrent build of the same source may have finished first; share it
  // so every spec naming this source holds one matrix.
  return registry_.matrices_.emplace(source, std::move(built)).first->second;
}

void WorkloadParams::check_all_consumed() const {
  std::string unknown;
  for (const auto& [key, value] : spec_.params)
    if (!consumed_.count(key)) {
      if (!unknown.empty()) unknown += ", ";
      unknown += key;
    }
  if (unknown.empty()) return;
  // The consumed set is exactly the keys the kind's builder looked at, so a
  // typo'd key names its valid neighbors ("llm:layer=12" lists "layers").
  std::string allowed;
  for (const auto& key : consumed_) {
    if (!allowed.empty()) allowed += ", ";
    allowed += key;
  }
  bad_spec(spec_, "unknown parameter(s): " + unknown + " (allowed keys for kind '" +
                      spec_.kind + "': " + allowed + ")");
}

namespace {

/// Resolved matrix context shared by every matrix-backed kind.
struct MatrixSource {
  std::shared_ptr<const sparse::CsrMatrix> matrix;  ///< null in shape-only mode
  i64 rows = 0;
  i64 nnz = 0;
  const sparse::DatasetSpec* dataset = nullptr;  ///< set for dataset presets
};

/// Exactly one of mm= / dataset= / gen= / shape-only m=; with none given the
/// kind's default dataset applies (see the header comment for the grammar).
MatrixSource resolve_matrix(WorkloadParams& p, const char* default_dataset) {
  const std::string mm = p.get_string("mm", "");
  const std::string dataset = p.get_string("dataset", "");
  const std::string gen = p.get_string("gen", "");
  const i64 m = p.get_i64("m", 0);
  const i64 nnz = p.get_i64("nnz", 0);
  const i64 seed = p.get_i64("seed", 1);
  // Presence, not value, decides the mode: an explicit m=0 is an error, not
  // a silent fall-through to the default dataset.
  const bool has_m = p.spec().params.count("m") > 0;
  const bool has_nnz = p.spec().params.count("nnz") > 0;
  if (has_m && m <= 0) bad_spec(p.spec(), "m= must be positive, got " + std::to_string(m));
  if (has_nnz && nnz <= 0)
    bad_spec(p.spec(), "nnz= must be positive, got " + std::to_string(nnz));
  const i64 default_nnz = 8 * m;  // shape-only / gen default occupancy

  const int sources = int(!mm.empty()) + int(!dataset.empty()) + int(!gen.empty());
  if (sources > 1)
    bad_spec(p.spec(), "mm=, dataset= and gen= are mutually exclusive matrix sources");
  if (gen.empty() && p.spec().params.count("seed"))
    bad_spec(p.spec(), "seed= only applies to gen= mode");

  MatrixSource out;
  std::shared_ptr<const sparse::CsrMatrix> matrix;
  if (!mm.empty()) {
    if (has_m || has_nnz)
      bad_spec(p.spec(), "m=/nnz= conflict with mm= (the file defines the shape)");
    matrix = p.matrix("mm=" + mm, [&] { return sparse::read_matrix_market_file(mm); });
  } else if (!gen.empty()) {
    if (!has_m) bad_spec(p.spec(), "gen= needs m=<rows>");
    const i64 target = has_nnz ? nnz : default_nnz;
    sparse::CsrMatrix (*make)(i64, i64, Rng&) = nullptr;
    if (gen == "fem") {
      make = sparse::make_fem_banded;
    } else if (gen == "circuit") {
      make = sparse::make_circuit;
    } else if (gen == "graph") {
      make = sparse::make_powerlaw_graph;
    } else {
      bad_spec(p.spec(), "unknown gen='" + gen + "' (fem | circuit | graph)");
    }
    const std::string source = "gen=" + gen + ",m=" + std::to_string(m) +
                               ",nnz=" + std::to_string(target) + ",seed=" + std::to_string(seed);
    matrix = p.matrix(source, [&] {
      Rng rng(static_cast<u64>(seed));
      return make(m, target, rng);
    });
  } else if (!dataset.empty() || !has_m) {
    if (!dataset.empty()) {
      if (has_m || has_nnz)
        bad_spec(p.spec(), "m=/nnz= conflict with dataset= (the preset defines the shape)");
    } else if (has_nnz) {
      bad_spec(p.spec(), "nnz= needs m= (shape-only mode)");
    }
    const auto& spec = sparse::dataset_by_name(dataset.empty() ? default_dataset : dataset);
    out.dataset = &spec;
    matrix = p.matrix("dataset=" + spec.name, [&] { return sparse::instantiate(spec); });
  } else {
    // Shape-only: analytic statistics without a backing matrix (trace-driven
    // policies then fall back to their synthetic occupancy model).
    out.rows = m;
    out.nnz = has_nnz ? nnz : default_nnz;
    return out;
  }
  out.rows = matrix->rows();
  out.nnz = matrix->nnz();
  out.matrix = std::move(matrix);
  return out;
}

std::shared_ptr<const ir::TensorDag> share(ir::TensorDag dag) {
  return std::make_shared<const ir::TensorDag>(std::move(dag));
}

Bytes word_bytes(WorkloadParams& p, i64 fallback) {
  const i64 words = p.get_i64("words", fallback);
  if (words <= 0)
    bad_spec(p.spec(), "words= must be positive, got " + std::to_string(words));
  return static_cast<Bytes>(words);
}

const std::vector<WorkloadParamDoc>& matrix_source_docs() {
  static const std::vector<WorkloadParamDoc> kDocs = {
      {"dataset", "(per kind)", "Table VI preset name (bare token shorthand)"},
      {"mm", "-", "Matrix Market file path"},
      {"gen", "-", "synthetic generator: fem | circuit | graph (with m=, nnz=, seed=)"},
      {"m", "-", "rows; without dataset=/mm=/gen= this selects shape-only mode"},
      {"nnz", "8*m", "stored non-zeros (shape-only and gen= modes)"},
      {"seed", "1", "generator seed (gen= mode)"},
  };
  return kDocs;
}

std::vector<WorkloadParamDoc> with_matrix_docs(std::vector<WorkloadParamDoc> own,
                                               const char* default_dataset) {
  auto docs = matrix_source_docs();
  docs.front().default_value = default_dataset;
  own.insert(own.end(), docs.begin(), docs.end());
  return own;
}

}  // namespace

WorkloadRegistry::WorkloadRegistry() {
  add({"cg",
       "block conjugate gradient (Algorithm 1), 8 ops per iteration",
       with_matrix_docs({{"n", "16", "right-hand sides"},
                         {"iters", "10", "CG iterations"},
                         {"words", "4", "bytes per word"}},
                        "shallow_water1"),
       [](WorkloadParams& p) {
         const MatrixSource src = resolve_matrix(p, "shallow_water1");
         workloads::CgShape shape;
         shape.m = src.rows;
         shape.nnz = src.nnz;
         shape.n = p.get_i64("n", 16);
         shape.iterations = p.get_i64("iters", 10);
         shape.word_bytes = word_bytes(p, 4);
         Workload w;
         w.dag = share(workloads::build_cg_dag(shape));
         w.matrix = src.matrix;
         return w;
       }});
  add({"bicgstab",
       "BiCGStab solver (Fig. 13), 9 ops per iteration",
       with_matrix_docs({{"n", "1", "right-hand sides"},
                         {"iters", "10", "solver iterations"},
                         {"words", "4", "bytes per word"}},
                        "nasa4704"),
       [](WorkloadParams& p) {
         const MatrixSource src = resolve_matrix(p, "nasa4704");
         workloads::BiCgStabShape shape;
         shape.m = src.rows;
         shape.nnz = src.nnz;
         shape.n = p.get_i64("n", 1);
         shape.iterations = p.get_i64("iters", 10);
         shape.word_bytes = word_bytes(p, 4);
         Workload w;
         w.dag = share(workloads::build_bicgstab_dag(shape));
         w.matrix = src.matrix;
         return w;
       }});
  add({"gnn",
       "GCN layer(s): H_l = (A_hat . H_{l-1}) . W_l",
       with_matrix_docs({{"in", "dataset N (else 64)", "input feature width"},
                         {"out", "dataset O (else 16)", "output feature width"},
                         {"layers", "1", "GCN layers (>1 reuses A_hat per layer)"},
                         {"hidden", "64", "hidden width (only valid with layers > 1)"},
                         {"words", "4", "bytes per word"}},
                        "cora"),
       [](WorkloadParams& p) {
         const MatrixSource src = resolve_matrix(p, "cora");
         const bool has_features = src.dataset != nullptr && src.dataset->gnn_in_features > 0;
         workloads::GnnShape shape;
         shape.vertices = src.rows;
         shape.nnz = src.nnz;
         shape.in_features = p.get_i64("in", has_features ? src.dataset->gnn_in_features : 64);
         shape.out_features =
             p.get_i64("out", has_features ? src.dataset->gnn_out_features : 16);
         shape.word_bytes = word_bytes(p, 4);
         const i64 layers = p.get_i64("layers", 1);
         Workload w;
         if (layers == 1) {
           // hidden= is deliberately NOT consumed here, so a single-layer
           // spec carrying it fails loudly instead of silently ignoring it.
           w.dag = share(workloads::build_gnn_dag(shape));
         } else {
           w.dag = share(
               workloads::build_gnn_multilayer_dag(shape, layers, p.get_i64("hidden", 64)));
         }
         w.matrix = src.matrix;
         return w;
       }});
  add({"power",
       "power iteration: SpMV + contracted dot + scale per step",
       with_matrix_docs({{"iters", "10", "iterations"}, {"words", "4", "bytes per word"}},
                        "G2_circuit"),
       [](WorkloadParams& p) {
         const MatrixSource src = resolve_matrix(p, "G2_circuit");
         workloads::PowerIterShape shape;
         shape.m = src.rows;
         shape.nnz = src.nnz;
         shape.iterations = p.get_i64("iters", 10);
         shape.word_bytes = word_bytes(p, 4);
         Workload w;
         w.dag = share(workloads::build_power_iteration_dag(shape));
         w.matrix = src.matrix;
         return w;
       }});
  add({"resnet",
       "ResNet residual block(s) as im2col GEMMs (skip = delayed hold)",
       {{"spatial", "784", "H*W spatial positions"},
        {"channels", "512", "block input channels"},
        {"bottleneck", "128", "bottleneck channels"},
        {"kernel", "3", "middle conv kernel size"},
        {"blocks", "1", "chained residual blocks"},
        {"words", "2", "bytes per word"}},
       [](WorkloadParams& p) {
         workloads::ResNetBlockShape shape;
         shape.spatial = p.get_i64("spatial", shape.spatial);
         shape.in_channels = p.get_i64("channels", shape.in_channels);
         shape.bottleneck = p.get_i64("bottleneck", shape.bottleneck);
         shape.kernel = p.get_i64("kernel", shape.kernel);
         shape.word_bytes = word_bytes(p, 2);
         const i64 blocks = p.get_i64("blocks", 1);
         Workload w;
         w.dag = share(blocks == 1 ? workloads::build_resnet_block_dag(shape)
                                   : workloads::build_resnet_stack_dag(shape, blocks));
         return w;
       }});
  add({"spmv",
       "standalone SpMV/SpMM stream: x@{i} = A . x@{i-1}",
       with_matrix_docs({{"n", "1", "simultaneous vectors (>1 = SpMM)"},
                         {"iters", "10", "chained products"},
                         {"words", "4", "bytes per word"}},
                        "shallow_water1"),
       [](WorkloadParams& p) {
         const MatrixSource src = resolve_matrix(p, "shallow_water1");
         workloads::SpmvShape shape;
         shape.m = src.rows;
         shape.nnz = src.nnz;
         shape.n = p.get_i64("n", 1);
         shape.iterations = p.get_i64("iters", 10);
         shape.word_bytes = word_bytes(p, 4);
         Workload w;
         w.dag = share(workloads::build_spmv_dag(shape));
         w.matrix = src.matrix;
         return w;
       }});
  add({"sddmm",
       "sparse attention block: SDDMM (+ SpMM) per head over a shared mask",
       with_matrix_docs({{"d", "64", "head feature dimension"},
                         {"heads", "1", "attention heads sharing the mask"},
                         {"spmm", "1", "0 = SDDMM kernels only"},
                         {"words", "4", "bytes per word"}},
                        "cora"),
       [](WorkloadParams& p) {
         const MatrixSource src = resolve_matrix(p, "cora");
         workloads::SddmmShape shape;
         shape.rows = src.rows;
         shape.nnz = src.nnz;
         shape.features = p.get_i64("d", 64);
         shape.heads = p.get_i64("heads", 1);
         shape.word_bytes = word_bytes(p, 4);
         shape.with_spmm = p.get_i64("spmm", 1) != 0;
         Workload w;
         w.dag = share(workloads::build_sddmm_dag(shape));
         w.matrix = src.matrix;
         return w;
       }});
  add({"llm",
       "transformer decode: attention + MLP per layer over an append-only KV cache",
       {{"layers", "2", "transformer layers"},
        {"heads", "8", "attention (query) heads"},
        {"d_model", "512", "model width (head_dim = d_model / heads)"},
        {"seq", "128", "prefill context length (KV extent at step 0)"},
        {"decode_steps", "8", "autoregressive decode steps"},
        {"d_ff", "4*d_model", "MLP hidden width"},
        {"gqa", "heads", "KV heads (grouped-query attention)"},
        {"words", "2", "bytes per word"}},
       [](WorkloadParams& p) {
         workloads::LlmShape shape;
         shape.layers = p.get_i64("layers", shape.layers);
         shape.heads = p.get_i64("heads", shape.heads);
         shape.d_model = p.get_i64("d_model", shape.d_model);
         shape.seq = p.get_i64("seq", shape.seq);
         shape.decode_steps = p.get_i64("decode_steps", shape.decode_steps);
         shape.d_ff = p.get_i64("d_ff", 0);
         shape.gqa = p.get_i64("gqa", 0);
         shape.word_bytes = word_bytes(p, 2);
         Workload w;
         w.dag = share(workloads::build_llm_decode_dag(shape));
         return w;
       }});
}

WorkloadRegistry& WorkloadRegistry::global() {
  static WorkloadRegistry registry;
  return registry;
}

void WorkloadRegistry::add(WorkloadKind kind) {
  CELLO_CHECK_MSG(!kind.name.empty(), "workload kind needs a name");
  CELLO_CHECK_MSG(static_cast<bool>(kind.build),
                  "workload kind '" << kind.name << "' has no builder");
  std::lock_guard<std::mutex> lock(mu_);
  CELLO_CHECK_MSG(!by_name_.count(kind.name),
                  "workload kind '" << kind.name << "' already registered");
  kinds_.push_back(std::move(kind));
  by_name_[kinds_.back().name] = kinds_.size() - 1;
}

const WorkloadKind* WorkloadRegistry::find(const std::string& kind_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(kind_name);
  return it == by_name_.end() ? nullptr : &kinds_[it->second];
}

const WorkloadKind& WorkloadRegistry::at(const std::string& kind_name) const {
  const WorkloadKind* k = find(kind_name);
  if (k != nullptr) return *k;
  std::string known;
  for (const auto& n : names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw Error("unknown workload kind '" + kind_name + "' (registered: " + known + ")");
}

std::vector<std::string> WorkloadRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(kinds_.size());
  for (const auto& k : kinds_) out.push_back(k.name);
  return out;
}

Workload WorkloadRegistry::resolve(const WorkloadSpec& spec) const {
  const std::string canonical = spec.to_string();
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    const auto it = cache_.find(canonical);
    if (it != cache_.end()) return it->second;
  }
  const WorkloadKind& kind = at(spec.kind);
  WorkloadParams params(spec, *this);
  Workload built = kind.build(params);
  params.check_all_consumed();
  CELLO_CHECK_MSG(built.dag != nullptr, "workload kind '" << kind.name << "' built no DAG");
  built.name = canonical;
  built.kind = kind.name;
  std::lock_guard<std::mutex> lock(cache_mu_);
  // A concurrent resolve of the same spec may have finished first; share its
  // build so every caller holds the same immutable DAG.
  return cache_.emplace(canonical, std::move(built)).first->second;
}

Workload WorkloadRegistry::resolve(const std::string& spec_text) const {
  return resolve(WorkloadSpec::parse(spec_text));
}

void WorkloadRegistry::clear_cache() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.clear();
  matrices_.clear();
}

}  // namespace cello::sim
