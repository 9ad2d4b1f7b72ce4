// Golden regression test: every workload kind's DAG, field for field.
//
// Per spec, the golden records the tensor/op/edge counts and an FNV-1a digest
// over every field the builders set: each tensor's name, ranks, dims, word,
// storage, nnz, result and append fields; each op's name, kind, ranks (name,
// size, contracted, effective), inputs, output and macs_override; each edge.
// A mismatch prints the failing spec's full dump.  To refresh after an
// *intended* change to a builder:
//
//   CELLO_UPDATE_GOLDENS=1 ./build/workload_dag_digest_test
//
// and commit the updated tests/goldens/workload_dags.txt.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/workload_registry.hpp"

namespace {

using namespace cello;

const char* golden_path() { return CELLO_SOURCE_DIR "/tests/goldens/workload_dags.txt"; }

const std::vector<std::string>& specs() {
  static const std::vector<std::string> kSpecs = {
      "cg",
      "cg:m=9604,nnz=85264,n=16,iters=3",
      "bicgstab",
      "bicgstab:n=4,iters=3",
      "gnn",
      "gnn:protein",
      "gnn:layers=3,hidden=32",
      "power",
      "power:gen=fem,m=4096",
      "resnet",
      "resnet:blocks=3",
      "spmv",
      "spmv:n=4",
      "sddmm",
      "sddmm:heads=2,spmm=0",
      "llm",
      "llm:gqa=2,layers=1,seq=0",
  };
  return kSpecs;
}

class Digest {
 public:
  void mix(i64 v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<u8>(static_cast<u64>(v) >> (8 * i)));
  }
  void mix(const std::string& s) {
    mix(static_cast<i64>(s.size()));  // length prefix: "ab"+"c" != "a"+"bc"
    for (char c : s) byte(static_cast<u8>(c));
  }
  u64 value() const { return h_; }

 private:
  void byte(u8 b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  u64 h_ = 1469598103934665603ull;
};

u64 digest(const ir::TensorDag& dag) {
  Digest d;
  for (const auto& t : dag.tensors()) {
    d.mix(t.id);
    d.mix(t.name);
    d.mix(static_cast<i64>(t.ranks.size()));
    for (const auto& r : t.ranks) d.mix(r);
    d.mix(static_cast<i64>(t.dims.size()));
    for (i64 x : t.dims) d.mix(x);
    d.mix(static_cast<i64>(t.word_bytes));
    d.mix(static_cast<i64>(t.storage));
    d.mix(t.nnz);
    d.mix(t.is_result);
    d.mix(t.append_only);
    d.mix(t.append_prev);
  }
  for (const auto& op : dag.ops()) {
    d.mix(op.id);
    d.mix(op.name);
    d.mix(static_cast<i64>(op.kind));
    d.mix(static_cast<i64>(op.ranks.size()));
    for (const auto& r : op.ranks) {
      d.mix(r.name);
      d.mix(r.size);
      d.mix(r.contracted);
      d.mix(r.effective_size);
    }
    d.mix(static_cast<i64>(op.inputs.size()));
    for (ir::TensorId in : op.inputs) d.mix(in);
    d.mix(op.output);
    d.mix(op.macs_override);
  }
  for (const auto& e : dag.edges()) {
    d.mix(e.id);
    d.mix(e.src);
    d.mix(e.dst);
    d.mix(e.tensor);
  }
  return d.value();
}

std::string record(const std::string& spec, const ir::TensorDag& dag) {
  std::ostringstream os;
  os << spec << " tensors=" << dag.tensors().size() << " ops=" << dag.ops().size()
     << " edges=" << dag.edges().size() << " digest=" << std::hex << digest(dag);
  return os.str();
}

/// Human-readable form of every digested field, printed on a mismatch.
std::string dump(const ir::TensorDag& dag) {
  std::ostringstream os;
  for (const auto& t : dag.tensors()) {
    os << "  tensor " << t.id << ' ' << t.name << " [";
    for (size_t i = 0; i < t.ranks.size(); ++i)
      os << (i ? " " : "") << t.ranks[i] << '=' << (i < t.dims.size() ? t.dims[i] : -1);
    os << "] word=" << t.word_bytes << " storage=" << static_cast<int>(t.storage)
       << " nnz=" << t.nnz << " result=" << t.is_result << " append=" << t.append_only << '/'
       << t.append_prev << '\n';
  }
  for (const auto& op : dag.ops()) {
    os << "  op " << op.id << ' ' << op.name << " kind=" << ir::to_string(op.kind) << " [";
    for (size_t i = 0; i < op.ranks.size(); ++i) {
      const auto& r = op.ranks[i];
      os << (i ? " " : "") << r.name << '=' << r.size << (r.contracted ? "c" : "u") << '/'
         << r.effective_size;
    }
    os << "] in=";
    for (size_t i = 0; i < op.inputs.size(); ++i) os << (i ? "," : "") << op.inputs[i];
    os << " out=" << op.output << " macs_override=" << op.macs_override << '\n';
  }
  for (const auto& e : dag.edges())
    os << "  edge " << e.id << ' ' << e.src << "->" << e.dst << " t=" << e.tensor << '\n';
  return os.str();
}

TEST(WorkloadDagDigest, EveryBuilderMatchesGolden) {
  std::vector<std::string> lines;
  std::vector<std::shared_ptr<const ir::TensorDag>> dags;
  for (const auto& spec : specs()) {
    const auto wl = sim::WorkloadRegistry::global().resolve(spec);
    ASSERT_NE(wl.dag, nullptr) << spec;
    lines.push_back(record(spec, *wl.dag));
    dags.push_back(wl.dag);
  }

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
  for (size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], golden[i]) << "DAG of '" << specs()[i] << "':\n" << dump(*dags[i]);
}

}  // namespace
