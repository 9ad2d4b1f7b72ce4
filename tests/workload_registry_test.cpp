// Tests for sim::WorkloadSpec parsing and the sim::WorkloadRegistry: name /
// override round-trips, dataset-preset shorthand, error handling for unknown
// kinds and malformed parameters, and build-once DAG sharing.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "sim/address_map.hpp"
#include "sim/workload_registry.hpp"
#include "sim/workload_spec.hpp"
#include "sparse/datasets.hpp"
#include "test_helpers.hpp"
#include "workloads/cg.hpp"
#include "workloads/sddmm.hpp"
#include "workloads/spmv.hpp"

namespace {

using namespace cello;
using sim::WorkloadRegistry;
using sim::WorkloadSpec;

// ---- WorkloadSpec parsing ----------------------------------------------------

TEST(WorkloadSpec, ParsesKindOnly) {
  const auto spec = WorkloadSpec::parse("cg");
  EXPECT_EQ(spec.kind, "cg");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_EQ(spec.to_string(), "cg");
}

TEST(WorkloadSpec, ParsesParameters) {
  const auto spec = WorkloadSpec::parse("cg:m=65536,n=16,iters=10");
  EXPECT_EQ(spec.kind, "cg");
  ASSERT_EQ(spec.params.size(), 3u);
  EXPECT_EQ(spec.params.at("m"), "65536");
  EXPECT_EQ(spec.params.at("n"), "16");
  EXPECT_EQ(spec.params.at("iters"), "10");
}

TEST(WorkloadSpec, BareTokenIsDatasetShorthand) {
  const auto spec = WorkloadSpec::parse("gnn:cora");
  EXPECT_EQ(spec.kind, "gnn");
  EXPECT_EQ(spec.params.at("dataset"), "cora");
  EXPECT_EQ(spec.to_string(), "gnn:dataset=cora");
}

TEST(WorkloadSpec, CanonicalFormRoundTrips) {
  const auto spec = WorkloadSpec::parse("spmv:n=4,mm=path.mtx,iters=7");
  const std::string canonical = spec.to_string();
  EXPECT_EQ(canonical, "spmv:iters=7,mm=path.mtx,n=4");  // sorted keys
  EXPECT_EQ(WorkloadSpec::parse(canonical), spec);       // parse . to_string = id
}

TEST(WorkloadSpec, MalformedSpecsThrow) {
  EXPECT_THROW(WorkloadSpec::parse(""), Error);            // no kind
  EXPECT_THROW(WorkloadSpec::parse(":m=4"), Error);        // empty kind
  EXPECT_THROW(WorkloadSpec::parse("cg:"), Error);         // trailing colon
  EXPECT_THROW(WorkloadSpec::parse("cg:m="), Error);       // empty value
  EXPECT_THROW(WorkloadSpec::parse("cg:=4"), Error);       // empty key
  EXPECT_THROW(WorkloadSpec::parse("cg:m=4,,n=8"), Error); // empty parameter
  EXPECT_THROW(WorkloadSpec::parse("cg:m=4,m=8"), Error);  // duplicate key
}

// ---- WorkloadRegistry --------------------------------------------------------

TEST(WorkloadRegistry, ListsBuiltInKinds) {
  const auto names = WorkloadRegistry::global().names();
  for (const char* kind : {"cg", "bicgstab", "gnn", "power", "resnet", "spmv", "sddmm", "llm"})
    EXPECT_NE(std::find(names.begin(), names.end(), kind), names.end()) << kind;
}

TEST(WorkloadRegistry, UnknownKindThrowsListingRegistered) {
  try {
    WorkloadRegistry::global().resolve("warp9:m=4");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("warp9"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cg"), std::string::npos);  // lists the kinds
  }
}

TEST(WorkloadRegistry, UnknownParameterThrows) {
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:m=1024,itres=5"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("resnet:dataset=cora"), Error);
  // hidden= is meaningless on a single-layer GCN: ineffective, so rejected.
  EXPECT_THROW(WorkloadRegistry::global().resolve("gnn:cora,hidden=256"), Error);
}

TEST(WorkloadRegistry, UnknownParameterErrorListsAllowedKeys) {
  // A typo'd key must name its valid neighbors: the builder consumed every
  // key it understands, so the error can list them for the kind.
  try {
    WorkloadRegistry::global().resolve("llm:layer=12");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("layer"), std::string::npos) << msg;
    EXPECT_NE(msg.find("allowed keys for kind 'llm'"), std::string::npos) << msg;
    for (const char* key :
         {"layers", "heads", "d_model", "seq", "decode_steps", "d_ff", "gqa", "words"})
      EXPECT_NE(msg.find(key), std::string::npos) << key << " missing from: " << msg;
  }
}

TEST(WorkloadRegistry, MalformedParameterValueThrows) {
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:m=abc"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:m=12x"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:m=1024,words=-1"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:m=1024,words=0"), Error);
  // Explicit zero / negative shapes fail loudly instead of silently falling
  // back to the default dataset or default occupancy.
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:m=0"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:m=-5"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("spmv:gen=fem,m=100,nnz=0"), Error);
  // Values a builder would otherwise wrap, ignore or replace with a default.
  EXPECT_THROW(WorkloadRegistry::global().resolve("gnn:layers=2,hidden=-3"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("gnn:layers=2,hidden=0"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("resnet:kernel=0"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("resnet:kernel=-1"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("llm:d_ff=-8"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("llm:d_ff=0"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("llm:gqa=-2"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("llm:gqa=0"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("sddmm:spmm=7"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("sddmm:spmm=-1"), Error);
}

// Integer parameters are plain decimals: a sign, a space, a leading zero or a
// value past the i64 maximum would otherwise spell a workload a second way
// ("n=+4" next to "n=4") or wrap, so each is an error naming its key.
TEST(WorkloadRegistry, IntegerParametersAreStrictDecimals) {
  for (const char* value : {"+4", "-4", " 4", "4 ", "04", "0x4", "4.0",
                            "9223372036854775808", "99999999999999999999"}) {
    const std::string spec = std::string("cg:m=512,iters=1,n=") + value;
    try {
      WorkloadRegistry::global().resolve(spec);
      FAIL() << spec << " resolved";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("parameter 'n'"), std::string::npos)
          << spec << ": " << e.what();
    }
  }
  // The largest i64 is still a number; the generator takes any seed.
  const auto wl =
      WorkloadRegistry::global().resolve("spmv:gen=fem,m=64,nnz=256,seed=9223372036854775807");
  EXPECT_EQ(wl.matrix->rows(), 64);
}

TEST(WorkloadRegistry, ConflictingMatrixSourcesThrow) {
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:dataset=fv1,mm=a.mtx"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:dataset=fv1,m=100"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:nnz=100"), Error);  // nnz without m
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:gen=fem"), Error);  // gen without m
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:gen=warp,m=100"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:dataset=not_a_dataset"), Error);
  EXPECT_THROW(WorkloadRegistry::global().resolve("cg:dataset=fv1,seed=2"), Error);
}

TEST(WorkloadRegistry, ShapeOnlySpecMatchesDirectBuilder) {
  const auto wl = WorkloadRegistry::global().resolve("cg:m=1000,nnz=9000,n=8,iters=10");
  ASSERT_NE(wl.dag, nullptr);
  EXPECT_EQ(wl.matrix, nullptr);  // shape-only: no backing matrix
  EXPECT_EQ(wl.kind, "cg");
  const auto direct = workloads::build_cg_dag({1000, 8, 9000, 10, 4});
  EXPECT_EQ(wl.dag->ops().size(), direct.ops().size());
  EXPECT_EQ(wl.dag->tensors().size(), direct.tensors().size());
  EXPECT_EQ(wl.dag->edges().size(), direct.edges().size());
}

TEST(WorkloadRegistry, DatasetPresetCarriesMatrixAndFeatures) {
  const auto wl = WorkloadRegistry::global().resolve("gnn:cora");
  ASSERT_NE(wl.matrix, nullptr);
  const auto& spec = sparse::dataset_by_name("cora");
  EXPECT_EQ(wl.matrix->rows(), spec.rows);
  EXPECT_EQ(wl.dag->ops().size(), 2u);
  // Table VI feature widths flow from the preset into the DAG shapes.
  for (const auto& t : wl.dag->tensors())
    if (t.name == "X") {
      EXPECT_EQ(t.dim_of("n"), spec.gnn_in_features);
    } else if (t.name == "Y") {
      EXPECT_EQ(t.dim_of("o"), spec.gnn_out_features);
    }
}

TEST(WorkloadRegistry, GnnFeatureOverridesBeatPreset) {
  const auto wl = WorkloadRegistry::global().resolve("gnn:cora,in=32,out=4");
  for (const auto& t : wl.dag->tensors())
    if (t.name == "X") {
      EXPECT_EQ(t.dim_of("n"), 32);
    }
}

TEST(WorkloadRegistry, ResolveCachesByCanonicalSpec) {
  auto& registry = WorkloadRegistry::global();
  const auto a = registry.resolve("spmv:m=512,nnz=4096,iters=3");
  // Different surface syntax, same canonical spec: the same build is shared.
  const auto b = registry.resolve(WorkloadSpec::parse("spmv:nnz=4096,iters=3,m=512"));
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.dag.get(), b.dag.get());
}

TEST(WorkloadRegistry, GeneratorSourceBuildsRealMatrix) {
  const auto wl = WorkloadRegistry::global().resolve("spmv:gen=fem,m=500,nnz=3000,seed=7");
  ASSERT_NE(wl.matrix, nullptr);
  EXPECT_EQ(wl.matrix->rows(), 500);
  EXPECT_GT(wl.matrix->nnz(), 0);
  // Deterministic: the same spec resolves to the cached identical matrix.
  const auto again = WorkloadRegistry::global().resolve("spmv:gen=fem,m=500,nnz=3000,seed=7");
  EXPECT_EQ(wl.matrix.get(), again.matrix.get());
}

TEST(WorkloadRegistry, UserKindsCanBeRegistered) {
  sim::WorkloadRegistry registry;  // private registry, not the global one
  registry.add({"toy",
                "toy spmv",
                {},
                [](sim::WorkloadParams& p) {
                  sim::Workload w;
                  w.dag = std::make_shared<const ir::TensorDag>(workloads::build_spmv_dag(
                      {p.get_i64("m", 64), 256, 1, 2, 4}));
                  return w;
                }});
  const auto wl = registry.resolve("toy:m=128");
  EXPECT_EQ(wl.kind, "toy");
  EXPECT_EQ(wl.name, "toy:m=128");
  ASSERT_NE(wl.dag, nullptr);
  EXPECT_THROW(registry.add({"toy", "dup", {}, [](sim::WorkloadParams&) { return sim::Workload{}; }}),
               Error);
}

// ---- new workload kinds ------------------------------------------------------

TEST(SpmvDag, Structure) {
  const auto dag = workloads::build_spmv_dag({1000, 9000, 1, 5, 4});
  EXPECT_EQ(dag.ops().size(), 5u);
  EXPECT_EQ(dag.edges().size(), 4u);  // x@i chains into the next SpMV
  EXPECT_EQ(test::external_inputs(dag), 2u);  // A, x@0
  EXPECT_EQ(dag.op(0).macs(), 9000);
  EXPECT_EQ(dag.op(0).dominance(), ir::Dominance::Uncontracted);
  int results = 0;
  for (const auto& t : dag.tensors())
    if (t.is_result) {
      ++results;
      EXPECT_EQ(t.name, "x@5");
    }
  EXPECT_EQ(results, 1);
}

TEST(SddmmDag, SparseAttentionStructure) {
  const auto dag = workloads::build_sddmm_dag({2708, 9464, 64, 2, 4, true});
  EXPECT_EQ(dag.ops().size(), 4u);   // (sddmm + spmm) x 2 heads
  EXPECT_EQ(dag.edges().size(), 2u); // S_h pipelines into its spmm
  for (const auto& op : dag.ops()) EXPECT_EQ(op.macs(), 9464 * 64) << op.name;
  int sparse_intermediates = 0, results = 0;
  for (const auto& t : dag.tensors()) {
    if (t.name.starts_with("S")) {
      ++sparse_intermediates;
      EXPECT_EQ(t.storage, ir::Storage::CompressedSparse);
      EXPECT_EQ(t.nnz, 9464);
    }
    if (t.is_result) ++results;
  }
  EXPECT_EQ(sparse_intermediates, 2);
  EXPECT_EQ(results, 2);  // one O_h per head
}

TEST(SddmmDag, HeadsDoNotAliasInTheAddressMap) {
  // Per-head projections are distinct buffers: only the mask M is shared.
  // The '@' versioning convention would fold Q_1/Q_2 onto one base, so the
  // head suffix deliberately avoids it.
  const auto dag = workloads::build_sddmm_dag({1000, 8000, 32, 2, 4, true});
  const auto map = sim::AddressMap::build(dag);
  // Bases: M + {Q, K, V, S, O} per head.
  EXPECT_EQ(map.entries.size(), 1u + 5u * 2u);
}

TEST(SddmmDag, SddmmOnlyMode) {
  const auto dag = workloads::build_sddmm_dag({1000, 8000, 32, 1, 4, false});
  EXPECT_EQ(dag.ops().size(), 1u);
  EXPECT_EQ(dag.edges().size(), 0u);
  int results = 0;
  for (const auto& t : dag.tensors())
    if (t.is_result) {
      ++results;
      EXPECT_EQ(t.name, "S_1");
    }
  EXPECT_EQ(results, 1);
}

}  // namespace
