// Tests for the workload suite: functional correctness on both backends.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <span>
#include <set>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "workloads/shapes.hpp"
#include "workloads/workloads.hpp"

namespace grout::workloads {
namespace {

using polyglot::Context;
using polyglot::DeviceArray;
using polyglot::ElemType;
using polyglot::KernelObject;
using polyglot::KernelParamInfo;

gpusim::GpuNodeConfig small_node() {
  gpusim::GpuNodeConfig cfg;
  cfg.gpu_count = 2;
  cfg.device.memory = 32_MiB;
  cfg.tuning.page_size = 1_MiB;
  return cfg;
}

Context grcuda() { return Context::grcuda(small_node()); }

Context grout(core::PolicyKind policy = core::PolicyKind::VectorStep) {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node = small_node();
  cfg.policy = policy;
  return Context::grout(std::move(cfg));
}

WorkloadParams tiny(Bytes footprint = 2_MiB) {
  WorkloadParams p;
  p.footprint = footprint;
  p.partitions = 4;
  p.iterations = 2;
  return p;
}

class WorkloadKindTest : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(WorkloadKindTest, RunsAndVerifiesOnGrCuda) {
  Context ctx = grcuda();
  auto w = make_workload(GetParam(), tiny());
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.elapsed, SimTime::zero());
  EXPECT_GT(r.ce_count, 0u);
  EXPECT_TRUE(w->verify(ctx)) << "functional results wrong on GrCUDA";
}

TEST_P(WorkloadKindTest, RunsAndVerifiesOnGrout) {
  Context ctx = grout();
  auto w = make_workload(GetParam(), tiny());
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(w->verify(ctx)) << "functional results wrong on GrOUT";
}

TEST_P(WorkloadKindTest, DeterministicSimulatedTime) {
  const auto run_once = [&] {
    Context ctx = grcuda();
    auto w = make_workload(GetParam(), tiny());
    return execute_workload(ctx, *w).elapsed;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(WorkloadKindTest, LargerFootprintTakesLonger) {
  const auto timed = [&](Bytes footprint) {
    Context ctx = grcuda();
    auto w = make_workload(GetParam(), tiny(footprint));
    return execute_workload(ctx, *w).elapsed;
  };
  EXPECT_LT(timed(2_MiB), timed(8_MiB));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadKindTest,
                         ::testing::Values(WorkloadKind::BlackScholes, WorkloadKind::Mle,
                                           WorkloadKind::Cg, WorkloadKind::Mv,
                                           WorkloadKind::Irregular),
                         [](const auto& p) { return std::string(to_string(p.param)); });

TEST(WorkloadTest, CeCountsMatchStructure) {
  Context ctx = grcuda();
  WorkloadParams p = tiny();
  p.partitions = 4;
  p.iterations = 3;

  auto mv = make_workload(WorkloadKind::Mv, p);
  execute_workload(ctx, *mv);
  EXPECT_EQ(mv->ces_issued(), 4u * 3u);  // partitions x iterations

  Context ctx2 = grcuda();
  auto cg = make_workload(WorkloadKind::Cg, p);
  execute_workload(ctx2, *cg);
  EXPECT_EQ(cg->ces_issued(), (4u + 1u) * 3u);  // spmv per partition + step

  Context ctx3 = grcuda();
  auto mle = make_workload(WorkloadKind::Mle, p);
  execute_workload(ctx3, *mle);
  EXPECT_EQ(mle->ces_issued(), (4u * 3u + 1u) * 3u);  // 3 stages + combine
}

TEST(WorkloadTest, SharedMatrixMvVerifies) {
  Context ctx = grcuda();
  WorkloadParams p = tiny();
  p.shared_matrix = true;
  auto w = make_workload(WorkloadKind::Mv, p);
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(w->verify(ctx));
}

TEST(WorkloadTest, SharedMatrixMvOnGroutVerifies) {
  Context ctx = grout(core::PolicyKind::RoundRobin);
  WorkloadParams p = tiny();
  p.shared_matrix = true;
  auto w = make_workload(WorkloadKind::Mv, p);
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(w->verify(ctx));
}

TEST(WorkloadTest, TinyCapReportsOutOfTime) {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node = small_node();
  cfg.run_cap = SimTime::from_us(1.0);
  Context ctx = Context::grout(std::move(cfg));
  auto w = make_workload(WorkloadKind::Mv, tiny());
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_FALSE(r.completed);
}

TEST(WorkloadTest, ParamValidation) {
  WorkloadParams p;
  p.partitions = 0;
  EXPECT_THROW(make_workload(WorkloadKind::Mv, p), InvalidArgument);
  p.partitions = 2;
  p.iterations = 0;
  EXPECT_THROW(make_workload(WorkloadKind::Cg, p), InvalidArgument);
}

TEST(WorkloadTest, Names) {
  EXPECT_STREQ(to_string(WorkloadKind::BlackScholes), "BS");
  EXPECT_STREQ(to_string(WorkloadKind::Mle), "MLE");
  EXPECT_STREQ(to_string(WorkloadKind::Cg), "CG");
  EXPECT_STREQ(to_string(WorkloadKind::Mv), "MV");
  EXPECT_STREQ(to_string(WorkloadKind::Irregular), "IRR");
}

// ---------------------------------------------------------------------------
// Fig. 5 DAG structures, asserted on the controller's Global DAG
// ---------------------------------------------------------------------------

const dag::DependencyDag& global_dag_of(Context& ctx) {
  return dynamic_cast<polyglot::GroutBackend&>(ctx.backend()).grout().global_dag();
}

TEST(WorkloadDag, CgStepFansInFromAllPartitions) {
  Context ctx = grout();
  WorkloadParams p = tiny();
  p.partitions = 4;
  p.iterations = 1;
  auto w = make_workload(WorkloadKind::Cg, p);
  execute_workload(ctx, *w);
  const auto& dag = global_dag_of(ctx);
  // Find the cg-step vertex: it must depend on >= 4 vertices (the spmvs;
  // redundant host-init edges are filtered away).
  bool found = false;
  for (dag::VertexId v = 0; v < dag.size(); ++v) {
    if (dag.vertex(v).label == "cg-step") {
      EXPECT_GE(dag.ancestors(v).size(), 4u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WorkloadDag, MlePipelinesChainAndJoin) {
  Context ctx = grout();
  WorkloadParams p = tiny();
  p.partitions = 2;
  p.iterations = 1;
  auto w = make_workload(WorkloadKind::Mle, p);
  execute_workload(ctx, *w);
  const auto& dag = global_dag_of(ctx);
  std::size_t a2_with_single_dep = 0;
  for (dag::VertexId v = 0; v < dag.size(); ++v) {
    const auto vertex = dag.vertex(v);
    const std::span<const dag::VertexId> ancestors = dag.ancestors(v);
    if (vertex.label == "mle-a2") {
      // Stage 2 of pipeline A depends exactly on stage 1 (u is its input).
      ASSERT_EQ(ancestors.size(), 1u);
      EXPECT_EQ(dag.vertex(ancestors[0]).label, "mle-a");
      ++a2_with_single_dep;
    }
    if (vertex.label == "mle-combine") {
      // Fan-in from both pipelines of both partitions: v0, v1, w0, w1.
      EXPECT_EQ(ancestors.size(), 4u);
    }
  }
  EXPECT_EQ(a2_with_single_dep, 2u);
}

TEST(WorkloadDag, BlackScholesPartitionsAreIndependent) {
  Context ctx = grout();
  WorkloadParams p = tiny();
  p.partitions = 4;
  p.iterations = 1;
  auto w = make_workload(WorkloadKind::BlackScholes, p);
  execute_workload(ctx, *w);
  const auto& dag = global_dag_of(ctx);
  for (dag::VertexId v = 0; v < dag.size(); ++v) {
    if (dag.vertex(v).label == "bs") {
      // Each pricing CE only depends on its own spot-init vertex.
      EXPECT_LE(dag.ancestors(v).size(), 1u);
    }
  }
}

TEST(WorkloadDag, MvIterationsChainThroughOutputs) {
  Context ctx = grout();
  WorkloadParams p = tiny();
  p.partitions = 2;
  p.iterations = 2;
  auto w = make_workload(WorkloadKind::Mv, p);
  execute_workload(ctx, *w);
  const auto& dag = global_dag_of(ctx);
  // Iteration 2's partition kernels WAW-depend on iteration 1's (same y_j).
  std::vector<dag::VertexId> mv_vertices;
  for (dag::VertexId v = 0; v < dag.size(); ++v) {
    if (dag.vertex(v).label == "mv") mv_vertices.push_back(v);
  }
  ASSERT_EQ(mv_vertices.size(), 4u);
  EXPECT_TRUE(dag.is_ancestor(mv_vertices[0], mv_vertices[2]));
  EXPECT_TRUE(dag.is_ancestor(mv_vertices[1], mv_vertices[3]));
  EXPECT_FALSE(dag.is_ancestor(mv_vertices[0], mv_vertices[1]));
}

TEST(WorkloadTest, IrregularGatherVerifies) {
  Context ctx = grcuda();
  auto w = make_workload(WorkloadKind::Irregular, tiny());
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(w->verify(ctx));
}

TEST(WorkloadTest, AllPoliciesCompleteAllWorkloads) {
  for (const auto policy :
       {core::PolicyKind::RoundRobin, core::PolicyKind::VectorStep,
        core::PolicyKind::MinTransferSize, core::PolicyKind::MinTransferTime}) {
    for (const auto kind : {WorkloadKind::BlackScholes, WorkloadKind::Mle, WorkloadKind::Cg,
                            WorkloadKind::Mv, WorkloadKind::Irregular}) {
      Context ctx = grout(policy);
      auto w = make_workload(kind, tiny());
      const WorkloadResult r = execute_workload(ctx, *w);
      EXPECT_TRUE(r.completed) << to_string(policy) << "/" << to_string(kind);
      EXPECT_TRUE(w->verify(ctx)) << to_string(policy) << "/" << to_string(kind);
    }
  }
}

// ---------------------------------------------------------------------------
// Serving shapes recorded from the workloads
// ---------------------------------------------------------------------------

/// Forwards every call to a real GrOUT backend and keeps what the program
/// issued: each allocation, each host write and each KernelLaunchSpec.
class CapturingBackend final : public polyglot::Backend {
 public:
  struct Allocation {
    std::string name;
    Bytes bytes{0};
  };

  explicit CapturingBackend(core::GroutConfig config) : inner_{std::move(config)} {}

  polyglot::ArrayRef alloc(Bytes bytes, std::string name) override {
    const polyglot::ArrayRef ref = inner_.alloc(bytes, name);
    arrays[ref] = {std::move(name), bytes};
    return ref;
  }
  void notify_host_write(polyglot::ArrayRef array) override {
    host_written.insert(arrays.at(array).name);
    inner_.notify_host_write(array);
  }
  void advise(polyglot::ArrayRef array, uvm::Advise advise) override {
    inner_.advise(array, advise);
  }
  void ensure_host_readable(polyglot::ArrayRef array) override {
    inner_.ensure_host_readable(array);
  }
  void launch(gpusim::KernelLaunchSpec spec) override {
    launches.push_back(spec);
    inner_.launch(std::move(spec));
  }
  bool synchronize() override { return inner_.synchronize(); }
  [[nodiscard]] SimTime now() const override { return inner_.now(); }
  [[nodiscard]] polyglot::BackendKind kind() const override { return inner_.kind(); }

  std::map<polyglot::ArrayRef, Allocation> arrays;
  std::set<std::string> host_written;
  std::vector<gpusim::KernelLaunchSpec> launches;

 private:
  polyglot::GroutBackend inner_;
};

TEST(RecordedShapeTest, MatchesTheLivePolyglotCeStream) {
  constexpr std::size_t kParts = 4;
  constexpr std::size_t kIters = 3;
  struct Config {
    const char* label;
    WorkloadKind kind;
    bool shared_matrix;
    std::size_t ces_per_iteration;
  };
  const Config configs[] = {
      {"BS", WorkloadKind::BlackScholes, false, kParts},
      {"MLE", WorkloadKind::Mle, false, 3 * kParts + 1},
      {"CG", WorkloadKind::Cg, false, kParts + 1},
      {"MV", WorkloadKind::Mv, false, kParts},
      {"MV-shared", WorkloadKind::Mv, true, kParts},
      {"IRR", WorkloadKind::Irregular, false, kParts},
  };
  for (const Config& c : configs) {
    SCOPED_TRACE(c.label);
    WorkloadParams p;
    p.footprint = 512_MiB;
    p.partitions = kParts;
    p.iterations = kIters;
    p.shared_matrix = c.shared_matrix;
    const ProgramShape shape = make_program_shape(c.kind, p);

    auto capturing = std::make_unique<CapturingBackend>(core::GroutConfig{});
    const CapturingBackend& live = *capturing;
    polyglot::ContextConfig no_storage;
    no_storage.materialize_limit = 0;
    Context ctx(std::move(capturing), no_storage);
    auto w = make_workload(c.kind, p);
    w->build(ctx);
    w->run(ctx);

    ASSERT_EQ(shape.ces.size(), c.ces_per_iteration * kIters);
    ASSERT_EQ(shape.ces.size(), live.launches.size());
    ASSERT_EQ(shape.arrays.size(), live.arrays.size());

    Bytes live_bytes = 0;
    for (const auto& [ref, a] : live.arrays) live_bytes += a.bytes;
    EXPECT_EQ(shape.footprint(), live_bytes);

    std::set<std::string> names;
    for (const ShapeArray& a : shape.arrays) {
      names.insert(a.name);
      EXPECT_EQ(a.host_init, live.host_written.count(a.name) == 1) << a.name;
    }
    ASSERT_EQ(names.size(), shape.arrays.size()) << "array names must be unique";

    for (std::size_t k = 0; k < shape.ces.size(); ++k) {
      SCOPED_TRACE(str_cat("CE ", std::to_string(k)));
      const ShapeCe& ce = shape.ces[k];
      const gpusim::KernelLaunchSpec& spec = live.launches[k];
      EXPECT_EQ(ce.name, spec.name);
      EXPECT_EQ(ce.flops, spec.flops);
      EXPECT_EQ(ce.parallelism, spec.parallelism);
      ASSERT_EQ(ce.params.size(), spec.params.size());
      for (std::size_t i = 0; i < ce.params.size(); ++i) {
        const ShapeParam& param = ce.params[i];
        const uvm::ParamAccess& access = spec.params[i];
        EXPECT_FALSE(param.shared);
        EXPECT_EQ(shape.arrays.at(param.array).name, live.arrays.at(access.array).name);
        EXPECT_EQ(param.mode, access.mode);
        EXPECT_EQ(param.pattern.index(), access.pattern.index());
        EXPECT_EQ(param.range.begin, access.range.begin);
        EXPECT_EQ(param.range.end, access.range.end);
      }
    }
  }
}

/// One array ("ledger") used by one read-write kernel; `then` runs after
/// that kernel's launch.
class OneArrayWorkload final : public Workload {
 public:
  using Step = std::function<void(Context&, DeviceArray&)>;

  explicit OneArrayWorkload(Step then) : Workload(WorkloadParams{}), then_{std::move(then)} {}

  [[nodiscard]] std::string name() const override { return "one-array"; }

  void build(Context& ctx) override {
    KernelParamInfo param;
    param.name = "ledger";
    param.pointer = true;
    param.mode = uvm::AccessMode::ReadWrite;
    kernel_ = ctx.register_native_kernel("touch", {param},
                                         [](const polyglot::KernelArgs&, std::size_t,
                                            std::size_t) {});
    ledger_ = ctx.alloc_array(ElemType::F32, 1024, "ledger");
    ledger_->fill(0.0);
  }

  void run(Context& ctx) override {
    polyglot::BoundKernel bound;
    bound.kernel = kernel_;
    bound.grid_dim = 4;
    bound.block_dim = 256;
    ctx.launch(bound, {polyglot::Value(ledger_)});
    then_(ctx, *ledger_);
  }

  bool verify(Context&) override { return true; }

 private:
  Step then_;
  std::shared_ptr<KernelObject> kernel_;
  std::shared_ptr<DeviceArray> ledger_;
};

/// The grout::Error message recording `then` raises ("" if none).
std::string record_error(OneArrayWorkload::Step then) {
  OneArrayWorkload w(std::move(then));
  try {
    record_program_shape(w);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(RecordedShapeTest, RecordsHostInitBeforeFirstUse) {
  OneArrayWorkload w([](Context&, DeviceArray&) {});
  const ProgramShape shape = record_program_shape(w);
  ASSERT_EQ(shape.arrays.size(), 1u);
  EXPECT_EQ(shape.arrays[0].name, "ledger");
  EXPECT_EQ(shape.arrays[0].bytes, 4096u);
  EXPECT_TRUE(shape.arrays[0].host_init);
  ASSERT_EQ(shape.ces.size(), 1u);
  EXPECT_EQ(shape.ces[0].name, "touch");
  EXPECT_EQ(shape.ces[0].flops, 1024.0);
  ASSERT_EQ(shape.ces[0].params.size(), 1u);
  EXPECT_EQ(shape.ces[0].params[0].array, 0u);
  EXPECT_EQ(shape.ces[0].params[0].mode, uvm::AccessMode::ReadWrite);
}

TEST(RecordedShapeTest, RejectsAMemoryAdvise) {
  const std::string error = record_error(
      [](Context&, DeviceArray& a) { a.advise(uvm::Advise::ReadMostly); });
  EXPECT_NE(error.find("advise on 'ledger'"), std::string::npos) << error;
}

TEST(RecordedShapeTest, RejectsAMidProgramHostRead) {
  const std::string error = record_error(
      [](Context& ctx, DeviceArray& a) { ctx.backend().ensure_host_readable(a.ref()); });
  EXPECT_NE(error.find("host read of 'ledger'"), std::string::npos) << error;
}

TEST(RecordedShapeTest, RejectsAHostWriteAfterACeUsedTheArray) {
  const std::string error = record_error([](Context&, DeviceArray& a) {
    a.fill(1.0);
    a.flush_host_writes();
  });
  EXPECT_NE(error.find("host write to 'ledger' after a CE used it"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace grout::workloads
