// Cross-module integration tests: the paper's qualitative claims must hold
// at a laptop-scale version of the evaluation (devices shrunk ~1000x, same
// oversubscription factors).
#include <gtest/gtest.h>

#include "core/autoscaler.hpp"
#include "workloads/workloads.hpp"

namespace grout {
namespace {

using polyglot::Context;
using workloads::WorkloadKind;
using workloads::WorkloadParams;
using workloads::WorkloadResult;

/// Two "V100-16MiB" GPUs per node: 1x oversubscription == 32 MiB.
gpusim::GpuNodeConfig scaled_node() {
  gpusim::GpuNodeConfig cfg;
  cfg.gpu_count = 2;
  cfg.device.memory = 16_MiB;
  cfg.tuning.page_size = 1_MiB;
  return cfg;
}

WorkloadParams params_at(double oversubscription, WorkloadKind kind) {
  WorkloadParams p;
  p.footprint = static_cast<Bytes>(oversubscription * 32.0 * 1024.0 * 1024.0);
  p.partitions = 8;
  p.iterations = kind == WorkloadKind::Cg ? 3 : 1;
  return p;
}

double single_node_seconds(WorkloadKind kind, double oversub) {
  Context ctx =
      Context::grcuda(scaled_node(), runtime::StreamPolicyKind::DataLocal);
  auto w = workloads::make_workload(kind, params_at(oversub, kind));
  return workloads::execute_workload(ctx, *w).elapsed.seconds();
}

double grout_seconds(WorkloadKind kind, double oversub, std::size_t workers,
                     core::PolicyKind policy = core::PolicyKind::VectorStep) {
  core::GroutConfig cfg;
  cfg.cluster.workers = workers;
  cfg.cluster.worker_node = scaled_node();
  cfg.cluster.stream_policy = runtime::StreamPolicyKind::DataLocal;
  cfg.policy = policy;
  cfg.step_vector = kind == WorkloadKind::Cg ? std::vector<std::uint32_t>{4, 5}
                                             : std::vector<std::uint32_t>{1};
  Context ctx = Context::grout(std::move(cfg));
  auto w = workloads::make_workload(kind, params_at(oversub, kind));
  return workloads::execute_workload(ctx, *w).elapsed.seconds();
}

// ---------------------------------------------------------------------------
// Figure 6a shape: near-linear growth below the threshold, a cliff past it.
// ---------------------------------------------------------------------------

class CliffShape : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(CliffShape, SubThresholdGrowthIsNearLinear) {
  const double t1 = single_node_seconds(GetParam(), 0.5);
  const double t2 = single_node_seconds(GetParam(), 1.0);
  const double t4 = single_node_seconds(GetParam(), 2.0);
  // Doubling data below the cliff costs less than ~8x each step.
  EXPECT_LT(t2 / t1, 8.0);
  EXPECT_LT(t4 / t2, 8.0);
}

TEST_P(CliffShape, CliffAppearsBetween2xAnd3x) {
  const double t2 = single_node_seconds(GetParam(), 2.0);
  const double t3 = single_node_seconds(GetParam(), 3.0);
  // The paper's steps are 70-342x for +50% data; demand at least 20x.
  EXPECT_GT(t3 / t2, 20.0) << "no oversubscription cliff";
}

INSTANTIATE_TEST_SUITE_P(Workloads, CliffShape,
                         ::testing::Values(WorkloadKind::Mle, WorkloadKind::Cg,
                                           WorkloadKind::Mv),
                         [](const auto& p) { return std::string(to_string(p.param)); });

// ---------------------------------------------------------------------------
// Figure 7 shape: the single node wins pre-oversubscription; GrOUT wins at 3x.
// ---------------------------------------------------------------------------

class CrossoverShape : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(CrossoverShape, SingleNodeWinsWithoutOversubscription) {
  const double single = single_node_seconds(GetParam(), 0.5);
  const double dist = grout_seconds(GetParam(), 0.5, 2);
  EXPECT_LT(single, dist) << "GrOUT should pay the network below 1x";
}

TEST_P(CrossoverShape, GroutWinsAt3x) {
  const double single = single_node_seconds(GetParam(), 3.0);
  const double dist = grout_seconds(GetParam(), 3.0, 2);
  EXPECT_GT(single / dist, 1.0) << "scale-out must beat the storming single node";
}

INSTANTIATE_TEST_SUITE_P(Workloads, CrossoverShape,
                         ::testing::Values(WorkloadKind::Mle, WorkloadKind::Cg,
                                           WorkloadKind::Mv),
                         [](const auto& p) { return std::string(to_string(p.param)); });

// ---------------------------------------------------------------------------
// Storm mechanics visible through the backends
// ---------------------------------------------------------------------------

TEST(StormIntegration, SingleNodeStormsAt3xButWorkersDoNot) {
  // Single node at 3x: storms.
  Context single = Context::grcuda(scaled_node(), runtime::StreamPolicyKind::DataLocal);
  auto w1 = workloads::make_workload(WorkloadKind::Mv, params_at(3.0, WorkloadKind::Mv));
  workloads::execute_workload(single, *w1);
  auto& gr_backend = dynamic_cast<polyglot::GrCudaBackend&>(single.backend());
  EXPECT_GT(gr_backend.node().uvm().stats().storm_kernels, 0u);

  // GrOUT at 3x over two nodes: each node sits at 1.5x — no storms.
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node = scaled_node();
  Context dist = Context::grout(std::move(cfg));
  auto w2 = workloads::make_workload(WorkloadKind::Mv, params_at(3.0, WorkloadKind::Mv));
  workloads::execute_workload(dist, *w2);
  auto& go_backend = dynamic_cast<polyglot::GroutBackend&>(dist.backend());
  EXPECT_EQ(go_backend.grout().aggregated_uvm_stats().storm_kernels, 0u);
}

TEST(StormIntegration, AutoscalerDiagnosesTheSingleNode) {
  Context single = Context::grcuda(scaled_node(), runtime::StreamPolicyKind::DataLocal);
  auto w = workloads::make_workload(WorkloadKind::Mv, params_at(4.0, WorkloadKind::Mv));
  workloads::execute_workload(single, *w);
  auto& backend = dynamic_cast<polyglot::GrCudaBackend&>(single.backend());

  core::KpiAutoscaler scaler(backend.node().uvm().tuning());
  scaler.observe(backend.node().uvm().stats());
  const core::AutoscaleDecision d = scaler.recommend(1);
  EXPECT_TRUE(d.scale_out);
  EXPECT_GE(d.recommended_workers, 2u);
}

// ---------------------------------------------------------------------------
// More workers help more (Fig 9 / Section V-F direction)
// ---------------------------------------------------------------------------

TEST(ScaleOutIntegration, FourWorkersBeatTwoAtDeepOversubscription) {
  const double two = grout_seconds(WorkloadKind::Mv, 5.0, 2);
  const double four = grout_seconds(WorkloadKind::Mv, 5.0, 4);
  EXPECT_LT(four, two);
}

TEST(ScaleOutIntegration, NetworkBytesScaleWithFootprint) {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node = scaled_node();
  Context ctx = Context::grout(std::move(cfg));
  auto w = workloads::make_workload(WorkloadKind::Mv, params_at(1.0, WorkloadKind::Mv));
  workloads::execute_workload(ctx, *w);
  auto& backend = dynamic_cast<polyglot::GroutBackend&>(ctx.backend());
  // At least the matrix (~footprint) must have crossed the network once.
  EXPECT_GE(backend.grout().cluster().fabric().total_bytes(),
            static_cast<Bytes>(0.8 * 32.0 * 1024.0 * 1024.0));
}

// ---------------------------------------------------------------------------
// Policy behaviour at scale (Fig 8 direction)
// ---------------------------------------------------------------------------

TEST(PolicyIntegration, MinTransferGluesSharedMatrixToOneNode) {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node = scaled_node();
  cfg.policy = core::PolicyKind::MinTransferSize;
  Context ctx = Context::grout(std::move(cfg));
  WorkloadParams p = params_at(2.0, WorkloadKind::Mv);
  p.shared_matrix = true;
  auto w = workloads::make_workload(WorkloadKind::Mv, p);
  workloads::execute_workload(ctx, *w);
  auto& backend = dynamic_cast<polyglot::GroutBackend&>(ctx.backend());
  const auto& assignments = backend.grout().metrics().assignments;
  // Whole-array transfer granularity: after the first CE lands, every
  // other CE follows the matrix (the Figure 8 pathology).
  EXPECT_EQ(std::min(assignments[0], assignments[1]), 0u);
}

TEST(PolicyIntegration, RoundRobinSpreadsSharedMatrixCEs) {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node = scaled_node();
  cfg.policy = core::PolicyKind::RoundRobin;
  Context ctx = Context::grout(std::move(cfg));
  WorkloadParams p = params_at(2.0, WorkloadKind::Mv);
  p.shared_matrix = true;
  auto w = workloads::make_workload(WorkloadKind::Mv, p);
  workloads::execute_workload(ctx, *w);
  auto& backend = dynamic_cast<polyglot::GroutBackend&>(ctx.backend());
  const auto& assignments = backend.grout().metrics().assignments;
  EXPECT_EQ(assignments[0], assignments[1]);
}

}  // namespace
}  // namespace grout
