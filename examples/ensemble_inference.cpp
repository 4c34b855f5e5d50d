// Ensemble-model inference (the paper's MLE workload) with scheduling
// introspection: shows the Global DAG the controller builds and how the
// online min-transfer-time policy places the imbalanced pipelines.
#include <cstdio>
#include <span>

#include "workloads/workloads.hpp"

int main() {
  using namespace grout;
  using polyglot::Context;

  core::GroutConfig config;
  config.cluster.workers = 2;
  config.policy = core::PolicyKind::MinTransferTime;
  config.exploration_threshold = core::exploration_threshold(core::ExplorationLevel::Medium);
  Context ctx = Context::grout(std::move(config));

  workloads::WorkloadParams params;
  params.footprint = 8_MiB;  // materialized: functional results available
  params.partitions = 4;
  params.iterations = 2;
  auto workload = workloads::make_workload(workloads::WorkloadKind::Mle, params);

  const workloads::WorkloadResult result = workloads::execute_workload(ctx, *workload);
  std::printf("ensemble inference: %zu CEs in %s (completed: %s)\n", result.ce_count,
              format_time(result.elapsed).c_str(), result.completed ? "yes" : "no");
  std::printf("functional verification: %s\n", workload->verify(ctx) ? "PASS" : "FAIL");

  auto& backend = dynamic_cast<polyglot::GroutBackend&>(ctx.backend());
  core::GroutRuntime& rt = backend.grout();

  std::printf("\nGlobal DAG: %zu vertices, %zu edges\n", rt.global_dag().size(),
              rt.global_dag().edge_count());
  const auto& m = rt.metrics();
  std::printf("placements: worker0=%llu worker1=%llu\n",
              static_cast<unsigned long long>(m.assignments[0]),
              static_cast<unsigned long long>(m.assignments[1]));
  std::printf("data movement: %llu controller sends, %llu P2P sends, %s planned\n",
              static_cast<unsigned long long>(m.controller_sends),
              static_cast<unsigned long long>(m.p2p_sends),
              format_bytes(m.bytes_planned).c_str());
  std::printf("median scheduling decision: %.1f us (real wall clock, Fig. 9 metric)\n",
              rt.metrics().decision_ns.median() / 1000.0);

  // Show a few CE placements from the DAG.
  std::printf("\nfirst CEs in the Global DAG:\n");
  for (dag::VertexId v = 0; v < std::min<std::size_t>(8, rt.global_dag().size()); ++v) {
    std::printf("  [%llu] %-12s deps={", static_cast<unsigned long long>(v),
                rt.global_dag().vertex(v).label.c_str());
    const std::span<const dag::VertexId> deps = rt.global_dag().ancestors(v);
    for (std::size_t i = 0; i < deps.size(); ++i) {
      std::printf("%s%llu", i ? "," : "", static_cast<unsigned long long>(deps[i]));
    }
    std::printf("}\n");
  }
  return workload->verify(ctx) ? 0 : 1;
}
