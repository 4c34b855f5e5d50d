// KPI-driven autoscaling (Section V-F's suggested heuristic, implemented).
//
// Runs the massively parallel MV workload on one node at deep
// oversubscription, lets the autoscaler diagnose the UVM pressure from the
// node's UVM counters, then re-runs on the recommended cluster size and
// reports the improvement.
#include <cstdio>

#include "core/autoscaler.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace grout;
using polyglot::Context;

gpusim::GpuNodeConfig scaled_node() {
  gpusim::GpuNodeConfig cfg;
  cfg.gpu_count = 2;
  cfg.device.memory = 16_MiB;  // 32 MiB/node = 1x oversubscription
  cfg.tuning.page_size = 1_MiB;
  return cfg;
}

workloads::WorkloadParams workload_params() {
  workloads::WorkloadParams p;
  p.footprint = 128_MiB;  // 4x oversubscription on a single node
  p.partitions = 8;
  p.iterations = 1;
  return p;
}

double run_on_workers(std::size_t workers) {
  core::GroutConfig cfg;
  cfg.cluster.workers = workers;
  cfg.cluster.worker_node = scaled_node();
  Context ctx = Context::grout(std::move(cfg));
  auto w = workloads::make_workload(workloads::WorkloadKind::Mv, workload_params());
  return workloads::execute_workload(ctx, *w).elapsed.seconds();
}

}  // namespace

int main() {
  // Phase 1: single-node run; collect the node's UVM counters.
  Context single = Context::grcuda(scaled_node(), runtime::StreamPolicyKind::DataLocal);
  auto workload = workloads::make_workload(workloads::WorkloadKind::Mv, workload_params());
  const workloads::WorkloadResult baseline = workloads::execute_workload(single, *workload);

  auto& backend = dynamic_cast<polyglot::GrCudaBackend&>(single.backend());
  core::KpiAutoscaler scaler(backend.node().uvm().tuning());
  scaler.observe(backend.node().uvm().stats());

  std::printf("single node: %.2f s simulated, peak oversubscription %.2fx, %zu storms\n",
              baseline.elapsed.seconds(), scaler.peak_intensity(),
              scaler.observed_storms());

  // Phase 2: the KPI heuristic recommends a cluster size.
  const core::AutoscaleDecision decision = scaler.recommend(1);
  std::printf("autoscaler: %s\n", decision.reason.c_str());
  if (!decision.scale_out) {
    std::printf("no scale-out needed.\n");
    return 0;
  }
  std::printf("recommendation: scale out to %zu workers\n", decision.recommended_workers);

  // Phase 3: re-run on the recommended cluster.
  const double scaled = run_on_workers(decision.recommended_workers);
  std::printf("GrOUT x%zu:  %.2f s simulated  ->  speedup %.2fx\n",
              decision.recommended_workers, scaled, baseline.elapsed.seconds() / scaled);
  return 0;
}
