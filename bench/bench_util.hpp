// Shared helpers for the paper-reproduction benches.
//
// Every bench binary prints the rows of one figure of the paper. The
// platform constants mirror Section V-A: workers with two V100-16GB
// (oversubscription 1x == 32 GiB), 4 Gbit/s worker NICs, an 8 Gbit/s
// controller, and a 2.5 h per-run cap.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/grout_runtime.hpp"
#include "gpusim/gpu_node.hpp"
#include "polyglot/context.hpp"
#include "workloads/workloads.hpp"

namespace grout::bench {

/// Dataset sizes of Figs 1/6/7 (GiB). 32 GiB == 1x oversubscription.
inline std::vector<double> paper_sizes_gib() { return {4, 8, 16, 32, 64, 96, 128, 160}; }

inline Bytes gib(double g) { return static_cast<Bytes>(g * 1073741824.0); }

/// The paper's per-run execution cap (2.5 hours).
inline SimTime run_cap() { return SimTime::from_seconds(2.5 * 3600.0); }

/// Worker node: two V100-16GB.
inline gpusim::GpuNodeConfig paper_node() {
  gpusim::GpuNodeConfig cfg;
  cfg.gpu_count = 2;
  cfg.device = gpusim::v100();
  return cfg;
}

/// Single-node GrCUDA context (Section V-C baseline).
inline polyglot::Context grcuda_context() {
  return polyglot::Context::grcuda(paper_node(), runtime::StreamPolicyKind::DataLocal,
                                   run_cap());
}

/// Distributed GrOUT context over `workers` nodes.
inline polyglot::Context grout_context(std::size_t workers, core::PolicyKind policy,
                                       std::vector<std::uint32_t> step_vector = {1},
                                       core::ExplorationLevel exploration =
                                           core::ExplorationLevel::Medium) {
  core::GroutConfig cfg;
  cfg.cluster.workers = workers;
  cfg.cluster.worker_node = paper_node();
  cfg.cluster.stream_policy = runtime::StreamPolicyKind::DataLocal;
  cfg.policy = policy;
  cfg.step_vector = std::move(step_vector);
  cfg.exploration_threshold = core::exploration_threshold(exploration);
  cfg.run_cap = run_cap();
  return polyglot::Context::grout(std::move(cfg));
}

/// The per-workload offline vector-step vectors for two nodes (the "user
/// knowledge" the paper's offline policy encodes). Each vector's period
/// matches the workload's CE count per iteration so that a partition's CEs
/// land on the same node every iteration:
///   MV/BS  8 partition CEs/iter              -> {1} alternates stably
///   CG     8 spmv + 1 step = 9 CEs/iter      -> {4, 5}
///   MLE    8 partitions x 3 stages + combine -> {12, 13}
inline std::vector<std::uint32_t> step_vector_for(workloads::WorkloadKind kind) {
  switch (kind) {
    case workloads::WorkloadKind::Cg: return {4, 5};
    case workloads::WorkloadKind::Mle: return {12, 13};
    default: return {1};
  }
}

/// Workload parameters at a given footprint (suite defaults: 8 partitions;
/// CG iterates, the others are single-pass inference/pricing).
inline workloads::WorkloadParams params_for(workloads::WorkloadKind kind, Bytes footprint) {
  workloads::WorkloadParams p;
  p.footprint = footprint;
  p.partitions = 8;
  switch (kind) {
    case workloads::WorkloadKind::Cg: p.iterations = 3; break;
    default: p.iterations = 1; break;
  }
  return p;
}

struct RunOutcome {
  double seconds{0.0};
  bool completed{true};
};

inline RunOutcome run_single_node(workloads::WorkloadKind kind, Bytes footprint) {
  polyglot::Context ctx = grcuda_context();
  auto w = workloads::make_workload(kind, params_for(kind, footprint));
  const workloads::WorkloadResult r = workloads::execute_workload(ctx, *w);
  return RunOutcome{r.elapsed.seconds(), r.completed};
}

inline RunOutcome run_grout(workloads::WorkloadKind kind, Bytes footprint, std::size_t workers,
                            core::PolicyKind policy,
                            core::ExplorationLevel exploration = core::ExplorationLevel::Medium,
                            bool shared_matrix = false, std::size_t iterations = 0) {
  polyglot::Context ctx =
      grout_context(workers, policy, step_vector_for(kind), exploration);
  workloads::WorkloadParams p = params_for(kind, footprint);
  p.shared_matrix = shared_matrix;
  if (iterations > 0) p.iterations = iterations;
  auto w = workloads::make_workload(kind, p);
  const workloads::WorkloadResult r = workloads::execute_workload(ctx, *w);
  return RunOutcome{r.elapsed.seconds(), r.completed};
}

inline const char* oot_mark(const RunOutcome& o) { return o.completed ? " " : ">"; }

/// Host-initialize a managed array on a node the caller drives directly: a
/// CPU write first drains the GPUs' pending work, then the host blocks for
/// the migration it triggers.
inline void host_write(sim::Simulator& sim, uvm::UvmSpace& uvm, uvm::ArrayId array) {
  sim.run();
  const uvm::HostAccessReport report = uvm.host_access(array, uvm::AccessMode::Write);
  const SimTime target = sim.now() + report.duration;
  sim.schedule_at(target, [] {});
  sim.run_until(target);
}

}  // namespace grout::bench
