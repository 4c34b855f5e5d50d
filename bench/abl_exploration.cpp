// Ablation C: exploration-vs-exploitation threshold sensitivity beyond the
// paper's three levels (Fig. 8 only samples Low/Medium/High).
//
// Sweeps the min-transfer-size viability threshold on two workloads at 3x
// oversubscription over two nodes:
//   * MLE (partitioned arrays): placement quality is threshold-insensitive
//     once partitions have landed — matching Fig. 8's "greediness has no
//     noteworthy impact";
//   * MV with a shared matrix: at ANY threshold the whole-array locality
//     signal glues CEs to one node, so only threshold > 1.0-equivalents
//     (pure exploration) escape — the pathology is structural, not a
//     tuning artifact.
#include <cstdio>

#include "bench/bench_util.hpp"

namespace {

using namespace grout;
using namespace grout::bench;

double run_with_threshold(workloads::WorkloadKind kind, double threshold, bool shared,
                          bool* capped) {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node = paper_node();
  cfg.cluster.stream_policy = runtime::StreamPolicyKind::DataLocal;
  cfg.policy = core::PolicyKind::MinTransferSize;
  cfg.exploration_threshold = threshold;
  cfg.run_cap = run_cap();
  polyglot::Context ctx = polyglot::Context::grout(std::move(cfg));

  workloads::WorkloadParams p = params_for(kind, gib(96.0));
  p.shared_matrix = shared;
  if (shared) p.iterations = 2;
  auto w = workloads::make_workload(kind, p);
  const workloads::WorkloadResult r = workloads::execute_workload(ctx, *w);
  *capped = !r.completed;
  return r.elapsed.seconds();
}

}  // namespace

int main() {
  std::printf("# Ablation C — min-transfer-size viability threshold sweep\n");
  std::printf("# 96 GiB (3x), 2 nodes; '>' = capped at 2.5 h\n");
  std::printf("%-10s | %16s | %22s\n", "threshold", "MLE [s]", "MV shared-matrix [s]");
  for (const double threshold : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    bool mle_capped = false;
    bool mv_capped = false;
    const double mle =
        run_with_threshold(workloads::WorkloadKind::Mle, threshold, false, &mle_capped);
    const double mv =
        run_with_threshold(workloads::WorkloadKind::Mv, threshold, true, &mv_capped);
    std::printf("%-10.2f | %s%15.2f | %s%21.2f\n", threshold, mle_capped ? ">" : " ", mle,
                mv_capped ? ">" : " ", mv);
  }
  return 0;
}
