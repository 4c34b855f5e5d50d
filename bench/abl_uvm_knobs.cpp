// Ablation A: how the UVM design knobs shape the oversubscription cliff.
//
//   A.1 eviction policy under a hot/cold mix — clock-LRU's second chance
//       protects the hot working set but suffers the classic 100%-miss
//       pathology on the cyclic cold stream; random eviction keeps a
//       resident sample of the cold set and wins overall; FIFO gets
//       neither benefit.
//   A.2 storm fault granularity — the collapsed service rate scales with
//       the fine page size, moving the cliff's magnitude.
//   A.3 storm threshold placement — the cliff position follows the
//       threshold; the paper observes it between 2x and 3x.
// DESIGN.md calls these out as the calibrated constants of the model; this
// bench shows which shapes are robust and which are calibration choices.
#include <cstdio>

#include "bench/bench_util.hpp"

namespace {

using namespace grout;
using namespace grout::bench;

// ---------------------------------------------------------------------------
// A.1: hot/cold mix per eviction policy (node-level synthetic).
// ---------------------------------------------------------------------------

double hot_cold_seconds(uvm::EvictionPolicyKind eviction) {
  gpusim::GpuNodeConfig cfg = paper_node();
  cfg.gpu_count = 1;
  cfg.eviction = eviction;
  sim::Simulator sim;
  gpusim::GpuNode node(sim, cfg);
  uvm::UvmSpace& uvm = node.uvm();

  // Hot: 6 GiB reused every kernel. Cold: 12 GiB streamed per iteration.
  // Together they exceed the 16 GiB device, so the victim choice decides
  // whether the hot set survives.
  const uvm::ArrayId hot = uvm.alloc(6_GiB, "hot");
  const uvm::ArrayId cold = uvm.alloc(12_GiB, "cold");
  host_write(sim, uvm, hot);
  host_write(sim, uvm, cold);
  gpusim::Stream& s = node.gpu(0).create_stream();
  for (int iter = 0; iter < 6; ++iter) {
    gpusim::KernelLaunchSpec spec;
    spec.name = "hotcold";
    spec.flops = 1e10;
    spec.parallelism = uvm::Parallelism::High;
    spec.params.push_back(uvm::ParamAccess{hot, uvm::ByteRange{}, uvm::AccessMode::Read,
                                           uvm::HotReusePattern{}});
    spec.params.push_back(uvm::ParamAccess{cold, uvm::ByteRange{}, uvm::AccessMode::Read,
                                           uvm::StreamingPattern{}});
    s.enqueue_kernel(std::move(spec), nullptr);
  }
  sim.run();
  return sim.now().seconds();
}

// ---------------------------------------------------------------------------
// A.2 / A.3: MV sweeps with modified tuning.
// ---------------------------------------------------------------------------

struct MvOutcome {
  double seconds;
  bool capped;
};

MvOutcome run_mv(Bytes footprint, uvm::UvmTuning tuning) {
  gpusim::GpuNodeConfig node = paper_node();
  node.tuning = tuning;
  polyglot::Context ctx =
      polyglot::Context::grcuda(node, runtime::StreamPolicyKind::DataLocal, run_cap());
  auto w = workloads::make_workload(workloads::WorkloadKind::Mv,
                                    params_for(workloads::WorkloadKind::Mv, footprint));
  const workloads::WorkloadResult r = workloads::execute_workload(ctx, *w);
  return MvOutcome{r.elapsed.seconds(), !r.completed};
}

}  // namespace

int main() {
  std::printf("# Ablation A.1 — eviction policy, 6 GiB hot + 12 GiB cold on one 16 GiB GPU\n");
  std::printf("%-12s %12s\n", "policy", "time [s]");
  for (const auto policy : {uvm::EvictionPolicyKind::ClockLru, uvm::EvictionPolicyKind::Fifo,
                            uvm::EvictionPolicyKind::Random}) {
    std::printf("%-12s %12.3f\n", uvm::to_string(policy), hot_cold_seconds(policy));
  }

  std::printf("\n# Ablation A.2 — storm fault granularity (MV @ 96 GiB, seconds)\n");
  std::printf("%-14s %14s %10s\n", "fine page", "time [s]", "capped");
  for (const Bytes fine : {64_KiB, 256_KiB, 1_MiB}) {
    uvm::UvmTuning tuning;
    tuning.fine_page_size = fine;
    const MvOutcome o = run_mv(gib(96.0), tuning);
    std::printf("%-14s %14.2f %10s\n", format_bytes(fine).c_str(), o.seconds,
                o.capped ? "yes" : "");
  }

  std::printf("\n# Ablation A.3 — storm threshold placement (MV, seconds; '>' = capped)\n");
  std::printf("%-10s %14s %14s %14s\n", "threshold", "64 GiB", "96 GiB", "128 GiB");
  for (const double threshold : {1.8, 2.2, 2.6, 3.4}) {
    std::printf("%-10.1f", threshold);
    for (const double size : {64.0, 96.0, 128.0}) {
      uvm::UvmTuning tuning;
      tuning.storm_oversubscription_threshold = threshold;
      const MvOutcome o = run_mv(gib(size), tuning);
      std::printf(" %s%13.2f", o.capped ? ">" : " ", o.seconds);
    }
    std::printf("\n");
  }
  return 0;
}
