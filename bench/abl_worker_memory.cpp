// Ablation: worker replica-cache budget sweep (the cluster memory governor).
//
// The base scheduler replicates arrays onto whichever worker runs a CE and
// never frees a copy, so long runs silently oversubscribe every node — the
// same pathology GrOUT escapes at the UVM layer, recreated one level up.
// The governor bounds each worker's replica cache; this bench sweeps the
// budget from "comfortably above the working set" down to "a fraction of
// it" and reports the price: evictions, spills (sole copies pushed to the
// controller first), refetches on the next pass, and the end-to-end
// slowdown.
//
// The workload is a two-pass partitioned stream (64 GiB over two nodes,
// min-transfer-size placement) with a synchronize between the passes, the
// host-side sync point at which CE pins lapse and the governor reclaims —
// the canned eager-launch workloads keep every replica pinned through its
// last use, so refetches only surface across such a boundary.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"

namespace {

using namespace grout;
using namespace grout::bench;

struct GovernedOutcome {
  double seconds{0.0};
  bool completed{true};
  std::uint64_t evictions{0};
  std::uint64_t spills{0};
  std::uint64_t refetches{0};
  Bytes high_water{0};  ///< max over workers
};

gpusim::KernelLaunchSpec stream_kernel(std::string name, core::GlobalArrayId in,
                                       core::GlobalArrayId out) {
  gpusim::KernelLaunchSpec spec;
  spec.name = std::move(name);
  spec.flops = 1e9;
  spec.params.push_back(uvm::ParamAccess{in, {}, uvm::AccessMode::Read,
                                         uvm::StreamingPattern{}});
  spec.params.push_back(uvm::ParamAccess{out, {}, uvm::AccessMode::Write,
                                         uvm::StreamingPattern{}});
  return spec;
}

GovernedOutcome run_with_budget(Bytes budget) {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node = paper_node();
  cfg.cluster.stream_policy = runtime::StreamPolicyKind::DataLocal;
  cfg.policy = core::PolicyKind::MinTransferSize;
  cfg.run_cap = run_cap();
  cfg.worker_mem = budget;  // 0 = unbounded
  core::GroutRuntime rt(cfg);

  constexpr std::size_t kParts = 16;
  const Bytes part = gib(64.0) / kParts;
  std::vector<core::GlobalArrayId> in;
  std::vector<core::GlobalArrayId> out;
  for (std::size_t j = 0; j < kParts; ++j) {
    in.push_back(rt.alloc(part, "x" + std::to_string(j)));
    out.push_back(rt.alloc(part, "y" + std::to_string(j)));
    rt.host_init(in.back());
  }

  GovernedOutcome o;
  for (int pass = 0; pass < 2 && o.completed; ++pass) {
    for (std::size_t j = 0; j < kParts; ++j) {
      rt.launch(stream_kernel("p" + std::to_string(pass) + ":" + std::to_string(j),
                              in[j], out[j]));
    }
    o.completed = rt.synchronize();  // pins lapse here; the governor reclaims
  }

  const core::SchedulerMetrics& m = rt.metrics();
  o.seconds = rt.now().seconds();
  o.evictions = m.evictions;
  o.spills = m.spills;
  o.refetches = m.refetches;
  for (const Bytes hw : m.worker_resident_peak) o.high_water = std::max(o.high_water, hw);
  return o;
}

}  // namespace

int main() {
  std::printf("# Ablation — worker replica-cache budget sweep (memory governor)\n");
  std::printf("# two-pass partitioned stream, 64 GiB (2x), 2 nodes, min-transfer-size;\n");
  std::printf("# '>' = capped at 2.5 h\n");
  std::printf("%-12s | %10s | %9s | %6s | %9s | %13s | %9s\n", "budget", "time [s]",
              "evictions", "spills", "refetches", "peak resident", "slowdown");
  double baseline = 0.0;
  const double budgets_gib[] = {0.0, 96.0, 48.0, 32.0, 16.0, 8.0};
  for (const double b : budgets_gib) {
    const GovernedOutcome o = run_with_budget(gib(b));
    if (baseline == 0.0) baseline = o.seconds;
    std::printf("%-12s | %s%9.2f | %9llu | %6llu | %9llu | %13s | %8.2fx\n",
                b == 0.0 ? "unbounded" : format_bytes(gib(b)).c_str(),
                o.completed ? " " : ">",
                o.seconds, static_cast<unsigned long long>(o.evictions),
                static_cast<unsigned long long>(o.spills),
                static_cast<unsigned long long>(o.refetches),
                format_bytes(o.high_water).c_str(), o.seconds / baseline);
  }
  return 0;
}
