// Ablation: synchronous eviction and spilling under oversubscription.
//
// The governor evicts on the CE dispatch path (make_room) and when pins
// lapse (enforce); a sole up-to-date copy is first spilled to controller
// host memory, and its consumers are ordered after the write-back. This
// sweep raises the array footprint from 1x to 10x the aggregate worker
// replica budget and reports, per point:
//
//   * completion + makespan: 10x oversubscription must finish with the
//     per-worker budget honoured;
//   * the eviction bill: evictions, spills, refetches, the peak of
//     spilled bytes held by the controller, the write-back queue peak and
//     the simulated time consumers waited on in-flight write-backs;
//   * CE dispatch latency on stdout only (real wall-clock of the dispatch
//     path, the SchedulerMetrics::decision_ns p99), so the JSON stays a
//     fully simulated golden.
//
// The workload ping-pongs between two array families (pass p reads the
// arrays pass p-1 wrote), so every pass consumes sole copies the previous
// pass spilled. Launches are paced in small waves with a synchronize
// between waves, where pins lapse.
//
// Writes the sweep as JSON (default BENCH_spill.json, argv[1] overrides)
// and exits non-zero if any run fails its bounds.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

namespace {

using namespace grout;
using namespace grout::bench;

constexpr std::size_t kWorkers = 2;
constexpr Bytes kWorkerMem = 256_MiB;  // per-worker replica budget
constexpr Bytes kPart = 16_MiB;        // one array; a CE touches two (in + out)
constexpr std::size_t kWave = 3;       // CEs in flight between synchronizes
constexpr std::size_t kPasses = 3;

struct PointOutcome {
  bool completed{true};
  double seconds{0.0};
  double dispatch_p99_us{0.0};
  core::SchedulerMetrics metrics;
  Bytes worker_high_water{0};  ///< max over workers
};

gpusim::KernelLaunchSpec pingpong_kernel(std::string name, core::GlobalArrayId in,
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

/// One sweep point: `ratio` x the aggregate worker budget of array bytes.
PointOutcome run_point(double ratio) {
  core::GroutConfig cfg;
  cfg.cluster.workers = kWorkers;
  cfg.cluster.worker_node = paper_node();
  cfg.cluster.stream_policy = runtime::StreamPolicyKind::DataLocal;
  cfg.policy = core::PolicyKind::MinTransferSize;
  cfg.run_cap = run_cap();
  cfg.worker_mem = kWorkerMem;
  core::GroutRuntime rt(cfg);

  // footprint = ratio x aggregate budget, split evenly between the two
  // ping-pong families (pass p reads family p%2, writes family (p+1)%2).
  const auto pairs = static_cast<std::size_t>(
      ratio * static_cast<double>(kWorkers * kWorkerMem) / static_cast<double>(2 * kPart));
  std::vector<core::GlobalArrayId> a;
  std::vector<core::GlobalArrayId> b;
  for (std::size_t j = 0; j < pairs; ++j) {
    a.push_back(rt.alloc(kPart, "a" + std::to_string(j)));
    b.push_back(rt.alloc(kPart, "b" + std::to_string(j)));
    rt.host_init(a.back());
  }

  PointOutcome o;
  for (std::size_t pass = 0; pass < kPasses && o.completed; ++pass) {
    const std::vector<core::GlobalArrayId>& in = pass % 2 == 0 ? a : b;
    const std::vector<core::GlobalArrayId>& out = pass % 2 == 0 ? b : a;
    for (std::size_t j = 0; j < pairs && o.completed; ++j) {
      rt.launch(pingpong_kernel("p" + std::to_string(pass) + ":" + std::to_string(j),
                                in[j], out[j]));
      // Paced launching: pins lapse at the wave boundary, and the next
      // wave's dispatches pay the eviction bill.
      if ((j + 1) % kWave == 0) o.completed = rt.synchronize();
    }
    if (o.completed) o.completed = rt.synchronize();
  }

  o.seconds = rt.now().seconds();
  o.metrics = rt.metrics();
  if (o.metrics.decision_ns.count() > 0) {
    o.dispatch_p99_us = o.metrics.decision_ns.percentile(99.0) / 1000.0;
  }
  for (const Bytes hw : o.metrics.worker_resident_peak) {
    o.worker_high_water = std::max(o.worker_high_water, hw);
  }
  return o;
}

int fail(const char* why, double ratio) {
  std::fprintf(stderr, "FAIL at %.0fx: %s\n", ratio, why);
  return 1;
}

void emit_json_point(std::FILE* out, double ratio, const PointOutcome& o, bool last) {
  const core::SchedulerMetrics& m = o.metrics;
  std::fprintf(
      out,
      "    {\"oversubscription\": %.1f, \"completed\": %s, \"elapsed_s\": %.6f,\n"
      "     \"evictions\": %llu, \"spills\": %llu, \"refetches\": %llu,\n"
      "     \"worker_high_water_bytes\": %llu, \"spill_dram_high_water_bytes\": %llu,\n"
      "     \"writeback_queue_peak\": %llu, \"spill_wait_s\": %.6f}%s\n",
      ratio, o.completed ? "true" : "false", o.seconds,
      static_cast<unsigned long long>(m.evictions), static_cast<unsigned long long>(m.spills),
      static_cast<unsigned long long>(m.refetches),
      static_cast<unsigned long long>(o.worker_high_water),
      static_cast<unsigned long long>(m.spill_dram_high_water),
      static_cast<unsigned long long>(m.writeback_queue_peak), m.spill_wait.seconds(),
      last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_spill.json";
  const double ratios[] = {1.0, 2.0, 5.0, 10.0};

  std::printf("# Ablation — synchronous eviction and spilling under oversubscription\n");
  std::printf("# 2 workers x %s budget, sole copies spilled to controller memory;\n",
              format_bytes(kWorkerMem).c_str());
  std::printf("# ping-pong passes, waves of %zu CEs; '>' = capped at 2.5 h\n", kWave);
  std::printf("%-6s | %9s | %11s | %9s | %6s | %13s | %15s\n", "ratio", "time [s]",
              "disp p99 us", "evictions", "spills", "peak resident", "peak ctl copies");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"abl_spill_tiers\",\n  \"workers\": %zu,\n"
               "  \"worker_mem_bytes\": %llu,\n  \"sweeps\": [\n",
               kWorkers, static_cast<unsigned long long>(kWorkerMem));

  int rc = 0;
  for (std::size_t i = 0; i < std::size(ratios); ++i) {
    const double ratio = ratios[i];
    const PointOutcome o = run_point(ratio);
    emit_json_point(out, ratio, o, i + 1 == std::size(ratios));
    std::printf("%-6.0f | %s%8.2f | %11.2f | %9llu | %6llu | %13s | %15s\n", ratio,
                o.completed ? " " : ">", o.seconds, o.dispatch_p99_us,
                static_cast<unsigned long long>(o.metrics.evictions),
                static_cast<unsigned long long>(o.metrics.spills),
                format_bytes(o.worker_high_water).c_str(),
                format_bytes(o.metrics.spill_dram_high_water).c_str());

    // The guarantees the committed JSON stands for.
    if (!o.completed) rc = fail("run did not complete under the cap", ratio);
    if (o.worker_high_water > kWorkerMem) rc = fail("worker replica budget exceeded", ratio);
  }

  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  if (rc == 0) std::printf("wrote %s\n", out_path.c_str());
  return rc;
}
