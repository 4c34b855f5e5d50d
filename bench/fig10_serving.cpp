// Figure 10 (extension): multi-tenant serving frontend under load.
//
// Sweeps tenant count x arrival rate over the shared two-node cluster and
// reports the per-tenant SLO ledger — program latency p50/p95/p99, queue
// wait, throughput, shed count — plus one weighted closed-loop saturation
// point (weights 2:1:1) showing WFQ's proportional dispatch.
//
// Writes the full sweep as JSON (default BENCH_serve.json, argv[1]
// overrides) for the CI smoke job, which requires the p99 fields to be
// present.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/strings.hpp"
#include "serve/serve.hpp"

namespace {

using namespace grout;

struct SweepPoint {
  std::size_t tenants;
  std::string arrival;
  std::vector<double> weights;  // cycled; empty = all 1
  std::size_t programs;
  std::size_t max_outstanding;  // 0 = 4 x workers
};

serve::ServeReport run_point(const SweepPoint& point, workloads::WorkloadKind kind,
                             double size_gib) {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node = bench::paper_node();
  cfg.cluster.stream_policy = runtime::StreamPolicyKind::DataLocal;
  cfg.run_cap = bench::run_cap();
  core::GroutRuntime rt(std::move(cfg));

  serve::ServeConfig scfg;
  scfg.max_outstanding_ces = point.max_outstanding;
  for (std::size_t k = 0; k < point.tenants; ++k) {
    serve::TenantSpec t;
    t.name = str_cat("t", std::to_string(k));
    if (!point.weights.empty()) t.weight = point.weights[k % point.weights.size()];
    t.workload = kind;
    t.params.footprint = bench::gib(size_gib);
    t.params.partitions = 4;
    t.params.iterations = 1;
    t.arrival = serve::parse_arrival(point.arrival);
    t.programs = point.programs;
    scfg.tenants.push_back(std::move(t));
  }
  serve::ServeScheduler scheduler(rt, scfg);
  return scheduler.run();
}

void emit_json_point(std::FILE* out, const SweepPoint& point, const serve::ServeReport& rep,
                     workloads::WorkloadKind kind, double size_gib, bool last) {
  std::fprintf(out,
               "    {\"tenants\": %zu, \"arrival\": \"%s\", \"workload\": \"%s\", "
               "\"size_gib\": %.3f, \"elapsed_s\": %.6f, \"drained\": %s,\n"
               "     \"per_tenant\": [\n",
               point.tenants, point.arrival.c_str(), workloads::to_string(kind), size_gib,
               rep.elapsed.seconds(), rep.drained ? "true" : "false");
  for (std::size_t i = 0; i < rep.tenants.size(); ++i) {
    const serve::TenantReport& t = rep.tenants[i];
    std::fprintf(out,
                 "      {\"name\": \"%s\", \"weight\": %.3f, \"submitted\": %zu, "
                 "\"completed\": %zu, \"shed\": %zu, \"ces\": %llu, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"queue_wait_ms\": %.3f, \"throughput_per_s\": %.6f, "
                 "\"starvation_max\": %llu}%s\n",
                 t.name.c_str(), t.weight, t.submitted, t.completed, t.shed,
                 static_cast<unsigned long long>(t.ces_dispatched), t.latency_p50_ms,
                 t.latency_p95_ms, t.latency_p99_ms, t.queue_wait_mean_ms,
                 t.throughput_per_s,
                 static_cast<unsigned long long>(t.starvation_max),
                 i + 1 < rep.tenants.size() ? "," : "");
  }
  std::fprintf(out, "    ]}%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grout;

  const char* out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const workloads::WorkloadKind kind = workloads::WorkloadKind::BlackScholes;
  const double size_gib = 0.5;

  // Open-loop points sweep tenant count x Poisson rate; the closed-loop
  // point saturates a narrow dispatch window so the 2:1:1 weights decide
  // who gets the slots.
  const std::vector<SweepPoint> sweep = {
      {2, "poisson:0.5", {}, 6, 0},
      {2, "poisson:2.0", {}, 6, 0},
      {4, "poisson:0.5", {}, 6, 0},
      {4, "poisson:2.0", {}, 6, 0},
      {3, "closed:2", {2.0, 1.0, 1.0}, 8, 4},
  };

  std::printf("# Figure 10 — multi-tenant serving: tenants x arrival rate (%s, %.2f GiB "
              "programs, 2 nodes)\n",
              workloads::to_string(kind), size_gib);
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"fig10_serving\",\n  \"sweeps\": [\n");

  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& point = sweep[i];
    const serve::ServeReport rep = run_point(point, kind, size_gib);
    std::printf("\n## %zu tenants, arrival %s%s\n", point.tenants, point.arrival.c_str(),
                point.weights.empty() ? "" : ", weights 2:1:1");
    std::printf("%-6s | %6s | %8s | %4s | %9s | %9s | %9s | %9s | %6s\n", "tenant",
                "weight", "done/sub", "shed", "p50 [ms]", "p95 [ms]", "p99 [ms]",
                "wait [ms]", "starve");
    for (const serve::TenantReport& t : rep.tenants) {
      std::printf("%-6s | %6.1f | %5zu/%-2zu | %4zu | %9.1f | %9.1f | %9.1f | %9.1f | %6llu\n",
                  t.name.c_str(), t.weight, t.completed, t.submitted, t.shed,
                  t.latency_p50_ms, t.latency_p95_ms, t.latency_p99_ms, t.queue_wait_mean_ms,
                  static_cast<unsigned long long>(t.starvation_max));
    }
    std::printf("-> %s in %.3f s simulated\n", rep.drained ? "drained" : "HORIZON EXPIRED",
                rep.elapsed.seconds());
    emit_json_point(out, point, rep, kind, size_gib, i + 1 == sweep.size());
  }

  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
