// Figure 11 (extension): shared-state contention serving under Zipf skew.
//
// Four tenants issue YCSB-style read/update programs against one pool of
// shared global arrays; the sweep raises the Zipfian skew (theta) at fixed
// read/write mixes and reports per-tenant p99 latency next to the directory
// traffic the skew generates — invalidations, ownership transfers and the
// bytes refetched because a shared write killed a replica. Disjoint-tenant
// serving (Figure 10) structurally cannot produce these curves: its
// directory never sees two tenants contend for one array.
//
// The cluster runs a deliberately tight per-worker replica budget so
// residency differentiates skew: uniform traffic's replicas die of capacity
// before a write can invalidate them, while hot Zipf replicas stay resident
// on every worker and each shared write harvests them. Directory traffic
// (invalidations + ownership transfers) therefore rises monotonically with
// theta at a fixed mix — the property the CI smoke job asserts.
//
// Writes the sweep as JSON (default BENCH_contention.json, argv[1]
// overrides).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/strings.hpp"
#include "serve/serve.hpp"

namespace {

using namespace grout;

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kTenants = 4;
constexpr std::size_t kPrograms = 24;  // per tenant, closed-loop depth 2

struct ContentionPoint {
  double theta;
  double read_fraction;
};

struct PointResult {
  serve::ServeReport report;
  std::uint64_t invalidations{0};
  std::uint64_t ownership_transfers{0};
  std::uint64_t coherence_refetches{0};
  Bytes refetched_bytes{0};
  std::uint64_t stale_evictions{0};
};

PointResult run_point(const ContentionPoint& point) {
  core::GroutConfig cfg;
  cfg.cluster.workers = kWorkers;
  cfg.cluster.worker_node = bench::paper_node();
  cfg.cluster.stream_policy = runtime::StreamPolicyKind::DataLocal;
  cfg.run_cap = bench::run_cap();
  // Tight replica budget (20 MiB/worker against a 24 MiB pool + per-program
  // privates): the governor must keep evicting, and only skew-hot replicas
  // survive between writes.
  cfg.worker_mem = 20_MiB;
  core::GroutRuntime rt(std::move(cfg));

  serve::ServeConfig scfg;
  workloads::ContentionSpec c;
  c.theta = point.theta;
  c.read_fraction = point.read_fraction;
  c.shared_fraction = 0.9;
  c.pool_arrays = 24;
  c.array_bytes = 1_MiB;
  c.ops = 8;
  c.keys_per_op = 3;
  scfg.contention = c;
  for (std::size_t k = 0; k < kTenants; ++k) {
    serve::TenantSpec t;
    t.name = str_cat("t", std::to_string(k));
    t.arrival = serve::parse_arrival("closed:2");
    t.programs = kPrograms;
    scfg.tenants.push_back(std::move(t));
  }

  PointResult res;
  serve::ServeScheduler scheduler(rt, scfg);
  res.report = scheduler.run();
  const core::SchedulerMetrics& m = rt.metrics();
  res.invalidations = m.invalidations;
  res.ownership_transfers = m.ownership_transfers;
  res.coherence_refetches = m.coherence_refetches;
  res.refetched_bytes = m.refetched_bytes;
  res.stale_evictions = m.stale_evictions;
  return res;
}

double worst_p99_ms(const serve::ServeReport& rep) {
  double worst = 0.0;
  for (const serve::TenantReport& t : rep.tenants) {
    if (t.latency_p99_ms > worst) worst = t.latency_p99_ms;
  }
  return worst;
}

void emit_json_point(std::FILE* out, const ContentionPoint& point, const PointResult& res,
                     bool last) {
  std::fprintf(out,
               "    {\"theta\": %.3f, \"read_fraction\": %.3f, \"elapsed_s\": %.6f, "
               "\"drained\": %s,\n"
               "     \"invalidations\": %llu, \"ownership_transfers\": %llu, "
               "\"coherence_refetches\": %llu, \"refetched_bytes\": %llu, "
               "\"stale_evictions\": %llu, \"p99_ms\": %.3f,\n"
               "     \"per_tenant\": [\n",
               point.theta, point.read_fraction, res.report.elapsed.seconds(),
               res.report.drained ? "true" : "false",
               static_cast<unsigned long long>(res.invalidations),
               static_cast<unsigned long long>(res.ownership_transfers),
               static_cast<unsigned long long>(res.coherence_refetches),
               static_cast<unsigned long long>(res.refetched_bytes),
               static_cast<unsigned long long>(res.stale_evictions),
               worst_p99_ms(res.report));
  for (std::size_t i = 0; i < res.report.tenants.size(); ++i) {
    const serve::TenantReport& t = res.report.tenants[i];
    std::fprintf(out,
                 "      {\"name\": \"%s\", \"completed\": %zu, \"submitted\": %zu, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"throughput_per_s\": %.6f}%s\n",
                 t.name.c_str(), t.completed, t.submitted, t.latency_p50_ms,
                 t.latency_p95_ms, t.latency_p99_ms, t.throughput_per_s,
                 i + 1 < res.report.tenants.size() ? "," : "");
  }
  std::fprintf(out, "    ]}%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_contention.json";

  // theta rises at each fixed read/write mix; 0.99 (the YCSB default) sits
  // in the single-hot-key regime where write-after-write collapses the
  // holder set, so the monotone segment stops at 0.9.
  const std::vector<double> thetas = {0.0, 0.3, 0.6, 0.9};
  const std::vector<double> mixes = {0.95, 0.85};  // read fractions

  std::printf("# Figure 11 — shared-state contention: directory traffic and p99 vs Zipf "
              "skew (%zu tenants, %zu nodes, 20 MiB/worker budget)\n",
              kTenants, kWorkers);
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"fig11_contention\",\n  \"sweeps\": [\n");

  bool monotone = true;
  for (std::size_t mi = 0; mi < mixes.size(); ++mi) {
    const double rw = mixes[mi];
    std::printf("\n## read fraction %.2f\n", rw);
    std::printf("%-6s | %12s | %9s | %9s | %12s | %9s\n", "theta", "invalidations",
                "transfers", "refetches", "refetched", "p99 [ms]");
    std::uint64_t prev_traffic = 0;
    for (std::size_t ti = 0; ti < thetas.size(); ++ti) {
      const ContentionPoint point{thetas[ti], rw};
      const PointResult res = run_point(point);
      std::printf("%-6.2f | %12llu | %9llu | %9llu | %12s | %9.1f\n", point.theta,
                  static_cast<unsigned long long>(res.invalidations),
                  static_cast<unsigned long long>(res.ownership_transfers),
                  static_cast<unsigned long long>(res.coherence_refetches),
                  format_bytes(res.refetched_bytes).c_str(), worst_p99_ms(res.report));
      const std::uint64_t traffic = res.invalidations + res.ownership_transfers;
      if (ti > 0 && traffic < prev_traffic) monotone = false;
      prev_traffic = traffic;
      emit_json_point(out, point, res,
                      mi + 1 == mixes.size() && ti + 1 == thetas.size());
    }
  }

  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s%s\n", out_path,
              monotone ? "" : " (WARNING: directory traffic not monotone in theta)");
  return monotone ? 0 : 1;
}
