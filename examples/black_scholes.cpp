// Black–Scholes option pricing (the paper's Figure 1 motivating example).
//
// Prices a batch of European options with a kernel compiled from CUDA C++
// source by the NVRTC stand-in, on both backends, and shows how the
// oversubscription slowdown appears on a single (scaled-down) node while
// GrOUT's two nodes absorb it.
#include <cmath>
#include <cstdio>
#include <memory>

#include "polyglot/context.hpp"
#include "workloads/workloads.hpp"

namespace {

constexpr const char* kBlackScholes = R"(
extern "C" __global__ void bs(const float* x, float* call, float* put, int n,
                              float r, float v, float t, float k) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float s = x[i];
    float rootT = sqrt(t);
    float d1 = (log(s / k) + (r + 0.5 * v * v) * t) / (v * rootT);
    float d2 = d1 - v * rootT;
    float nd1 = normcdf(d1);
    float nd2 = normcdf(d2);
    float discount = k * exp(-r * t);
    call[i] = s * nd1 - discount * nd2;
    put[i] = discount * (1.0 - nd2) - s * (1.0 - nd1);
  }
}
)";

constexpr const char* kSignature =
    "bs(x: const pointer float, call: out pointer float, put: out pointer float, "
    "n: sint32, r: float, v: float, t: float, k: float)";

using grout::operator""_MiB;

/// Laptop-scale node: two 16 MiB "GPUs" (so 32 MiB = 1x oversubscription).
grout::gpusim::GpuNodeConfig scaled_node() {
  grout::gpusim::GpuNodeConfig cfg;
  cfg.gpu_count = 2;
  cfg.device.memory = 16_MiB;
  cfg.tuning.page_size = 1_MiB;
  return cfg;
}

double price_batch(grout::polyglot::Context& ctx, std::size_t n, bool print_samples) {
  using grout::polyglot::Value;
  Value build = ctx.eval("buildkernel");
  Value bs = build(Value(kBlackScholes), Value(kSignature));
  bs.as_kernel()->set_parallelism(grout::uvm::Parallelism::Massive);

  auto spot = ctx.alloc_array(grout::polyglot::ElemType::F32, n, "spot");
  auto call = ctx.alloc_array(grout::polyglot::ElemType::F32, n, "call");
  auto put = ctx.alloc_array(grout::polyglot::ElemType::F32, n, "put");
  spot->init([](std::size_t i) { return 80.0 + static_cast<double>(i % 400) / 10.0; });

  bs(Value((n + 255) / 256), Value(256))(Value(spot), Value(call), Value(put),
                                         Value(static_cast<std::int64_t>(n)), Value(0.05),
                                         Value(0.3), Value(1.0), Value(100.0));
  ctx.synchronize();

  if (print_samples && spot->materialized()) {
    std::printf("  spot    call     put   (strike 100, r=5%%, vol=30%%, T=1y)\n");
    for (std::size_t i = 0; i < 5; ++i) {
      std::printf("  %6.2f %7.3f %7.3f\n", spot->get(i), call->get(i), put->get(i));
    }
  }
  return ctx.now().seconds();
}

}  // namespace

int main() {
  using grout::polyglot::Context;
  using grout::polyglot::ContextConfig;

  std::printf("# Black-Scholes via the NVRTC stand-in (functional results)\n");
  {
    Context ctx = Context::grcuda(scaled_node());
    price_batch(ctx, 4096, /*print_samples=*/true);
  }

  std::printf("\n# Oversubscription behaviour (scaled nodes: 32 MiB = 1x)\n");
  std::printf("# batches are partitioned into 8 CEs so GrOUT can spread them\n");
  std::printf("%-10s %-14s %-14s\n", "oversub", "1 node [s]", "GrOUT 2 nodes [s]");
  // The table reports simulated seconds only: its arrays get no host
  // storage, so no kernel is emulated on the host.
  const ContextConfig no_storage{.materialize_limit = 0};
  for (const double factor : {0.5, 1.0, 2.0, 3.0, 4.0}) {
    grout::workloads::WorkloadParams params;
    params.footprint = static_cast<grout::Bytes>(factor * 32.0 * 1024.0 * 1024.0);
    params.partitions = 8;
    params.iterations = 1;

    Context single(std::make_unique<grout::polyglot::GrCudaBackend>(scaled_node()), no_storage);
    auto w1 = grout::workloads::make_workload(
        grout::workloads::WorkloadKind::BlackScholes, params);
    const double t_single =
        grout::workloads::execute_workload(single, *w1).elapsed.seconds();

    grout::core::GroutConfig cfg;
    cfg.cluster.workers = 2;
    cfg.cluster.worker_node = scaled_node();
    Context dist(std::make_unique<grout::polyglot::GroutBackend>(std::move(cfg)), no_storage);
    auto w2 = grout::workloads::make_workload(
        grout::workloads::WorkloadKind::BlackScholes, params);
    const double t_dist = grout::workloads::execute_workload(dist, *w2).elapsed.seconds();

    std::printf("%-9.1fx %-14.3f %-14.3f %s\n", factor, t_single, t_dist,
                t_single > t_dist ? "<- scale-out wins" : "");
  }
  return 0;
}
