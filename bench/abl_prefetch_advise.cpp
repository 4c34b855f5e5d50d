// Ablation B: prefetching and memory advise — "not always a solution"
// (Section III cites Chien/Knap/Allen: the advanced UVM features help or
// hurt depending on the regime).
//
// Drives one simulated node directly (its UVM space and GPU streams):
//   B.1 driver prefetcher on/off for a streaming first touch,
//   B.2 explicit cudaMemPrefetchAsync before a kernel,
//   B.3 cudaMemAdvise(ReadMostly) for a vector shared by both GPUs,
//   B.4 the same optimizations at 4x oversubscription — where none of them
//       avoids the storm, motivating scale-out (the paper's thesis).
#include <cstdio>

#include "bench/bench_util.hpp"

namespace {

using namespace grout;
using bench::host_write;

gpusim::GpuNodeConfig node_config(bool prefetcher, Bytes gpu_memory = 16_GiB) {
  gpusim::GpuNodeConfig cfg;
  cfg.gpu_count = 2;
  cfg.device.memory = gpu_memory;
  cfg.tuning.prefetcher_enabled = prefetcher;
  return cfg;
}

gpusim::KernelLaunchSpec stream_kernel(uvm::ArrayId array) {
  return gpusim::KernelLaunchSpec{
      .name = "k",
      .flops = 1e10,
      .parallelism = uvm::Parallelism::High,
      .params = {uvm::ParamAccess{array, uvm::ByteRange{}, uvm::AccessMode::Read,
                                  uvm::StreamingPattern{}}},
  };
}

/// Stream a freshly initialized array once; returns simulated seconds.
double first_touch_seconds(bool prefetcher, bool explicit_prefetch) {
  sim::Simulator sim;
  gpusim::GpuNode node(sim, node_config(prefetcher));
  const uvm::ArrayId a = node.uvm().alloc(8_GiB, "a");
  host_write(sim, node.uvm(), a);
  gpusim::Stream& s = node.gpu(0).create_stream();
  if (explicit_prefetch) s.enqueue_prefetch(a, 0, nullptr);
  s.enqueue_kernel(stream_kernel(a), nullptr);
  sim.run();
  return sim.now().seconds();
}

/// Both GPUs repeatedly read one shared vector; with/without ReadMostly.
double shared_read_seconds(bool read_mostly) {
  sim::Simulator sim;
  gpusim::GpuNode node(sim, node_config(true));
  const uvm::ArrayId v = node.uvm().alloc(2_GiB, "v");
  host_write(sim, node.uvm(), v);
  if (read_mostly) node.uvm().advise(v, uvm::Advise::ReadMostly);
  gpusim::Stream& s0 = node.gpu(0).create_stream();
  gpusim::Stream& s1 = node.gpu(1).create_stream();
  for (int iter = 0; iter < 4; ++iter) {
    s0.enqueue_kernel(stream_kernel(v), nullptr);
    s1.enqueue_kernel(stream_kernel(v), nullptr);
  }
  sim.run();
  return sim.now().seconds();
}

/// 4x oversubscribed streaming with every optimization on.
double oversubscribed_seconds(bool prefetcher, bool explicit_prefetch) {
  sim::Simulator sim;
  gpusim::GpuNode node(sim, node_config(prefetcher));
  gpusim::Stream& s = node.gpu(0).create_stream();
  for (int part = 0; part < 8; ++part) {
    const uvm::ArrayId a = node.uvm().alloc(16_GiB, "part");  // 8 x 16 GiB = 4x of 32 GiB
    host_write(sim, node.uvm(), a);
    if (explicit_prefetch) s.enqueue_prefetch(a, part % 2, nullptr);
    gpusim::KernelLaunchSpec spec = stream_kernel(a);
    spec.parallelism = uvm::Parallelism::Massive;
    s.enqueue_kernel(spec, nullptr);
  }
  sim.run();
  return sim.now().seconds();
}

}  // namespace

int main() {
  std::printf("# Ablation B.1 — driver prefetcher, 8 GiB first touch (fits)\n");
  std::printf("prefetcher on:  %8.3f s\n", first_touch_seconds(true, false));
  std::printf("prefetcher off: %8.3f s\n", first_touch_seconds(false, false));

  std::printf("\n# Ablation B.2 — explicit cudaMemPrefetchAsync (driver prefetcher off)\n");
  std::printf("fault-driven:   %8.3f s\n", first_touch_seconds(false, false));
  std::printf("prefetched:     %8.3f s\n", first_touch_seconds(false, true));

  std::printf("\n# Ablation B.3 — ReadMostly advise, vector shared by 2 GPUs\n");
  std::printf("no advise:      %8.3f s (the pages ping-pong)\n", shared_read_seconds(false));
  std::printf("read-mostly:    %8.3f s (duplicated once per GPU)\n", shared_read_seconds(true));

  std::printf("\n# Ablation B.4 — the same tricks at 4x oversubscription\n");
  std::printf("defaults:            %10.2f s\n", oversubscribed_seconds(true, false));
  std::printf("prefetcher off:      %10.2f s\n", oversubscribed_seconds(false, false));
  std::printf("explicit prefetch:   %10.2f s\n", oversubscribed_seconds(true, true));
  std::printf("# none escapes the storm regime -> the paper scales out instead\n");
  return 0;
}
