// Driver-level stress and interplay tests: multi-stream pipelines,
// prefetch/advise combinations, handle hygiene.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "driver/driver.hpp"

namespace grout::driver {
namespace {

gpusim::GpuNodeConfig small_node(std::size_t gpus = 2) {
  gpusim::GpuNodeConfig cfg;
  cfg.gpu_count = gpus;
  cfg.device.memory = 8_MiB;
  cfg.tuning.page_size = 1_MiB;
  return cfg;
}

gpusim::KernelLaunchSpec kernel(Context& ctx, GrDeviceptr ptr, uvm::AccessMode mode,
                                double flops = 1e9) {
  gpusim::KernelLaunchSpec spec;
  spec.name = "k";
  spec.flops = flops;
  spec.params.push_back(
      uvm::ParamAccess{ctx.array_of(ptr), {}, mode, uvm::StreamingPattern{}});
  return spec;
}

TEST(DriverExtra, DeepPipelineAcrossStreamsAndGpus) {
  // A four-stage pipeline bouncing between two GPUs via events; every
  // stage must observe the previous one's completion.
  Context ctx(small_node());
  ctx.tracer().set_enabled(true);
  GrDeviceptr buf = 0;
  ctx.mem_alloc_managed(&buf, 2_MiB);
  ctx.host_access(buf, uvm::AccessMode::Write);

  GrStream s0 = 0;
  GrStream s1 = 0;
  ctx.stream_create(&s0, 0);
  ctx.stream_create(&s1, 1);

  std::vector<GrEvent> events(4);
  for (int stage = 0; stage < 4; ++stage) {
    ctx.event_create(&events[stage]);
    const GrStream s = stage % 2 == 0 ? s0 : s1;
    if (stage > 0) ctx.stream_wait_event(s, events[stage - 1]);
    ctx.launch_kernel(s, kernel(ctx, buf, uvm::AccessMode::ReadWrite, 1.25e11),
                      events[stage]);
  }
  ctx.ctx_synchronize();

  // Strictly increasing completion times across stages.
  SimTime last = SimTime::zero();
  for (const GrEvent e : events) {
    ASSERT_TRUE(ctx.event_query(e));
    // Event timestamps are not directly exposed; use the kernel spans.
  }
  std::vector<sim::TraceSpan> all;
  for (const sim::TraceSpan& span : ctx.tracer().spans()) {
    if (span.category == sim::TraceCategory::Kernel) all.push_back(span);
  }
  ASSERT_EQ(all.size(), 4u);
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.begin < b.begin; });
  for (const auto& r : all) {
    EXPECT_GE(r.begin, last);
    last = r.end;
  }
}

TEST(DriverExtra, ManyAllocationsAndFrees) {
  Context ctx(small_node());
  Rng rng(4);
  std::vector<GrDeviceptr> live;
  for (int round = 0; round < 100; ++round) {
    if (live.empty() || rng.next_below(2) == 0) {
      GrDeviceptr p = 0;
      ASSERT_EQ(ctx.mem_alloc_managed(&p, (1 + rng.next_below(3)) * 1_MiB), GrResult::Success);
      live.push_back(p);
    } else {
      const std::size_t idx = rng.next_below(live.size());
      ASSERT_EQ(ctx.mem_free(live[idx]), GrResult::Success);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (const GrDeviceptr p : live) EXPECT_EQ(ctx.mem_free(p), GrResult::Success);
  EXPECT_EQ(ctx.node().uvm().live_arrays(), 0u);
}

TEST(DriverExtra, PrefetchThenAdviseThenLaunch) {
  Context ctx(small_node());
  GrDeviceptr v = 0;
  ctx.mem_alloc_managed(&v, 2_MiB);
  ctx.host_access(v, uvm::AccessMode::Write);
  ctx.mem_advise(v, uvm::Advise::ReadMostly);
  GrStream s0 = 0;
  GrStream s1 = 0;
  ctx.stream_create(&s0, 0);
  ctx.stream_create(&s1, 1);
  ctx.mem_prefetch_async(v, 0, s0);
  ctx.mem_prefetch_async(v, 1, s1);
  ctx.ctx_synchronize();
  // Read-mostly prefetches duplicated the pages onto both GPUs.
  EXPECT_TRUE(ctx.node().uvm().page_resident(ctx.array_of(v), 0, 0));
  EXPECT_TRUE(ctx.node().uvm().page_resident(ctx.array_of(v), 0, 1));

  const std::uint64_t faults_before = ctx.node().uvm().stats().faults;
  ctx.launch_kernel(s0, kernel(ctx, v, uvm::AccessMode::Read));
  ctx.launch_kernel(s1, kernel(ctx, v, uvm::AccessMode::Read));
  ctx.ctx_synchronize();
  // One kernel per GPU, and neither faulted.
  EXPECT_EQ(ctx.node().gpu(0).kernel_count(), 1u);
  EXPECT_EQ(ctx.node().gpu(1).kernel_count(), 1u);
  EXPECT_EQ(ctx.node().uvm().stats().faults, faults_before);
}

TEST(DriverExtra, EventsAreReusableAcrossQueries) {
  Context ctx(small_node());
  GrEvent e = 0;
  ctx.event_create(&e);
  EXPECT_FALSE(ctx.event_query(e));
  GrDeviceptr p = 0;
  ctx.mem_alloc_managed(&p, 1_MiB);
  GrStream s = 0;
  ctx.stream_create(&s, 0);
  ctx.launch_kernel(s, kernel(ctx, p, uvm::AccessMode::Write));
  ctx.event_record(e, s);
  ctx.event_synchronize(e);
  EXPECT_TRUE(ctx.event_query(e));
  EXPECT_TRUE(ctx.event_query(e));  // idempotent
}

TEST(DriverExtra, InterleavedHostDeviceOwnership) {
  Context ctx(small_node());
  GrDeviceptr p = 0;
  ctx.mem_alloc_managed(&p, 2_MiB);
  GrStream s = 0;
  ctx.stream_create(&s, 0);
  for (int round = 0; round < 5; ++round) {
    ctx.host_access(p, uvm::AccessMode::Write);
    ctx.launch_kernel(s, kernel(ctx, p, uvm::AccessMode::ReadWrite));
    ctx.host_access(p, uvm::AccessMode::Read);
    EXPECT_TRUE(ctx.node().uvm().page_resident(ctx.array_of(p), 0, uvm::kHostDevice));
  }
  EXPECT_EQ(ctx.node().gpu(0).kernel_count(), 5u);
}

TEST(DriverExtra, SixtyFourStreamsRoundRobin) {
  Context ctx(small_node());
  std::vector<GrStream> streams(64);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    ASSERT_EQ(ctx.stream_create(&streams[i], i % 2), GrResult::Success);
  }
  GrDeviceptr p = 0;
  ctx.mem_alloc_managed(&p, 1_MiB);
  ctx.host_access(p, uvm::AccessMode::Write);
  for (const GrStream s : streams) {
    ASSERT_EQ(ctx.launch_kernel(s, kernel(ctx, p, uvm::AccessMode::Read, 1e6)),
              GrResult::Success);
  }
  EXPECT_EQ(ctx.ctx_synchronize(), GrResult::Success);
  EXPECT_EQ(ctx.node().gpu(0).kernel_count() + ctx.node().gpu(1).kernel_count(), 64u);
}

}  // namespace
}  // namespace grout::driver
