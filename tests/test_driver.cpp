// Tests for the CUDA-driver-style API surface.
#include <gtest/gtest.h>

#include "driver/driver.hpp"

namespace grout::driver {
namespace {

gpusim::GpuNodeConfig small_node() {
  gpusim::GpuNodeConfig cfg;
  cfg.gpu_count = 2;
  cfg.device.memory = 8_MiB;
  cfg.tuning.page_size = 1_MiB;
  return cfg;
}

gpusim::KernelLaunchSpec read_kernel(Context& ctx, GrDeviceptr ptr, double flops = 1e9) {
  gpusim::KernelLaunchSpec spec;
  spec.name = "k";
  spec.flops = flops;
  spec.params.push_back(uvm::ParamAccess{ctx.array_of(ptr), uvm::ByteRange{},
                                         uvm::AccessMode::Read, uvm::StreamingPattern{}});
  return spec;
}

TEST(Driver, AllocAndFree) {
  Context ctx(small_node());
  GrDeviceptr ptr = 0;
  EXPECT_EQ(ctx.mem_alloc_managed(&ptr, 4_MiB, "buf"), GrResult::Success);
  EXPECT_NE(ptr, 0u);
  EXPECT_EQ(ctx.allocation_size(ptr), 4_MiB);
  EXPECT_EQ(ctx.mem_free(ptr), GrResult::Success);
  EXPECT_EQ(ctx.mem_free(ptr), GrResult::InvalidHandle);
}

TEST(Driver, AllocValidation) {
  Context ctx(small_node());
  EXPECT_EQ(ctx.mem_alloc_managed(nullptr, 4_MiB), GrResult::InvalidValue);
  GrDeviceptr ptr = 0;
  EXPECT_EQ(ctx.mem_alloc_managed(&ptr, 0), GrResult::InvalidValue);
}

TEST(Driver, StreamCreateValidation) {
  Context ctx(small_node());
  GrStream s = 0;
  EXPECT_EQ(ctx.stream_create(&s, 0), GrResult::Success);
  EXPECT_EQ(ctx.stream_create(&s, 99), GrResult::InvalidValue);
  EXPECT_EQ(ctx.stream_create(nullptr, 0), GrResult::InvalidValue);
}

TEST(Driver, LaunchAndSynchronize) {
  Context ctx(small_node());
  GrDeviceptr ptr = 0;
  ctx.mem_alloc_managed(&ptr, 4_MiB);
  ctx.host_access(ptr, uvm::AccessMode::Write);
  GrStream s = 0;
  ctx.stream_create(&s, 0);
  EXPECT_EQ(ctx.launch_kernel(s, read_kernel(ctx, ptr)), GrResult::Success);
  EXPECT_EQ(ctx.ctx_synchronize(), GrResult::Success);
  EXPECT_GT(ctx.now(), SimTime::zero());
}

TEST(Driver, LaunchOnBadStreamFails) {
  Context ctx(small_node());
  GrDeviceptr ptr = 0;
  ctx.mem_alloc_managed(&ptr, 1_MiB);
  EXPECT_EQ(ctx.launch_kernel(7, read_kernel(ctx, ptr)), GrResult::InvalidHandle);
}

TEST(Driver, EventRecordAndSynchronize) {
  Context ctx(small_node());
  GrDeviceptr ptr = 0;
  ctx.mem_alloc_managed(&ptr, 4_MiB);
  ctx.host_access(ptr, uvm::AccessMode::Write);
  GrStream s = 0;
  ctx.stream_create(&s, 0);
  GrEvent e = 0;
  ctx.event_create(&e);
  ctx.launch_kernel(s, read_kernel(ctx, ptr));
  ctx.event_record(e, s);
  EXPECT_FALSE(ctx.event_query(e));
  EXPECT_EQ(ctx.event_synchronize(e), GrResult::Success);
  EXPECT_TRUE(ctx.event_query(e));
}

TEST(Driver, EventSynchronizeWithoutRecordIsNotReady) {
  Context ctx(small_node());
  GrEvent e = 0;
  ctx.event_create(&e);
  EXPECT_EQ(ctx.event_synchronize(e), GrResult::NotReady);
}

TEST(Driver, StreamWaitEventOrders) {
  Context ctx(small_node());
  ctx.tracer().set_enabled(true);
  GrDeviceptr a = 0;
  GrDeviceptr b = 0;
  ctx.mem_alloc_managed(&a, 2_MiB);
  ctx.mem_alloc_managed(&b, 2_MiB);
  ctx.host_access(a, uvm::AccessMode::Write);
  ctx.host_access(b, uvm::AccessMode::Write);
  GrStream s1 = 0;
  GrStream s2 = 0;
  ctx.stream_create(&s1, 0);
  ctx.stream_create(&s2, 1);
  GrEvent e = 0;
  ctx.event_create(&e);
  ctx.launch_kernel(s1, read_kernel(ctx, a, 1.25e12), e);
  ctx.stream_wait_event(s2, e);
  ctx.launch_kernel(s2, read_kernel(ctx, b, 1.25e12));
  ctx.ctx_synchronize();
  std::vector<sim::TraceSpan> gpu0;
  std::vector<sim::TraceSpan> gpu1;
  for (const sim::TraceSpan& span : ctx.tracer().spans()) {
    if (span.category != sim::TraceCategory::Kernel) continue;
    if (span.location == "node/gpu0") gpu0.push_back(span);
    if (span.location == "node/gpu1") gpu1.push_back(span);
  }
  ASSERT_EQ(gpu0.size(), 1u);
  ASSERT_EQ(gpu1.size(), 1u);
  EXPECT_GE(gpu1[0].begin, gpu0[0].end);
}

TEST(Driver, StreamSynchronizeWaitsOnlyThatStream) {
  Context ctx(small_node());
  GrDeviceptr a = 0;
  ctx.mem_alloc_managed(&a, 2_MiB);
  ctx.host_access(a, uvm::AccessMode::Write);
  GrStream s = 0;
  ctx.stream_create(&s, 0);
  ctx.launch_kernel(s, read_kernel(ctx, a));
  EXPECT_EQ(ctx.stream_synchronize(s), GrResult::Success);
  EXPECT_EQ(ctx.node().gpu(0).kernel_count(), 1u);
}

TEST(Driver, MemAdvise) {
  Context ctx(small_node());
  GrDeviceptr a = 0;
  ctx.mem_alloc_managed(&a, 2_MiB);
  EXPECT_EQ(ctx.mem_advise(a, uvm::Advise::ReadMostly), GrResult::Success);
  EXPECT_EQ(ctx.mem_advise(0, uvm::Advise::ReadMostly), GrResult::InvalidHandle);
}

TEST(Driver, MemPrefetchAsync) {
  Context ctx(small_node());
  GrDeviceptr a = 0;
  ctx.mem_alloc_managed(&a, 4_MiB);
  ctx.host_access(a, uvm::AccessMode::Write);
  GrStream s = 0;
  ctx.stream_create(&s, 0);
  EXPECT_EQ(ctx.mem_prefetch_async(a, 0, s), GrResult::Success);
  ctx.ctx_synchronize();
  EXPECT_TRUE(ctx.node().uvm().page_resident(ctx.array_of(a), 0, 0));
}

TEST(Driver, PrefetchValidatesDevice) {
  Context ctx(small_node());
  GrDeviceptr a = 0;
  ctx.mem_alloc_managed(&a, 1_MiB);
  GrStream s = 0;
  ctx.stream_create(&s, 0);
  EXPECT_EQ(ctx.mem_prefetch_async(a, 5, s), GrResult::InvalidValue);
}

TEST(Driver, HostAccessDrainsPendingWork) {
  Context ctx(small_node());
  GrDeviceptr a = 0;
  ctx.mem_alloc_managed(&a, 2_MiB);
  ctx.host_access(a, uvm::AccessMode::Write);
  GrStream s = 0;
  ctx.stream_create(&s, 0);
  gpusim::KernelLaunchSpec spec = read_kernel(ctx, a);
  spec.params[0].mode = uvm::AccessMode::ReadWrite;
  ctx.launch_kernel(s, spec);
  // Reading on the host must observe the kernel's completion first.
  EXPECT_EQ(ctx.host_access(a, uvm::AccessMode::Read), GrResult::Success);
  EXPECT_EQ(ctx.node().gpu(0).kernel_count(), 1u);
  EXPECT_TRUE(ctx.node().uvm().page_resident(ctx.array_of(a), 0, uvm::kHostDevice));
}

TEST(Driver, ResultStrings) {
  EXPECT_STREQ(to_string(GrResult::Success), "success");
  EXPECT_STREQ(to_string(GrResult::InvalidHandle), "invalid handle");
  EXPECT_STREQ(to_string(GrResult::NotReady), "not ready");
}

}  // namespace
}  // namespace grout::driver
