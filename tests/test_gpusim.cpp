// Unit tests for the simulated GPU: streams, events, kernel execution.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "gpusim/gpu_node.hpp"

namespace grout::gpusim {
namespace {

struct GpuFixture : ::testing::Test {
  GpuFixture() {
    GpuNodeConfig cfg;
    cfg.name = "test-node";
    cfg.gpu_count = 2;
    cfg.device.memory = 8_MiB;
    cfg.tuning.page_size = 1_MiB;
    tracer.set_enabled(true);
    node = std::make_unique<GpuNode>(sim, cfg, &tracer);
  }

  /// Kernel spans recorded on `gpu`, in start order.
  std::vector<sim::TraceSpan> kernel_spans(std::size_t gpu) const {
    const std::string location = "test-node/gpu" + std::to_string(gpu);
    std::vector<sim::TraceSpan> out;
    for (const sim::TraceSpan& span : tracer.spans()) {
      if (span.category == sim::TraceCategory::Kernel && span.location == location) {
        out.push_back(span);
      }
    }
    return out;
  }

  KernelLaunchSpec simple_kernel(uvm::ArrayId array, double flops = 1e9,
                                 uvm::AccessMode mode = uvm::AccessMode::Read) {
    KernelLaunchSpec spec;
    spec.name = "k";
    spec.flops = flops;
    spec.parallelism = uvm::Parallelism::High;
    spec.params.push_back(uvm::ParamAccess{array, uvm::ByteRange{}, mode,
                                           uvm::StreamingPattern{}});
    return spec;
  }

  uvm::ArrayId alloc_populated(Bytes bytes) {
    const uvm::ArrayId id = node->uvm().alloc(bytes, "a");
    node->uvm().host_access(id, uvm::AccessMode::Write);
    return id;
  }

  sim::Simulator sim;
  sim::Tracer tracer;
  std::unique_ptr<GpuNode> node;
};

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

TEST(CudaEventTest, CompletesOnce) {
  CudaEvent e;
  EXPECT_FALSE(e.completed());
  EXPECT_THROW((void)e.when(), InvalidArgument);
  e.complete(SimTime::from_us(5.0));
  EXPECT_TRUE(e.completed());
  EXPECT_EQ(e.when(), SimTime::from_us(5.0));
  EXPECT_THROW(e.complete(SimTime::from_us(6.0)), InternalError);
}

TEST(CudaEventTest, WaitersFireOnCompletion) {
  CudaEvent e;
  int fired = 0;
  e.on_complete([&] { ++fired; });
  e.on_complete([&] { ++fired; });
  EXPECT_EQ(fired, 0);
  e.complete(SimTime::zero());
  EXPECT_EQ(fired, 2);
}

TEST(CudaEventTest, LateSubscriberFiresImmediately) {
  CudaEvent e;
  e.complete(SimTime::zero());
  int fired = 0;
  e.on_complete([&] { ++fired; });
  EXPECT_EQ(fired, 1);
}

TEST(CudaEventTest, WhenAllWaitsForEverything) {
  auto a = make_event();
  auto b = make_event();
  int fired = 0;
  when_all({a, b}, [&] { ++fired; });
  a->complete(SimTime::zero());
  EXPECT_EQ(fired, 0);
  b->complete(SimTime::zero());
  EXPECT_EQ(fired, 1);
}

TEST(CudaEventTest, WhenAllEmptyFiresImmediately) {
  int fired = 0;
  when_all({}, [&] { ++fired; });
  EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------------
// Compute model
// ---------------------------------------------------------------------------

TEST_F(GpuFixture, ComputeRooflineFlopsBound) {
  Gpu& gpu = node->gpu(0);
  // 12.5 TFLOP/s sustained: 1.25e12 flops -> 0.1 s, memory negligible.
  const SimTime t = gpu.compute_time(1.25e12, 1_KiB);
  EXPECT_NEAR(t.seconds(), 0.1, 1e-6);
}

TEST_F(GpuFixture, ComputeRooflineMemoryBound) {
  Gpu& gpu = node->gpu(0);
  const double bw = gpu.spec().hbm_bw.bps();
  const SimTime t = gpu.compute_time(1.0, 1_GiB);
  EXPECT_NEAR(t.seconds(), static_cast<double>(1_GiB) / bw, 1e-9);
}

// ---------------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------------

TEST_F(GpuFixture, KernelsOnOneStreamSerialize) {
  Gpu& gpu = node->gpu(0);
  Stream& s = gpu.create_stream();
  const uvm::ArrayId a = alloc_populated(4_MiB);
  s.enqueue_kernel(simple_kernel(a, 1.25e12), make_event());
  s.enqueue_kernel(simple_kernel(a, 1.25e12), make_event());
  sim.run();
  const std::vector<sim::TraceSpan> spans = kernel_spans(0);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_GE(spans[1].begin, spans[0].end);
}

TEST_F(GpuFixture, SameGpuStreamsShareTheSms) {
  // Two resident compute-bound kernels on different streams of ONE GPU:
  // transfers overlap but the SM occupancy serializes.
  Gpu& gpu = node->gpu(0);
  Stream& s1 = gpu.create_stream();
  Stream& s2 = gpu.create_stream();
  const uvm::ArrayId a = alloc_populated(1_MiB);
  const uvm::ArrayId b = alloc_populated(1_MiB);
  node->uvm().prefetch(a, 0);
  node->uvm().prefetch(b, 0);
  sim.run();
  auto e1 = make_event();
  auto e2 = make_event();
  s1.enqueue_kernel(simple_kernel(a, 1.25e12), e1);  // 0.1 s compute
  s2.enqueue_kernel(simple_kernel(b, 1.25e12), e2);
  sim.run();
  const SimTime last = std::max(e1->when(), e2->when());
  EXPECT_GT(last.seconds(), 0.19);  // serialized: ~0.2 s, not ~0.1 s
}

TEST_F(GpuFixture, DifferentGpusComputeInParallel) {
  Stream& s0 = node->gpu(0).create_stream();
  Stream& s1 = node->gpu(1).create_stream();
  const uvm::ArrayId a = alloc_populated(1_MiB);
  const uvm::ArrayId b = alloc_populated(1_MiB);
  node->uvm().prefetch(a, 0);
  node->uvm().prefetch(b, 1);
  sim.run();
  auto e0 = make_event();
  auto e1 = make_event();
  s0.enqueue_kernel(simple_kernel(a, 1.25e12), e0);
  s1.enqueue_kernel(simple_kernel(b, 1.25e12), e1);
  sim.run();
  const SimTime last = std::max(e0->when(), e1->when());
  EXPECT_LT(last.seconds(), 0.15);  // parallel: ~0.1 s
}

TEST_F(GpuFixture, IndependentStreamsOverlap) {
  Gpu& gpu = node->gpu(0);
  Stream& s1 = gpu.create_stream();
  Stream& s2 = gpu.create_stream();
  const uvm::ArrayId a = alloc_populated(2_MiB);
  const uvm::ArrayId b = alloc_populated(2_MiB);
  node->uvm().prefetch(a, 0);
  node->uvm().prefetch(b, 0);
  sim.run();
  s1.enqueue_kernel(simple_kernel(a, 1.25e12), make_event());
  s2.enqueue_kernel(simple_kernel(b, 1.25e12), make_event());
  sim.run();
  const std::vector<sim::TraceSpan> spans = kernel_spans(0);
  ASSERT_EQ(spans.size(), 2u);
  // Both started at the same virtual time: full overlap.
  EXPECT_EQ(spans[0].begin, spans[1].begin);
}

TEST_F(GpuFixture, StreamWaitEventOrdersAcrossStreams) {
  Gpu& gpu = node->gpu(0);
  Stream& s1 = gpu.create_stream();
  Stream& s2 = gpu.create_stream();
  const uvm::ArrayId a = alloc_populated(2_MiB);
  const uvm::ArrayId b = alloc_populated(2_MiB);
  auto first_done = make_event();
  s1.enqueue_kernel(simple_kernel(a, 1.25e12), first_done);
  s2.enqueue_wait(first_done);
  s2.enqueue_kernel(simple_kernel(b, 1.25e12), make_event());
  sim.run();
  const std::vector<sim::TraceSpan> spans = kernel_spans(0);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_GE(spans[1].begin, spans[0].end);
}

TEST_F(GpuFixture, RecordEventCompletesInFifoPosition) {
  Gpu& gpu = node->gpu(0);
  Stream& s = gpu.create_stream();
  const uvm::ArrayId a = alloc_populated(2_MiB);
  auto kernel_done = make_event();
  auto marker = make_event();
  s.enqueue_kernel(simple_kernel(a, 1.25e12), kernel_done);
  s.enqueue_record(marker);
  sim.run();
  EXPECT_TRUE(marker->completed());
  EXPECT_EQ(marker->when(), kernel_done->when());
}

TEST_F(GpuFixture, HostCallbackRunsInOrder) {
  Gpu& gpu = node->gpu(0);
  Stream& s = gpu.create_stream();
  const uvm::ArrayId a = alloc_populated(2_MiB);
  auto done = make_event();
  bool callback_ran = false;
  bool kernel_was_done = false;
  s.enqueue_kernel(simple_kernel(a), done);
  s.enqueue_host([&] {
    callback_ran = true;
    kernel_was_done = done->completed();
  });
  sim.run();
  EXPECT_TRUE(callback_ran);
  EXPECT_TRUE(kernel_was_done);
}

TEST_F(GpuFixture, PrefetchOpCompletesEvent) {
  Gpu& gpu = node->gpu(0);
  Stream& s = gpu.create_stream();
  const uvm::ArrayId a = alloc_populated(4_MiB);
  auto done = make_event();
  s.enqueue_prefetch(a, 0, done);
  sim.run();
  EXPECT_TRUE(done->completed());
  EXPECT_TRUE(node->uvm().page_resident(a, 0, 0));
}

TEST_F(GpuFixture, IdleAndQueueIntrospection) {
  Gpu& gpu = node->gpu(0);
  Stream& s = gpu.create_stream();
  EXPECT_TRUE(s.idle());
  auto gate = make_event();
  s.enqueue_wait(gate);
  const uvm::ArrayId a = alloc_populated(2_MiB);
  s.enqueue_kernel(simple_kernel(a), make_event());
  EXPECT_FALSE(s.idle());
  EXPECT_GE(s.queued_ops(), 1u);
  gate->complete(sim.now());
  sim.run();
  EXPECT_TRUE(s.idle());
}

// ---------------------------------------------------------------------------
// Kernel/UVM integration
// ---------------------------------------------------------------------------

TEST_F(GpuFixture, KernelTimeIncludesMigration) {
  Gpu& gpu = node->gpu(0);
  Stream& s = gpu.create_stream();
  const uvm::ArrayId a = alloc_populated(8_MiB);
  s.enqueue_kernel(simple_kernel(a, /*flops=*/1.0), make_event());
  sim.run();
  const std::vector<sim::TraceSpan> spans = kernel_spans(0);
  ASSERT_EQ(spans.size(), 1u);
  const double pcie_time = static_cast<double>(8_MiB) / gpu.spec().pcie_bw.bps();
  EXPECT_GE((spans[0].end - spans[0].begin).seconds(), pcie_time);
  // With no eviction every fetched byte is a healthy fetch.
  const uvm::UvmStats& stats = node->uvm().stats();
  EXPECT_EQ(stats.kernels, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes_fetched, 8_MiB);
}

TEST_F(GpuFixture, LaunchOverheadAlwaysCharged) {
  Gpu& gpu = node->gpu(0);
  Stream& s = gpu.create_stream();
  const uvm::ArrayId a = alloc_populated(1_MiB);
  node->uvm().prefetch(a, 0);
  sim.run();
  s.enqueue_kernel(simple_kernel(a, 1.0), make_event());
  sim.run();
  const std::vector<sim::TraceSpan> spans = kernel_spans(0);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].end - spans[0].begin, gpu.spec().launch_overhead);
}

TEST_F(GpuFixture, TwoGpusShareTheUvmSpace) {
  const uvm::ArrayId a = alloc_populated(2_MiB);
  Stream& s0 = node->gpu(0).create_stream();
  s0.enqueue_kernel(simple_kernel(a), make_event());
  sim.run();
  EXPECT_TRUE(node->uvm().page_resident(a, 0, 0));
  Stream& s1 = node->gpu(1).create_stream();
  s1.enqueue_kernel(simple_kernel(a), make_event());
  sim.run();
  // Plain read migrates the page across GPUs.
  EXPECT_TRUE(node->uvm().page_resident(a, 0, 1));
  EXPECT_FALSE(node->uvm().page_resident(a, 0, 0));
}

TEST_F(GpuFixture, NodeReportsTotalMemory) {
  EXPECT_EQ(node->total_gpu_memory(), 16_MiB);
  EXPECT_EQ(node->gpu_count(), 2u);
  EXPECT_EQ(node->name(), "test-node");
}

TEST(GpuNodeTest, RequiresAtLeastOneGpu) {
  sim::Simulator sim;
  GpuNodeConfig cfg;
  cfg.gpu_count = 0;
  EXPECT_THROW(GpuNode(sim, cfg), InvalidArgument);
}

TEST(DeviceSpecTest, V100Defaults) {
  const DeviceSpec spec = v100();
  EXPECT_EQ(spec.memory, 16_GiB);
  EXPECT_GT(spec.fp32_tflops, 10.0);
  EXPECT_GT(spec.hbm_bw.bps(), spec.pcie_bw.bps());
}

}  // namespace
}  // namespace grout::gpusim
