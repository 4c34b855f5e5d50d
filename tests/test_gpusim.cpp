// Unit tests for the simulated GPU: streams, events, kernel execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/strings.hpp"
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
    const std::string location = str_cat("test-node/gpu", std::to_string(gpu));
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

TEST(CudaEventTest, ManyWaitersFireInSubscriptionOrder) {
  // The first waiter is stored in the event, the rest in a growing array;
  // completion runs them all in the order they subscribed.
  auto e = make_event();
  std::vector<int> order;
  for (int i = 0; i < 9; ++i) e->on_complete([&order, i] { order.push_back(i); });
  e->complete(SimTime::zero());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(CudaEventTest, HandleCountsOwnership) {
  // The last handle deletes the event, and with it the captures of waiters
  // that never ran (including a when_all's shared state).
  auto alive = std::make_shared<int>(0);
  {
    EventPtr a = make_event();
    EventPtr b = a;
    EXPECT_EQ(a, b);
    EXPECT_NE(a, nullptr);
    EventPtr other = make_event();
    for (int i = 0; i < 3; ++i) a->on_complete([alive] {});
    when_all({a, other}, [alive] {});
    EXPECT_EQ(alive.use_count(), 5);
    a = nullptr;
    EXPECT_FALSE(b->completed());  // b still holds the event
    EXPECT_EQ(alive.use_count(), 5);
  }
  EXPECT_EQ(alive.use_count(), 1);
}

TEST(CudaEventTest, WhenAllSkipsCompletedEvents) {
  auto a = make_event();
  auto b = make_event();
  auto c = make_event();
  b->complete(SimTime::zero());
  int fired = 0;
  when_all({a, b, c}, [&] { ++fired; });
  c->complete(SimTime::zero());
  EXPECT_EQ(fired, 0);
  a->complete(SimTime::zero());
  EXPECT_EQ(fired, 1);
}

TEST(CudaEventTest, AWaiterMayDropTheLastHandle) {
  // Completion must not touch the event after a waiter released it.
  EventPtr e = make_event();
  CudaEvent* raw = e.get();
  int fired = 0;
  raw->on_complete([&e] { e = nullptr; });
  raw->on_complete([&fired] { ++fired; });
  raw->complete(SimTime::zero());
  EXPECT_EQ(e, nullptr);
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
  EXPECT_EQ(s.queued_ops(), 0u);
  auto gate = make_event();
  s.enqueue_wait(gate);
  const uvm::ArrayId a = alloc_populated(2_MiB);
  auto done = make_event();
  s.enqueue_kernel(simple_kernel(a), done);
  EXPECT_GE(s.queued_ops(), 1u);
  gate->complete(sim.now());
  sim.run();
  EXPECT_EQ(s.queued_ops(), 0u);
  ASSERT_TRUE(done->completed());
  EXPECT_EQ(s.last_known_end(), done->when());
}

TEST_F(GpuFixture, WaitPipelineAlternatesGpus) {
  // Four stages bounce one buffer between the GPUs; each stage waits on the
  // previous stage's event, so the kernels run strictly one after another.
  const uvm::ArrayId buf = alloc_populated(2_MiB);
  Stream* streams[] = {&node->gpu(0).create_stream(), &node->gpu(1).create_stream()};
  std::vector<EventPtr> done;
  for (std::size_t stage = 0; stage < 4; ++stage) {
    Stream& s = *streams[stage % 2];
    if (stage > 0) s.enqueue_wait(done.back());
    done.push_back(make_event());
    s.enqueue_kernel(simple_kernel(buf, 1.25e11, uvm::AccessMode::ReadWrite), done.back());
  }
  sim.run();
  std::vector<sim::TraceSpan> spans = kernel_spans(0);
  for (const sim::TraceSpan& span : kernel_spans(1)) spans.push_back(span);
  std::sort(spans.begin(), spans.end(),
            [](const sim::TraceSpan& a, const sim::TraceSpan& b) { return a.begin < b.begin; });
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t stage = 0; stage < 4; ++stage) {
    ASSERT_TRUE(done[stage]->completed());
    EXPECT_EQ(done[stage]->when(), spans[stage].end);
    if (stage > 0) {
      EXPECT_GE(spans[stage].begin, spans[stage - 1].end);
    }
  }
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

TEST_F(GpuFixture, HostAndDeviceTradeOwnership) {
  // Host writes, a kernel updates on GPU 0, the host reads back: the pages
  // move to the device and home again every round.
  uvm::UvmSpace& uvm = node->uvm();
  const uvm::ArrayId a = uvm.alloc(2_MiB, "a");
  Stream& s = node->gpu(0).create_stream();
  for (int round = 0; round < 5; ++round) {
    uvm.host_access(a, uvm::AccessMode::Write);
    EXPECT_FALSE(uvm.page_resident(a, 0, 0));
    s.enqueue_kernel(simple_kernel(a, 1e9, uvm::AccessMode::ReadWrite), make_event());
    sim.run();
    EXPECT_TRUE(uvm.page_resident(a, 0, 0));
    EXPECT_FALSE(uvm.page_resident(a, 0, uvm::kHostDevice));
    EXPECT_GT(uvm.host_access(a, uvm::AccessMode::Read).duration, SimTime::zero());
    EXPECT_TRUE(uvm.page_resident(a, 0, uvm::kHostDevice));
  }
  EXPECT_EQ(node->gpu(0).kernel_count(), 5u);
  EXPECT_EQ(uvm.stats().bytes_fetched, 5 * 2_MiB);
}

TEST_F(GpuFixture, ReadMostlyPrefetchesLeaveKernelsFaultFree) {
  // Advise, prefetch onto both GPUs, then launch: each GPU holds its own
  // read-duplicate, so neither kernel faults.
  uvm::UvmSpace& uvm = node->uvm();
  const uvm::ArrayId v = alloc_populated(2_MiB);
  uvm.advise(v, uvm::Advise::ReadMostly);
  Stream& s0 = node->gpu(0).create_stream();
  Stream& s1 = node->gpu(1).create_stream();
  s0.enqueue_prefetch(v, 0, make_event());
  s1.enqueue_prefetch(v, 1, make_event());
  sim.run();
  EXPECT_TRUE(uvm.page_resident(v, 0, 0));
  EXPECT_TRUE(uvm.page_resident(v, 0, 1));
  const std::uint64_t faults_before = uvm.stats().faults;
  s0.enqueue_kernel(simple_kernel(v), make_event());
  s1.enqueue_kernel(simple_kernel(v), make_event());
  sim.run();
  EXPECT_EQ(node->gpu(0).kernel_count(), 1u);
  EXPECT_EQ(node->gpu(1).kernel_count(), 1u);
  EXPECT_EQ(uvm.stats().faults, faults_before);
  EXPECT_THROW(uvm.prefetch(v, 5), InvalidArgument);  // no such GPU
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
