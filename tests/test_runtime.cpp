// Tests for the GrCUDA-style intra-node runtime (Algorithm 2).
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "core/grout_runtime.hpp"
#include "sim/simulator.hpp"
#include "runtime/intra_node_runtime.hpp"

namespace grout::runtime {
namespace {

struct RuntimeFixture : ::testing::Test {
  explicit RuntimeFixture(StreamPolicyKind policy = StreamPolicyKind::LeastLoaded) {
    gpusim::GpuNodeConfig cfg;
    cfg.gpu_count = 2;
    cfg.device.memory = 8_MiB;
    cfg.tuning.page_size = 1_MiB;
    node = std::make_unique<gpusim::GpuNode>(sim, cfg);
    rt = std::make_unique<IntraNodeRuntime>(*node, policy, 2);
  }

  uvm::ArrayId alloc_populated(Bytes bytes, const std::string& name = "a") {
    const uvm::ArrayId id = node->uvm().alloc(bytes, name);
    node->uvm().host_access(id, uvm::AccessMode::Write);
    return id;
  }

  gpusim::KernelLaunchSpec kernel(uvm::ArrayId array, uvm::AccessMode mode,
                                  double flops = 1.25e12) {
    gpusim::KernelLaunchSpec spec;
    spec.name = "k";
    spec.flops = flops;
    spec.params.push_back(
        uvm::ParamAccess{array, uvm::ByteRange{}, mode, uvm::StreamingPattern{}});
    return spec;
  }

  std::vector<dag::VertexId> ancestors_of(dag::VertexId v) const {
    const std::span<const dag::VertexId> anc = rt->local_dag().ancestors(v);
    return {anc.begin(), anc.end()};
  }

  SimTime end_of(const Submission& sub) {
    sim.run();
    return sub.done->when();
  }

  sim::Simulator sim;
  std::unique_ptr<gpusim::GpuNode> node;
  std::unique_ptr<IntraNodeRuntime> rt;
};

TEST_F(RuntimeFixture, SubmissionCompletes) {
  const uvm::ArrayId a = alloc_populated(2_MiB);
  const Submission sub = rt->submit_kernel(kernel(a, uvm::AccessMode::Read));
  sim.run();
  EXPECT_TRUE(sub.done->completed());
  EXPECT_EQ(rt->event_window(), 0u);
}

TEST_F(RuntimeFixture, RawDependencySerializes) {
  const uvm::ArrayId a = alloc_populated(2_MiB);
  const Submission w = rt->submit_kernel(kernel(a, uvm::AccessMode::Write));
  const Submission r = rt->submit_kernel(kernel(a, uvm::AccessMode::Read));
  sim.run();
  EXPECT_GE(r.done->when(), w.done->when());
  EXPECT_EQ(rt->local_dag().ancestors(r.vertex).size(), 1u);
}

TEST_F(RuntimeFixture, IndependentKernelsOverlap) {
  const uvm::ArrayId a = alloc_populated(2_MiB, "a");
  const uvm::ArrayId b = alloc_populated(2_MiB, "b");
  const Submission s1 = rt->submit_kernel(kernel(a, uvm::AccessMode::Read));
  const Submission s2 = rt->submit_kernel(kernel(b, uvm::AccessMode::Read));
  sim.run();
  // Different streams: compute must overlap, so neither waits for the other
  // to finish before starting.
  const auto& dag = rt->local_dag();
  EXPECT_TRUE(dag.ancestors(s1.vertex).empty());
  EXPECT_TRUE(dag.ancestors(s2.vertex).empty());
  SimTime total = std::max(s1.done->when(), s2.done->when());
  // Serialized execution would take at least 2x the single-kernel time.
  EXPECT_LT(total.seconds(), 2 * 0.1 + 0.05);
}

TEST_F(RuntimeFixture, HostAccessWaitsForWriter) {
  const uvm::ArrayId a = alloc_populated(2_MiB);
  const Submission w = rt->submit_kernel(kernel(a, uvm::AccessMode::Write));
  const Submission read_back = rt->submit_host_access(a, uvm::AccessMode::Read);
  sim.run();
  EXPECT_GE(read_back.done->when(), w.done->when());
  EXPECT_TRUE(node->uvm().page_resident(a, 0, uvm::kHostDevice));
}

TEST_F(RuntimeFixture, AdoptWaitsForExternalAndLocal) {
  const uvm::ArrayId a = alloc_populated(2_MiB);
  const Submission reader = rt->submit_kernel(kernel(a, uvm::AccessMode::Read));
  auto arrival = gpusim::make_event();
  const Submission adopt = rt->submit_adopt(a, arrival);
  sim.run();
  EXPECT_FALSE(adopt.done->completed());  // network not arrived yet
  arrival->complete(sim.now());
  sim.run();
  EXPECT_TRUE(adopt.done->completed());
  EXPECT_GE(adopt.done->when(), reader.done->when());
  EXPECT_TRUE(node->uvm().page_resident(a, 0, uvm::kHostDevice));
}

TEST_F(RuntimeFixture, FinishedAncestorEnqueuesNoWait) {
  // Only pending vertices keep their end event: a kernel whose sole
  // Local-DAG ancestor already finished pushes no wait into its stream.
  const auto queued = [&] {
    std::size_t ops = 0;
    for (std::size_t g = 0; g < node->gpu_count(); ++g) {
      for (std::uint32_t s = 0; s < node->gpu(g).stream_count(); ++s) {
        ops += node->gpu(g).stream(s).queued_ops();
      }
    }
    return ops;
  };
  const uvm::ArrayId a = alloc_populated(2_MiB, "a");
  const Submission writer = rt->submit_kernel(kernel(a, uvm::AccessMode::Write));
  EXPECT_EQ(rt->event_window(), 1u);
  sim.run();
  EXPECT_EQ(rt->event_window(), 0u);

  // Occupy every stream, so whatever the next CE enqueues stays queued.
  for (int i = 0; i < 4; ++i) {
    rt->submit_kernel(kernel(alloc_populated(1_MiB, "busy"), uvm::AccessMode::Read));
  }
  ASSERT_EQ(queued(), 0u);
  const Submission reader = rt->submit_kernel(kernel(a, uvm::AccessMode::Read));
  ASSERT_EQ(ancestors_of(reader.vertex), std::vector<dag::VertexId>{writer.vertex});
  EXPECT_EQ(queued(), 1u);  // the kernel alone
  // A pending ancestor still gets its wait: the reader is queued, not done.
  rt->submit_kernel(kernel(a, uvm::AccessMode::Write));
  EXPECT_EQ(queued(), 3u);
  sim.run();
}

TEST_F(RuntimeFixture, EventWindowSpansOnlyPendingVertices) {
  // The window runs from the oldest pending vertex to the newest: a CE
  // that finished behind a pending one keeps its released slot until the
  // pending one finishes, then both leave.
  const uvm::ArrayId a = alloc_populated(2_MiB, "a");
  const uvm::ArrayId b = alloc_populated(2_MiB, "b");
  const Submission slow = rt->submit_kernel(kernel(a, uvm::AccessMode::Write, 1.25e14));
  const Submission fast = rt->submit_kernel(kernel(b, uvm::AccessMode::Write));
  EXPECT_EQ(rt->event_window(), 2u);
  ASSERT_TRUE(sim.run_until_done(
      SimTime::max(), [&] { return fast.done->completed(); }, "fast kernel"));
  EXPECT_FALSE(slow.done->completed());
  EXPECT_EQ(rt->event_window(), 2u);
  sim.run();
  EXPECT_EQ(rt->event_window(), 0u);
  // A reader of b still gets its edge to the writer, whose slot is gone.
  const Submission reader = rt->submit_kernel(kernel(b, uvm::AccessMode::Read));
  EXPECT_EQ(ancestors_of(reader.vertex), std::vector<dag::VertexId>{fast.vertex});
  EXPECT_EQ(rt->event_window(), 1u);
  sim.run();
  EXPECT_TRUE(reader.done->completed());
  EXPECT_EQ(rt->event_window(), 0u);
}

TEST_F(RuntimeFixture, DrainedRuntimeIsQuiescentAndHoldsNoEvents) {
  const uvm::ArrayId a = alloc_populated(2_MiB);
  const Submission s1 = rt->submit_kernel(kernel(a, uvm::AccessMode::ReadWrite));
  const Submission s2 = rt->submit_host_access(a, uvm::AccessMode::Read);
  sim.run();
  EXPECT_TRUE(s1.done->completed());
  EXPECT_TRUE(s2.done->completed());
  EXPECT_EQ(rt->event_window(), 0u);
}

// ---------------------------------------------------------------------------
// Stream policies
// ---------------------------------------------------------------------------

struct RoundRobinFixture : RuntimeFixture {
  RoundRobinFixture() : RuntimeFixture(StreamPolicyKind::RoundRobin) {}
};

TEST_F(RoundRobinFixture, SpreadsKernelsOverAllStreams) {
  // 4 independent kernels over 2 GPUs x 2 streams: every GPU runs two.
  std::vector<uvm::ArrayId> arrays;
  for (int i = 0; i < 4; ++i) {
    arrays.push_back(alloc_populated(1_MiB, str_cat("a", std::to_string(i))));
    rt->submit_kernel(kernel(arrays.back(), uvm::AccessMode::Read));
  }
  sim.run();
  EXPECT_EQ(node->gpu(0).kernel_count(), 2u);
  EXPECT_EQ(node->gpu(1).kernel_count(), 2u);
}

struct DataLocalFixture : RuntimeFixture {
  DataLocalFixture() : RuntimeFixture(StreamPolicyKind::DataLocal) {}
};

TEST_F(DataLocalFixture, RepeatKernelsStickToTheirGpu) {
  const uvm::ArrayId a = alloc_populated(4_MiB, "a");
  const uvm::ArrayId b = alloc_populated(4_MiB, "b");
  for (int iter = 0; iter < 3; ++iter) {
    rt->submit_kernel(kernel(a, uvm::AccessMode::Read));
    rt->submit_kernel(kernel(b, uvm::AccessMode::Read));
  }
  sim.run();
  // Affinity keeps each array on one GPU for all iterations, and the two
  // arrays land on different GPUs (first placements are least-loaded).
  EXPECT_EQ(node->gpu(0).kernel_count(), 3u);
  EXPECT_EQ(node->gpu(1).kernel_count(), 3u);
}

TEST_F(RuntimeFixture, PolicyNames) {
  EXPECT_STREQ(to_string(StreamPolicyKind::RoundRobin), "round-robin");
  EXPECT_STREQ(to_string(StreamPolicyKind::LeastLoaded), "least-loaded");
  EXPECT_STREQ(to_string(StreamPolicyKind::DataLocal), "data-local");
}

TEST_F(RuntimeFixture, ChainedPipelineEndToEnd) {
  // init -> k1 writes b from a -> k2 writes c from b -> host read c.
  const uvm::ArrayId a = alloc_populated(2_MiB, "a");
  const uvm::ArrayId b = node->uvm().alloc(2_MiB, "b");
  const uvm::ArrayId c = node->uvm().alloc(2_MiB, "c");

  gpusim::KernelLaunchSpec k1;
  k1.name = "k1";
  k1.flops = 1e9;
  k1.params = {uvm::ParamAccess{a, {}, uvm::AccessMode::Read, uvm::StreamingPattern{}},
               uvm::ParamAccess{b, {}, uvm::AccessMode::Write, uvm::StreamingPattern{}}};
  gpusim::KernelLaunchSpec k2;
  k2.name = "k2";
  k2.flops = 1e9;
  k2.params = {uvm::ParamAccess{b, {}, uvm::AccessMode::Read, uvm::StreamingPattern{}},
               uvm::ParamAccess{c, {}, uvm::AccessMode::Write, uvm::StreamingPattern{}}};

  const Submission s1 = rt->submit_kernel(std::move(k1));
  const Submission s2 = rt->submit_kernel(std::move(k2));
  const Submission read_c = rt->submit_host_access(c, uvm::AccessMode::Read);
  sim.run();
  EXPECT_GE(s2.done->when(), s1.done->when());
  EXPECT_GE(read_c.done->when(), s2.done->when());
}

}  // namespace
}  // namespace grout::runtime

// ---------------------------------------------------------------------------
// The controller's data movers on degraded links, and the host_fetch run cap
// ---------------------------------------------------------------------------

namespace grout::core {
namespace {

GroutConfig two_worker_config() {
  GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node.gpu_count = 2;
  cfg.cluster.worker_node.device.memory = 8_MiB;
  cfg.cluster.worker_node.tuning.page_size = 1_MiB;
  cfg.policy = PolicyKind::RoundRobin;
  return cfg;
}

gpusim::KernelLaunchSpec kernel(std::string name,
                                std::vector<std::pair<GlobalArrayId, uvm::AccessMode>> params) {
  gpusim::KernelLaunchSpec spec;
  spec.name = std::move(name);
  spec.flops = 1e9;
  for (const auto& [array, mode] : params) {
    spec.params.push_back(uvm::ParamAccess{array, {}, mode, uvm::StreamingPattern{}});
  }
  return spec;
}

TEST(DegradedLinkTest, HostFetchPicksTheReachableHolder) {
  GroutRuntime rt(two_worker_config());
  const GlobalArrayId in = rt.alloc(1_MiB, "in");
  const GlobalArrayId a = rt.alloc(1_MiB, "a");
  rt.host_init(in);
  rt.launch(kernel("writer", {{in, uvm::AccessMode::Read}, {a, uvm::AccessMode::Write}}));
  rt.launch(kernel("reader", {{a, uvm::AccessMode::Read}}));  // copies a to worker 1
  ASSERT_TRUE(rt.synchronize());
  ASSERT_TRUE(rt.directory().up_to_date_on_worker(a, 0));
  ASSERT_TRUE(rt.directory().up_to_date_on_worker(a, 1));
  // Worker 0's controller route is slow, worker 1's is fine: the fetch must
  // take the faster source instead of defaulting to the first one.
  net::NetworkFabric& fabric = rt.cluster().fabric();
  fabric.set_link_override(cluster::Cluster::controller_id(),
                           cluster::Cluster::worker_fabric_id(0), Bandwidth::mbit_per_sec(1.0));
  const Bytes sent0 = fabric.bytes_sent_by(cluster::Cluster::worker_fabric_id(0));
  const Bytes sent1 = fabric.bytes_sent_by(cluster::Cluster::worker_fabric_id(1));
  EXPECT_TRUE(rt.host_fetch(a));
  EXPECT_TRUE(rt.directory().up_to_date_on_controller(a));
  EXPECT_EQ(fabric.bytes_sent_by(cluster::Cluster::worker_fabric_id(0)), sent0);
  EXPECT_EQ(fabric.bytes_sent_by(cluster::Cluster::worker_fabric_id(1)), sent1 + 1_MiB);
}

TEST(HostFetchCapTest, ReportsOutOfTimeInsteadOfSpinning) {
  GroutConfig cfg = two_worker_config();
  cfg.run_cap = SimTime::from_ms(1.0);  // far less than the transfer takes
  GroutRuntime rt(cfg);
  const GlobalArrayId in = rt.alloc(2_MiB, "in");
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(in);
  rt.launch(kernel("writer", {{in, uvm::AccessMode::Read}, {a, uvm::AccessMode::Write}}));
  EXPECT_FALSE(rt.host_fetch(a));
  EXPECT_FALSE(rt.directory().up_to_date_on_controller(a));
}

}  // namespace
}  // namespace grout::core
