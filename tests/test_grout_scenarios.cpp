// End-to-end distributed-scheduler scenarios: multi-array CEs, cross-node
// pipelines, control-message gating, advise propagation, and the
// exploration threshold.
#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "core/grout_runtime.hpp"
#include "net/message.hpp"

namespace grout::core {
namespace {

GroutConfig scenario_config(PolicyKind policy = PolicyKind::RoundRobin,
                            std::size_t workers = 2) {
  GroutConfig cfg;
  cfg.cluster.workers = workers;
  cfg.cluster.worker_node.gpu_count = 2;
  cfg.cluster.worker_node.device.memory = 8_MiB;
  cfg.cluster.worker_node.tuning.page_size = 1_MiB;
  cfg.policy = policy;
  return cfg;
}

gpusim::KernelLaunchSpec kernel(std::string name,
                                std::vector<std::pair<GlobalArrayId, uvm::AccessMode>> params,
                                double flops = 1e9) {
  gpusim::KernelLaunchSpec spec;
  spec.name = std::move(name);
  spec.flops = flops;
  for (const auto& [array, mode] : params) {
    spec.params.push_back(uvm::ParamAccess{array, {}, mode, uvm::StreamingPattern{}});
  }
  return spec;
}

TEST(GroutScenario, PipelineAcrossNodes) {
  // init -> stage1 (w0) -> stage2 (w1) -> stage3 (w0) chained via one array
  // each; every stage's output must P2P-hop to the next node.
  GroutRuntime rt(scenario_config());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  const GlobalArrayId b = rt.alloc(2_MiB, "b");
  const GlobalArrayId c = rt.alloc(2_MiB, "c");
  const GlobalArrayId d = rt.alloc(2_MiB, "d");
  rt.host_init(a);
  const CeTicket s1 = rt.launch(kernel("s1", {{a, uvm::AccessMode::Read},
                                              {b, uvm::AccessMode::Write}}));
  const CeTicket s2 = rt.launch(kernel("s2", {{b, uvm::AccessMode::Read},
                                              {c, uvm::AccessMode::Write}}));
  const CeTicket s3 = rt.launch(kernel("s3", {{c, uvm::AccessMode::Read},
                                              {d, uvm::AccessMode::Write}}));
  EXPECT_TRUE(rt.synchronize());
  EXPECT_LE(s1.done->when(), s2.done->when());
  EXPECT_LE(s2.done->when(), s3.done->when());
  EXPECT_EQ(rt.metrics().p2p_sends, 2u);         // b: w0->w1, c: w1->w0
  EXPECT_EQ(rt.metrics().controller_sends, 1u);  // a only
  // Ownership followed the writers.
  EXPECT_TRUE(rt.directory().up_to_date_on_worker(d, s3.worker));
  EXPECT_FALSE(rt.directory().up_to_date_on_controller(d));
}

TEST(GroutScenario, FanOutFanIn) {
  // One input read by 4 CEs (two per worker), then a fan-in CE reading all
  // four outputs.
  GroutRuntime rt(scenario_config());
  const GlobalArrayId in = rt.alloc(2_MiB, "in");
  rt.host_init(in);
  std::vector<GlobalArrayId> outs;
  for (int i = 0; i < 4; ++i) {
    outs.push_back(rt.alloc(1_MiB, str_cat("out", std::to_string(i))));
    rt.launch(kernel(str_cat("branch", std::to_string(i)),
                     {{in, uvm::AccessMode::Read},
                      {outs.back(), uvm::AccessMode::Write}}));
  }
  std::vector<std::pair<GlobalArrayId, uvm::AccessMode>> join_params;
  for (const GlobalArrayId o : outs) join_params.emplace_back(o, uvm::AccessMode::Read);
  const GlobalArrayId result = rt.alloc(1_MiB, "result");
  join_params.emplace_back(result, uvm::AccessMode::Write);
  const CeTicket join = rt.launch(kernel("join", join_params));
  EXPECT_TRUE(rt.synchronize());
  // The join depends on all four branches in the Global DAG.
  EXPECT_EQ(rt.global_dag().ancestors(join.global_vertex).size(), 4u);
  // `in` was broadcast to both workers exactly once each.
  EXPECT_EQ(rt.metrics().controller_sends, 2u);
  // Two of the four branch outputs lived on the other node.
  EXPECT_EQ(rt.metrics().p2p_sends, 2u);
}

TEST(GroutScenario, ControlMessageGatesKernelStart) {
  GroutRuntime rt(scenario_config());
  const GlobalArrayId out = rt.alloc(1_MiB, "out");
  // Pure output: no data transfer, so the earliest possible start is the
  // control-message latency (controller 50us + worker 50us + serialization).
  const CeTicket t = rt.launch(kernel("writer", {{out, uvm::AccessMode::Write}}, 1.0));
  EXPECT_TRUE(rt.synchronize());
  EXPECT_GE(t.done->when(), SimTime::from_us(100.0));
}

TEST(GroutScenario, ControlBytesMatchEncodedSize) {
  GroutRuntime rt(scenario_config());
  const GlobalArrayId out = rt.alloc(1_MiB, "out");
  gpusim::KernelLaunchSpec spec = kernel("writer", {{out, uvm::AccessMode::Write}});
  std::vector<std::byte> buffer;
  const Bytes wire = net::encode_ce(spec, buffer);
  rt.launch(std::move(spec));
  EXPECT_TRUE(rt.synchronize());
  EXPECT_EQ(rt.cluster().fabric().total_bytes(), wire);
}

TEST(GroutScenario, AdviseReachesExistingAndFutureWorkers) {
  GroutRuntime rt(scenario_config());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);
  // Worker 0 gets the array first; then the advise; then worker 1.
  rt.launch(kernel("k0", {{a, uvm::AccessMode::Read}}));
  rt.advise(a, uvm::Advise::ReadMostly);
  rt.launch(kernel("k1", {{a, uvm::AccessMode::Read}}));
  EXPECT_TRUE(rt.synchronize());
  // Both workers can duplicate the array across their two GPUs now: run a
  // second kernel per worker and confirm duplication (read-mostly pages
  // stay put on both devices of worker 0).
  cluster::Worker& w0 = rt.cluster().worker(0);
  const uvm::ArrayId local = w0.local_array(a);
  auto& uvm_space = w0.node().uvm();
  const uvm::ParamAccess pa{local, {}, uvm::AccessMode::Read, uvm::StreamingPattern{}};
  uvm_space.device_access(0, std::span(&pa, 1), uvm::Parallelism::High);
  uvm_space.device_access(1, std::span(&pa, 1), uvm::Parallelism::High);
  EXPECT_TRUE(uvm_space.page_resident(local, 0, 0));
  EXPECT_TRUE(uvm_space.page_resident(local, 0, 1));
}

TEST(GroutScenario, ExplorationOverrideChangesPlacement) {
  // With threshold 0 every node is viable immediately; min-transfer-size
  // then glues follow-up CEs to the first node that received anything.
  GroutConfig cfg = scenario_config(PolicyKind::MinTransferSize);
  cfg.exploration_threshold = 0.0;
  GroutRuntime rt(cfg);
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  const GlobalArrayId b = rt.alloc(2_MiB, "b");
  rt.host_init(a);
  rt.host_init(b);
  for (int i = 0; i < 4; ++i) {
    rt.launch(kernel(str_cat("k", std::to_string(i)),
                     {{a, uvm::AccessMode::Read}, {b, uvm::AccessMode::Read}}));
  }
  EXPECT_TRUE(rt.synchronize());
  EXPECT_EQ(rt.metrics().assignments[0], 4u);
  EXPECT_EQ(rt.metrics().assignments[1], 0u);
}

TEST(GroutScenario, StrictOverrideExploitsOnlyFullHolders) {
  // Threshold 1.0: a node is viable only when it already holds every input
  // byte. The first CE explores (round-robin -> worker 0); the second finds
  // worker 0 holding 100% of its input and sticks to it.
  GroutConfig cfg = scenario_config(PolicyKind::MinTransferSize);
  cfg.exploration_threshold = 1.0;
  GroutRuntime rt(cfg);
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);
  const CeTicket first = rt.launch(kernel("k0", {{a, uvm::AccessMode::Read}}));
  const CeTicket second = rt.launch(kernel("k1", {{a, uvm::AccessMode::Read}}));
  EXPECT_TRUE(rt.synchronize());
  EXPECT_EQ(first.worker, 0u);
  EXPECT_EQ(second.worker, 0u);
}

TEST(GroutScenario, InvalidOverrideRejectedAtConstruction) {
  GroutConfig cfg = scenario_config(PolicyKind::MinTransferSize);
  cfg.exploration_threshold = 1.5;
  EXPECT_THROW(GroutRuntime rt(cfg), InvalidArgument);
}

TEST(GroutScenario, OverrideIgnoredForOfflinePolicies) {
  // The threshold only parameterizes the min-transfer policies; a
  // round-robin run with one set must behave exactly like plain round-robin.
  GroutConfig cfg = scenario_config(PolicyKind::RoundRobin);
  cfg.exploration_threshold = 0.9;
  GroutRuntime rt(cfg);
  EXPECT_EQ(rt.policy(), PolicyKind::RoundRobin);
  const GlobalArrayId a = rt.alloc(1_MiB, "a");
  rt.host_init(a);
  const CeTicket first = rt.launch(kernel("k0", {{a, uvm::AccessMode::Read}}));
  const CeTicket second = rt.launch(kernel("k1", {{a, uvm::AccessMode::Read}}));
  EXPECT_TRUE(rt.synchronize());
  EXPECT_EQ(first.worker, 0u);
  EXPECT_EQ(second.worker, 1u);
}

TEST(GroutScenario, PureOutputCEsExploreRoundRobin) {
  // CEs with no inputs carry no locality signal: min-transfer-size must
  // spread them round-robin instead of clumping them on one node.
  GroutRuntime rt(scenario_config(PolicyKind::MinTransferSize));
  for (int i = 0; i < 4; ++i) {
    const GlobalArrayId out = rt.alloc(1_MiB, str_cat("out", std::to_string(i)));
    const CeTicket t = rt.launch(kernel(str_cat("gen", std::to_string(i)),
                                        {{out, uvm::AccessMode::Write}}));
    EXPECT_EQ(t.worker, static_cast<std::size_t>(i % 2));
  }
  EXPECT_TRUE(rt.synchronize());
  EXPECT_EQ(rt.metrics().controller_sends, 0u);  // nothing needed to move
  EXPECT_EQ(rt.metrics().assignments[0], 2u);
  EXPECT_EQ(rt.metrics().assignments[1], 2u);
}

TEST(GroutScenario, FourWorkersRoundRobinPlacement) {
  GroutRuntime rt(scenario_config(PolicyKind::RoundRobin, 4));
  const GlobalArrayId a = rt.alloc(1_MiB, "a");
  rt.host_init(a);
  for (int i = 0; i < 8; ++i) rt.launch(kernel("k", {{a, uvm::AccessMode::Read}}));
  EXPECT_TRUE(rt.synchronize());
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(rt.metrics().assignments[w], 2u);
  }
  // The array was broadcast once per worker.
  EXPECT_EQ(rt.metrics().controller_sends, 4u);
}

TEST(GroutScenario, HostFetchAfterEveryWriterSeesLatestOwner) {
  GroutRuntime rt(scenario_config());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);
  for (int round = 0; round < 3; ++round) {
    rt.launch(kernel(str_cat("w", std::to_string(round)), {{a, uvm::AccessMode::ReadWrite}}));
    EXPECT_TRUE(rt.host_fetch(a));
    EXPECT_TRUE(rt.directory().up_to_date_on_controller(a));
  }
  EXPECT_TRUE(rt.synchronize());
  // Each round: one inbound send to a worker + one gather back.
  EXPECT_EQ(rt.metrics().controller_sends + rt.metrics().p2p_sends, 3u);
}

TEST(GroutScenario, WorkloadAgnosticDagSizesMatchSubmissions) {
  GroutRuntime rt(scenario_config());
  const GlobalArrayId a = rt.alloc(1_MiB, "a");
  rt.host_init(a);
  for (int i = 0; i < 5; ++i) rt.launch(kernel("k", {{a, uvm::AccessMode::ReadWrite}}));
  EXPECT_TRUE(rt.synchronize());
  // host-init + 5 kernels in the Global DAG, chained by the RAW/WAW edges.
  EXPECT_EQ(rt.global_dag().size(), 6u);
  EXPECT_EQ(rt.global_dag().edge_count(), 5u);
}

}  // namespace
}  // namespace grout::core
