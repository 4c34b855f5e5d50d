// Tests for GrOUT's core: coherence directory, inter-node policies,
// hierarchical scheduler, autoscaler.
#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "sim/simulator.hpp"
#include "core/autoscaler.hpp"
#include "core/grout_runtime.hpp"

namespace grout::core {
namespace {

// ---------------------------------------------------------------------------
// LocationSet
// ---------------------------------------------------------------------------

TEST(LocationSetTest, StartsEmpty) {
  LocationSet s(3);
  EXPECT_FALSE(s.any());
  EXPECT_EQ(s.holder_count(), 0u);
}

TEST(LocationSetTest, AddAndReset) {
  LocationSet s(3);
  s.add_controller();
  s.add_worker(1);
  EXPECT_TRUE(s.controller());
  EXPECT_TRUE(s.worker(1));
  EXPECT_EQ(s.holder_count(), 2u);
  s.reset_to_worker(2);
  EXPECT_FALSE(s.controller());
  EXPECT_FALSE(s.worker(1));
  EXPECT_TRUE(s.worker(2));
  EXPECT_EQ(s.holder_count(), 1u);
  s.reset_to_controller();
  EXPECT_TRUE(s.controller());
  EXPECT_EQ(s.worker_holders().size(), 0u);
}

TEST(LocationSetTest, WorkerHoldersSorted) {
  LocationSet s(4);
  s.add_worker(3);
  s.add_worker(0);
  EXPECT_EQ(s.worker_holders(), (std::vector<std::size_t>{0, 3}));
}

TEST(LocationSetTest, WorkersPastTheInlineWord) {
  // Workers 0-63 live in the inline word, the rest in heap words.
  LocationSet s(200);
  s.add_worker(129);
  s.add_worker(3);
  s.add_worker(64);
  EXPECT_TRUE(s.worker(64));
  EXPECT_FALSE(s.worker(63));
  EXPECT_EQ(s.holder_count(), 3u);
  EXPECT_EQ(s.worker_holders(), (std::vector<std::size_t>{3, 64, 129}));
  s.add_worker(199);
  EXPECT_EQ(s.worker_holders(), (std::vector<std::size_t>{3, 64, 129, 199}));
  s.reset_to_worker(128);
  EXPECT_EQ(s.worker_holders(), (std::vector<std::size_t>{128}));
  EXPECT_FALSE(s.controller());
  s.remove_worker(128);
  EXPECT_FALSE(s.any());
  s.add_worker(70);
  s.reset_to_controller();
  EXPECT_EQ(s.holder_count(), 1u);
}

TEST(LocationSetTest, BoundsChecked) {
  LocationSet s(2);
  EXPECT_THROW((void)s.worker(2), InvalidArgument);
  EXPECT_THROW(s.add_worker(5), InvalidArgument);
}

// ---------------------------------------------------------------------------
// CoherenceDirectory
// ---------------------------------------------------------------------------

TEST(DirectoryTest, RegisterStartsOnController) {
  CoherenceDirectory dir(2);
  const GlobalArrayId id = dir.register_array(4_MiB, "a");
  EXPECT_TRUE(dir.up_to_date_on_controller(id));
  EXPECT_TRUE(dir.only_on_controller(id));
  EXPECT_EQ(dir.bytes_of(id), 4_MiB);
  EXPECT_EQ(dir.name_of(id), "a");
}

TEST(DirectoryTest, CopyAndWriteTransitions) {
  CoherenceDirectory dir(2);
  const GlobalArrayId id = dir.register_array(1_MiB, "a");
  dir.add_worker_copy(id, 0);
  EXPECT_TRUE(dir.up_to_date_on_worker(id, 0));
  EXPECT_TRUE(dir.up_to_date_on_controller(id));
  EXPECT_FALSE(dir.only_on_controller(id));

  dir.written_on_worker(id, 1);
  EXPECT_TRUE(dir.up_to_date_on_worker(id, 1));
  EXPECT_FALSE(dir.up_to_date_on_worker(id, 0));
  EXPECT_FALSE(dir.up_to_date_on_controller(id));

  dir.written_on_controller(id);
  EXPECT_TRUE(dir.only_on_controller(id));
}

TEST(DirectoryTest, UnknownArrayThrows) {
  CoherenceDirectory dir(1);
  EXPECT_THROW((void)dir.bytes_of(0), InvalidArgument);
}

TEST(DirectoryTest, RandomTransitionsKeepInvariants) {
  // Property: under any interleaving of copies and writes, every array
  // keeps >= 1 holder, and a writer is always a holder afterwards.
  Rng rng(31337);
  constexpr std::size_t kWorkers = 4;
  CoherenceDirectory dir(kWorkers);
  std::vector<GlobalArrayId> arrays;
  for (int i = 0; i < 8; ++i) {
    arrays.push_back(dir.register_array((i + 1) * 1_MiB, str_cat("a", std::to_string(i))));
  }
  for (int step = 0; step < 500; ++step) {
    const GlobalArrayId id = arrays[rng.next_below(arrays.size())];
    switch (rng.next_below(4)) {
      case 0: {
        const std::size_t w = rng.next_below(kWorkers);
        // A copy can only be added from an existing holder; the scheduler
        // guarantees this, so the test mirrors it.
        dir.add_worker_copy(id, w);
        ASSERT_TRUE(dir.up_to_date_on_worker(id, w));
        break;
      }
      case 1: {
        const std::size_t w = rng.next_below(kWorkers);
        dir.written_on_worker(id, w);
        ASSERT_TRUE(dir.up_to_date_on_worker(id, w));
        ASSERT_EQ(dir.holders(id).holder_count(), 1u);
        break;
      }
      case 2:
        dir.written_on_controller(id);
        ASSERT_TRUE(dir.only_on_controller(id));
        break;
      default: dir.add_controller_copy(id); break;
    }
    for (const GlobalArrayId a : arrays) {
      ASSERT_GE(dir.holders(a).holder_count(), 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

PlacementQuery query_of(const std::vector<PlacementParam>& params,
                        const CoherenceDirectory& dir, const net::NetworkFabric* fabric,
                        std::size_t workers) {
  PlacementQuery q;
  q.params = &params;
  q.directory = &dir;
  q.fabric = fabric;
  q.workers = workers;
  return q;
}

TEST(RoundRobinPolicyTest, Cycles) {
  RoundRobinPolicy p;
  CoherenceDirectory dir(3);
  const std::vector<PlacementParam> none;
  const PlacementQuery q = query_of(none, dir, nullptr, 3);
  EXPECT_EQ(p.assign(q), 0u);
  EXPECT_EQ(p.assign(q), 1u);
  EXPECT_EQ(p.assign(q), 2u);
  EXPECT_EQ(p.assign(q), 0u);
}

TEST(VectorStepPolicyTest, PaperExample) {
  // Vector [1,2,3] on two nodes: 1 CE to node0, 2 to node1, 3 to node0, ...
  VectorStepPolicy p({1, 2, 3});
  CoherenceDirectory dir(2);
  const std::vector<PlacementParam> none;
  const PlacementQuery q = query_of(none, dir, nullptr, 2);
  std::vector<std::size_t> got;
  for (int i = 0; i < 12; ++i) got.push_back(p.assign(q));
  EXPECT_EQ(got, (std::vector<std::size_t>{0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1}));
}

TEST(VectorStepPolicyTest, RejectsBadVectors) {
  EXPECT_THROW(VectorStepPolicy({}), InvalidArgument);
  EXPECT_THROW(VectorStepPolicy({1, 0}), InvalidArgument);
}

TEST(VectorStepPolicyTest, WrapsWhenVectorIsLongerThanWorkerCount) {
  // Three entries but only two workers: the node cursor must wrap, so the
  // third entry lands back on node 0 and the cycle continues shifted.
  VectorStepPolicy p({2, 2, 2});
  CoherenceDirectory dir(2);
  const std::vector<PlacementParam> none;
  const PlacementQuery q = query_of(none, dir, nullptr, 2);
  std::vector<std::size_t> got;
  for (int i = 0; i < 8; ++i) got.push_back(p.assign(q));
  EXPECT_EQ(got, (std::vector<std::size_t>{0, 0, 1, 1, 0, 0, 1, 1}));
}

struct MinTransferFixture : ::testing::Test {
  MinTransferFixture() : dir(3) {
    std::vector<net::NicSpec> nics;
    nics.push_back(net::NicSpec{"ctl", Bandwidth::mbit_per_sec(8000.0), SimTime::zero()});
    for (int i = 0; i < 3; ++i) {
      nics.push_back(net::NicSpec{str_cat("w", std::to_string(i)), Bandwidth::mbit_per_sec(4000.0),
                                  SimTime::zero()});
    }
    fabric = std::make_unique<net::NetworkFabric>(sim, std::move(nics));
    big = dir.register_array(8_GiB, "big");
    small = dir.register_array(1_GiB, "small");
  }

  sim::Simulator sim;
  CoherenceDirectory dir;
  std::unique_ptr<net::NetworkFabric> fabric;
  GlobalArrayId big{};
  GlobalArrayId small{};
};

TEST_F(MinTransferFixture, PicksNodeHoldingTheData) {
  dir.add_worker_copy(big, 2);
  MinTransferPolicy p(false, exploration_threshold(ExplorationLevel::Medium));
  const std::vector<PlacementParam> params{{big, 8_GiB, true}, {small, 1_GiB, true}};
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 2u);
}

TEST_F(MinTransferFixture, FallsBackToRoundRobinWhenNothingViable) {
  // No worker holds anything: exploration round-robin.
  MinTransferPolicy p(false, exploration_threshold(ExplorationLevel::Medium));
  const std::vector<PlacementParam> params{{big, 8_GiB, true}};
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 0u);
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 1u);
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 2u);
}

TEST_F(MinTransferFixture, ViabilityThresholdGates) {
  // Worker 1 holds only the small array: 1/9 of the input bytes.
  dir.add_worker_copy(small, 1);
  const std::vector<PlacementParam> params{{big, 8_GiB, true}, {small, 1_GiB, true}};
  // Threshold 0.25 > 1/9.
  MinTransferPolicy low(false, exploration_threshold(ExplorationLevel::Low));
  EXPECT_EQ(low.assign(query_of(params, dir, fabric.get(), 3)), 0u);  // explores

  // Holding the big array passes every threshold.
  dir.add_worker_copy(big, 1);
  MinTransferPolicy high(false, exploration_threshold(ExplorationLevel::High));
  EXPECT_EQ(high.assign(query_of(params, dir, fabric.get(), 3)), 1u);
}

TEST_F(MinTransferFixture, PureOutputCEsExplore) {
  MinTransferPolicy p(false, exploration_threshold(ExplorationLevel::Medium));
  const std::vector<PlacementParam> params{{big, 8_GiB, false}};  // write-only
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 0u);
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 1u);
}

TEST_F(MinTransferFixture, MinTimePrefersFasterRoutes) {
  // Both workers already hold `big` (viable); `small` must still move to
  // whichever node is chosen. Throttle the controller->worker0 route so
  // fetching `small` to worker 0 is slow: min-time must pick worker 1.
  dir.add_worker_copy(big, 0);
  dir.add_worker_copy(big, 1);
  fabric->set_link_override(0, 1, Bandwidth::mbit_per_sec(100.0));  // ctl<->w0
  MinTransferPolicy p(true, exploration_threshold(ExplorationLevel::Medium));
  const std::vector<PlacementParam> params{{big, 8_GiB, true}, {small, 1_GiB, true}};
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 1u);
}

TEST_F(MinTransferFixture, MinTimeRequiresFabric) {
  MinTransferPolicy p(true, exploration_threshold(ExplorationLevel::Medium));
  const std::vector<PlacementParam> params{{big, 8_GiB, true}};
  EXPECT_THROW(p.assign(query_of(params, dir, nullptr, 3)), InvalidArgument);
}

TEST(PolicyFactoryTest, MakesAllKinds) {
  EXPECT_EQ(make_policy(PolicyKind::RoundRobin)->kind(), PolicyKind::RoundRobin);
  EXPECT_EQ(make_policy(PolicyKind::VectorStep, {2})->kind(), PolicyKind::VectorStep);
  EXPECT_EQ(make_policy(PolicyKind::MinTransferSize)->kind(), PolicyKind::MinTransferSize);
  EXPECT_EQ(make_policy(PolicyKind::MinTransferTime)->kind(), PolicyKind::MinTransferTime);
}

TEST(PolicyNamesTest, Strings) {
  EXPECT_STREQ(to_string(PolicyKind::RoundRobin), "round-robin");
  EXPECT_STREQ(to_string(PolicyKind::MinTransferTime), "min-transfer-time");
  EXPECT_STREQ(to_string(ExplorationLevel::Low), "low");
  EXPECT_DOUBLE_EQ(exploration_threshold(ExplorationLevel::High), 0.75);
}

TEST(ExplorationThresholdTest, DefaultsMatchThePaperLevels) {
  // Section V-E's three levels, exact: every min-transfer placement and the
  // policy differential oracles depend on these constants.
  EXPECT_EQ(exploration_threshold(ExplorationLevel::Low), 0.25);
  EXPECT_EQ(exploration_threshold(ExplorationLevel::Medium), 0.50);
  EXPECT_EQ(exploration_threshold(ExplorationLevel::High), 0.75);
}

// ---------------------------------------------------------------------------
// GroutRuntime (the hierarchical scheduler end-to-end, small scale)
// ---------------------------------------------------------------------------

GroutConfig small_grout(PolicyKind policy = PolicyKind::RoundRobin) {
  GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node.gpu_count = 2;
  cfg.cluster.worker_node.device.memory = 8_MiB;
  cfg.cluster.worker_node.tuning.page_size = 1_MiB;
  cfg.policy = policy;
  return cfg;
}

gpusim::KernelLaunchSpec global_kernel(GlobalArrayId array, uvm::AccessMode mode,
                                       const std::string& name = "k") {
  gpusim::KernelLaunchSpec spec;
  spec.name = name;
  spec.flops = 1e9;
  spec.params.push_back(
      uvm::ParamAccess{array, uvm::ByteRange{}, mode, uvm::StreamingPattern{}});
  return spec;
}

TEST(GroutRuntimeTest, LaunchMovesDataAndRuns) {
  GroutRuntime rt(small_grout());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);
  const CeTicket t = rt.launch(global_kernel(a, uvm::AccessMode::Read));
  EXPECT_TRUE(rt.synchronize());
  EXPECT_TRUE(t.done->completed());
  // Round-robin put it on worker 0; a controller send was planned.
  EXPECT_EQ(t.worker, 0u);
  EXPECT_EQ(rt.metrics().controller_sends, 1u);
  EXPECT_EQ(rt.metrics().bytes_planned, 2_MiB);
  EXPECT_TRUE(rt.directory().up_to_date_on_worker(a, 0));
}

TEST(GroutRuntimeTest, NoTransferWhenDataAlreadyThere) {
  GroutRuntime rt(small_grout());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);
  rt.launch(global_kernel(a, uvm::AccessMode::Read));  // -> worker 0, send
  EXPECT_TRUE(rt.synchronize());
  EXPECT_EQ(rt.metrics().controller_sends, 1u);

  rt.launch(global_kernel(a, uvm::AccessMode::Read));  // -> worker 1, send
  EXPECT_TRUE(rt.synchronize());
  EXPECT_EQ(rt.metrics().controller_sends, 2u);

  rt.launch(global_kernel(a, uvm::AccessMode::Read));  // -> worker 0 again
  EXPECT_TRUE(rt.synchronize());
  EXPECT_EQ(rt.metrics().controller_sends, 2u);  // no new transfer
  EXPECT_EQ(rt.metrics().p2p_sends, 0u);
}

TEST(GroutRuntimeTest, WriteInvalidatesOtherCopiesAndTriggersP2P) {
  GroutRuntime rt(small_grout());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);
  // CE1 (worker 0) writes the array: worker 0 becomes sole owner.
  rt.launch(global_kernel(a, uvm::AccessMode::ReadWrite, "writer"));
  EXPECT_FALSE(rt.directory().up_to_date_on_controller(a));
  EXPECT_TRUE(rt.directory().up_to_date_on_worker(a, 0));
  // CE2 (worker 1) reads it: must come P2P from worker 0.
  rt.launch(global_kernel(a, uvm::AccessMode::Read, "reader"));
  EXPECT_TRUE(rt.synchronize());
  EXPECT_EQ(rt.metrics().p2p_sends, 1u);
  EXPECT_TRUE(rt.directory().up_to_date_on_worker(a, 1));
}

TEST(GroutRuntimeTest, PureOutputNeedsNoInboundTransfer) {
  GroutRuntime rt(small_grout());
  const GlobalArrayId a = rt.alloc(2_MiB, "out");
  const CeTicket t = rt.launch(global_kernel(a, uvm::AccessMode::Write));
  EXPECT_TRUE(rt.synchronize());
  EXPECT_TRUE(t.done->completed());
  EXPECT_EQ(rt.metrics().controller_sends, 0u);
  EXPECT_TRUE(rt.directory().up_to_date_on_worker(a, t.worker));
}

TEST(GroutRuntimeTest, HostFetchGathersFromOwner) {
  GroutRuntime rt(small_grout());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);
  rt.launch(global_kernel(a, uvm::AccessMode::ReadWrite));
  EXPECT_TRUE(rt.host_fetch(a));
  EXPECT_TRUE(rt.directory().up_to_date_on_controller(a));
  EXPECT_GT(rt.now(), SimTime::zero());
}

TEST(GroutRuntimeTest, GlobalDagOrdersCrossNodeRaw) {
  GroutRuntime rt(small_grout());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);
  const CeTicket w = rt.launch(global_kernel(a, uvm::AccessMode::ReadWrite, "writer"));
  const CeTicket r = rt.launch(global_kernel(a, uvm::AccessMode::Read, "reader"));
  EXPECT_NE(w.worker, r.worker);  // round-robin spreads them
  EXPECT_TRUE(rt.synchronize());
  // The reader consumed the writer's output via the staged P2P send, so it
  // cannot have finished before the writer.
  EXPECT_GE(r.done->when(), w.done->when());
  EXPECT_EQ(rt.global_dag().ancestors(r.global_vertex).size(), 1u);
}

TEST(GroutRuntimeTest, RunCapReportsOutOfTime) {
  GroutConfig cfg = small_grout();
  cfg.run_cap = SimTime::from_us(1.0);
  GroutRuntime rt(cfg);
  const GlobalArrayId a = rt.alloc(4_MiB, "a");
  rt.host_init(a);
  rt.launch(global_kernel(a, uvm::AccessMode::Read));
  EXPECT_FALSE(rt.synchronize());
}

TEST(GroutRuntimeTest, MetricsCountDecisions) {
  GroutRuntime rt(small_grout());
  const GlobalArrayId a = rt.alloc(1_MiB, "a");
  rt.host_init(a);
  for (int i = 0; i < 6; ++i) rt.launch(global_kernel(a, uvm::AccessMode::Read));
  EXPECT_TRUE(rt.synchronize());
  EXPECT_EQ(rt.metrics().ces_scheduled, 6u);
  EXPECT_EQ(rt.metrics().decision_ns.count(), 6u);
  EXPECT_EQ(rt.metrics().assignments[0] + rt.metrics().assignments[1], 6u);
}

TEST(GroutRuntimeTest, CountsExplorationPlacements) {
  // Pure-output CEs carry no locality signal, so a min-transfer policy
  // places them through its round-robin exploration fallback, and the
  // runtime counts each such placement; both workers take a turn.
  GroutRuntime rt(small_grout(PolicyKind::MinTransferSize));
  std::vector<std::size_t> placed;
  for (int i = 0; i < 4; ++i) {
    const GlobalArrayId out = rt.alloc(1_MiB, str_cat("out", std::to_string(i)));
    placed.push_back(rt.launch(global_kernel(out, uvm::AccessMode::Write)).worker);
  }
  EXPECT_EQ(rt.metrics().exploration_placements, 4u);
  EXPECT_NE(std::find(placed.begin(), placed.end(), 0u), placed.end());
  EXPECT_NE(std::find(placed.begin(), placed.end(), 1u), placed.end());
  EXPECT_TRUE(rt.synchronize());
}

TEST(GroutRuntimeTest, AggregatedUvmStats) {
  GroutRuntime rt(small_grout());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);
  rt.launch(global_kernel(a, uvm::AccessMode::Read));
  EXPECT_TRUE(rt.synchronize());
  const uvm::UvmStats stats = rt.aggregated_uvm_stats();
  EXPECT_EQ(stats.kernels, 1u);
  EXPECT_GT(stats.bytes_fetched, 0u);
}

// ---------------------------------------------------------------------------
// Autoscaler
// ---------------------------------------------------------------------------

TEST(AutoscalerTest, QuietWithinKpi) {
  const uvm::UvmTuning tuning;
  KpiAutoscaler scaler(tuning);
  uvm::UvmStats stats;
  stats.kernels = 1;
  stats.peak_oversubscription = 0.5;
  scaler.observe(stats);
  // Far below the KPI: keep the current size.
  const AutoscaleDecision d = scaler.recommend(2);
  EXPECT_FALSE(d.scale_out);
  EXPECT_EQ(d.recommended_workers, 2u);
}

TEST(AutoscalerTest, RecommendsScaleOutBeyondKpi) {
  const uvm::UvmTuning tuning;
  KpiAutoscaler scaler(tuning, 0.8);
  uvm::UvmStats stats;
  stats.kernels = 1;
  stats.peak_oversubscription = 5.0;  // 5x: single node deep in the cliff
  stats.storm_kernels = 1;
  scaler.observe(stats);
  const AutoscaleDecision d = scaler.recommend(1);
  EXPECT_TRUE(d.scale_out);
  // 5.0 / (2.6 * 0.8) = 2.4 -> 3 workers keep each node below the KPI.
  EXPECT_EQ(d.recommended_workers, 3u);
  EXPECT_EQ(scaler.observed_storms(), 1u);
}

TEST(AutoscalerTest, RespectsMaxWorkers) {
  const uvm::UvmTuning tuning;
  KpiAutoscaler scaler(tuning, 0.5, 4);
  uvm::UvmStats stats;
  stats.kernels = 1;
  stats.peak_oversubscription = 50.0;
  scaler.observe(stats);
  EXPECT_EQ(scaler.recommend(2).recommended_workers, 4u);
}

}  // namespace
}  // namespace grout::core
