// Tests for GrOUT's core: coherence directory, inter-node policies,
// hierarchical scheduler, autoscaler.
#include <gtest/gtest.h>

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
  LocationSet s(130);
  s.add_worker(129);
  s.add_worker(3);
  s.add_worker(64);
  EXPECT_TRUE(s.worker(64));
  EXPECT_FALSE(s.worker(63));
  EXPECT_EQ(s.holder_count(), 3u);
  EXPECT_EQ(s.worker_holders(), (std::vector<std::size_t>{3, 64, 129}));
  s.grow(200);
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
  EXPECT_THROW(dir.bytes_of(0), InvalidArgument);
}

TEST(DirectoryTest, RandomTransitionsKeepInvariants) {
  // Property: under any interleaving of copies and writes, every array
  // keeps >= 1 holder, and a writer is always a holder afterwards.
  Rng rng(31337);
  constexpr std::size_t kWorkers = 4;
  CoherenceDirectory dir(kWorkers);
  std::vector<GlobalArrayId> arrays;
  for (int i = 0; i < 8; ++i) {
    arrays.push_back(dir.register_array((i + 1) * 1_MiB, "a" + std::to_string(i)));
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
      nics.push_back(net::NicSpec{"w" + std::to_string(i), Bandwidth::mbit_per_sec(4000.0),
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
  MinTransferPolicy p(false, ExplorationLevel::Medium);
  const std::vector<PlacementParam> params{{big, 8_GiB, true}, {small, 1_GiB, true}};
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 2u);
}

TEST_F(MinTransferFixture, FallsBackToRoundRobinWhenNothingViable) {
  // No worker holds anything: exploration round-robin.
  MinTransferPolicy p(false, ExplorationLevel::Medium);
  const std::vector<PlacementParam> params{{big, 8_GiB, true}};
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 0u);
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 1u);
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 2u);
}

TEST_F(MinTransferFixture, ViabilityThresholdGates) {
  // Worker 1 holds only the small array: 1/9 of the input bytes.
  dir.add_worker_copy(small, 1);
  const std::vector<PlacementParam> params{{big, 8_GiB, true}, {small, 1_GiB, true}};
  MinTransferPolicy low(false, ExplorationLevel::Low);  // threshold 0.25 > 1/9
  EXPECT_EQ(low.assign(query_of(params, dir, fabric.get(), 3)), 0u);  // explores

  // Holding the big array passes every threshold.
  dir.add_worker_copy(big, 1);
  MinTransferPolicy high(false, ExplorationLevel::High);
  EXPECT_EQ(high.assign(query_of(params, dir, fabric.get(), 3)), 1u);
}

TEST_F(MinTransferFixture, PureOutputCEsExplore) {
  MinTransferPolicy p(false, ExplorationLevel::Medium);
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
  MinTransferPolicy p(true, ExplorationLevel::Medium);
  const std::vector<PlacementParam> params{{big, 8_GiB, true}, {small, 1_GiB, true}};
  EXPECT_EQ(p.assign(query_of(params, dir, fabric.get(), 3)), 1u);
}

TEST_F(MinTransferFixture, MinTimeRequiresFabric) {
  MinTransferPolicy p(true, ExplorationLevel::Medium);
  const std::vector<PlacementParam> params{{big, 8_GiB, true}};
  EXPECT_THROW(p.assign(query_of(params, dir, nullptr, 3)), InvalidArgument);
}

TEST(PolicyFactoryTest, MakesAllKinds) {
  EXPECT_EQ(make_policy(PolicyKind::RoundRobin)->kind(), PolicyKind::RoundRobin);
  EXPECT_EQ(make_policy(PolicyKind::VectorStep, {2})->kind(), PolicyKind::VectorStep);
  EXPECT_EQ(make_policy(PolicyKind::MinTransferSize)->kind(), PolicyKind::MinTransferSize);
  EXPECT_EQ(make_policy(PolicyKind::MinTransferTime)->kind(), PolicyKind::MinTransferTime);
  EXPECT_EQ(make_policy(PolicyKind::Random)->kind(), PolicyKind::Random);
  EXPECT_EQ(make_policy(PolicyKind::LeastOutstanding)->kind(), PolicyKind::LeastOutstanding);
}

TEST(RandomPolicyTest, UniformInRangeAndDeterministic) {
  RandomPolicy a(5);
  RandomPolicy b(5);
  CoherenceDirectory dir(4);
  const std::vector<PlacementParam> none;
  const PlacementQuery q = query_of(none, dir, nullptr, 4);
  std::vector<std::size_t> counts(4, 0);
  for (int i = 0; i < 400; ++i) {
    const std::size_t pick = a.assign(q);
    EXPECT_EQ(pick, b.assign(q));  // same seed, same stream
    ASSERT_LT(pick, 4u);
    ++counts[pick];
  }
  for (const std::size_t c : counts) EXPECT_GT(c, 50u);  // roughly uniform
}

TEST(LeastOutstandingPolicyTest, PicksLightestWorker) {
  LeastOutstandingPolicy p;
  CoherenceDirectory dir(3);
  const std::vector<PlacementParam> none;
  PlacementQuery q = query_of(none, dir, nullptr, 3);
  const std::vector<std::uint64_t> outstanding{5, 1, 3};
  q.outstanding = &outstanding;
  EXPECT_EQ(p.assign(q), 1u);
}

TEST(LeastOutstandingPolicyTest, FallsBackToRoundRobinWithoutCounts) {
  LeastOutstandingPolicy p;
  CoherenceDirectory dir(2);
  const std::vector<PlacementParam> none;
  const PlacementQuery q = query_of(none, dir, nullptr, 2);
  EXPECT_EQ(p.assign(q), 0u);
  EXPECT_EQ(p.assign(q), 1u);
  EXPECT_EQ(p.assign(q), 0u);
}

TEST(PolicyLivenessTest, RoundRobinSkipsDeadWorkers) {
  RoundRobinPolicy p;
  CoherenceDirectory dir(3);
  const std::vector<PlacementParam> none;
  PlacementQuery q = query_of(none, dir, nullptr, 3);
  const std::vector<bool> alive{true, false, true};
  q.alive = &alive;
  EXPECT_EQ(p.assign(q), 0u);
  EXPECT_EQ(p.assign(q), 2u);
  EXPECT_EQ(p.assign(q), 0u);
  EXPECT_EQ(p.assign(q), 2u);
}

TEST(PolicyLivenessTest, LeastOutstandingIgnoresDeadWorkers) {
  LeastOutstandingPolicy p;
  CoherenceDirectory dir(3);
  const std::vector<PlacementParam> none;
  PlacementQuery q = query_of(none, dir, nullptr, 3);
  const std::vector<std::uint64_t> outstanding{0, 5, 3};
  const std::vector<bool> alive{false, true, true};
  q.outstanding = &outstanding;
  q.alive = &alive;
  // Worker 0 is idle but dead: the lighter of the two survivors wins.
  EXPECT_EQ(p.assign(q), 2u);
}

TEST(PolicyLivenessTest, AllDeadFailsLoudly) {
  RoundRobinPolicy p;
  CoherenceDirectory dir(2);
  const std::vector<PlacementParam> none;
  PlacementQuery q = query_of(none, dir, nullptr, 2);
  const std::vector<bool> alive{false, false};
  q.alive = &alive;
  EXPECT_THROW(p.assign(q), InternalError);
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

TEST(GroutRuntimeTest, LeastOutstandingBalancesAssignments) {
  GroutConfig cfg = small_grout(PolicyKind::LeastOutstanding);
  GroutRuntime rt(cfg);
  const GlobalArrayId a = rt.alloc(1_MiB, "a");
  rt.host_init(a);
  for (int i = 0; i < 8; ++i) rt.launch(global_kernel(a, uvm::AccessMode::Read));
  EXPECT_TRUE(rt.synchronize());
  EXPECT_EQ(rt.metrics().assignments[0], 4u);
  EXPECT_EQ(rt.metrics().assignments[1], 4u);
}

TEST(GroutRuntimeTest, LeastOutstandingTracksInFlightNotCumulative) {
  // Regression: the policy used to consult cumulative assignment counts, so
  // a worker that had long drained its queue still looked as loaded as one
  // stuck behind a long kernel. It must consult in-flight CEs instead.
  GroutRuntime rt(small_grout(PolicyKind::LeastOutstanding));
  const GlobalArrayId slow_a = rt.alloc(1_MiB, "slow");
  const GlobalArrayId fast_a = rt.alloc(1_MiB, "fast");
  const GlobalArrayId third_a = rt.alloc(1_MiB, "third");

  auto slow_spec = global_kernel(slow_a, uvm::AccessMode::Write, "slow");
  slow_spec.flops = 1e15;  // ~80 s on a V100: keeps worker 0 busy
  const CeTicket slow = rt.launch(std::move(slow_spec));
  EXPECT_EQ(slow.worker, 0u);
  const CeTicket fast = rt.launch(global_kernel(fast_a, uvm::AccessMode::Write, "fast"));
  EXPECT_EQ(fast.worker, 1u);

  // Let worker 1 drain its queue while worker 0 is still computing.
  (void)rt.cluster().simulator().run_until(SimTime::from_seconds(1.0));
  ASSERT_TRUE(fast.done->completed());
  ASSERT_FALSE(slow.done->completed());

  // Cumulative counts are tied 1-1 (the old behavior would pick worker 0);
  // only in-flight load identifies the idle worker.
  const CeTicket third = rt.launch(global_kernel(third_a, uvm::AccessMode::Write, "third"));
  EXPECT_EQ(third.worker, 1u);
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

TEST(GroutRuntimeTest, AutoscaleDecidesOnAcksAndEndsAtTheLastCompletion) {
  // Decisions ride completion acks instead of a free-running timer, so the
  // run ends when its last CE completes rather than at the next tick.
  GroutConfig cfg = small_grout();
  cfg.autoscale = true;
  cfg.autoscale_interval = SimTime::from_ms(1.0);
  GroutRuntime rt(cfg);
  std::vector<CeTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    const GlobalArrayId a = rt.alloc(2_MiB, "a" + std::to_string(i));
    rt.host_init(a);
    gpusim::KernelLaunchSpec spec = global_kernel(a, uvm::AccessMode::Read);
    // Round-robin alternates workers: worker 1 (the one a scale-in drains)
    // runs short kernels whose acks arrive while worker 0 is still busy,
    // so the drain finishes well before the run does.
    spec.flops = i % 2 == 0 ? 2e11 : 1e10;
    tickets.push_back(rt.launch(std::move(spec)));
  }
  ASSERT_TRUE(rt.synchronize());
  SimTime last = SimTime::zero();
  for (const CeTicket& t : tickets) {
    ASSERT_TRUE(t.done->completed());
    last = std::max(last, t.done->when());
  }
  // Light pressure: the autoscaler scales in, draining worker 1.
  EXPECT_EQ(rt.metrics().autoscale_scale_ins, 1u);
  EXPECT_TRUE(rt.worker_drained(1));
  EXPECT_EQ(rt.now().ns(), last.ns());
}

// ---------------------------------------------------------------------------
// Autoscaler
// ---------------------------------------------------------------------------

TEST(AutoscalerTest, QuietWithinKpi) {
  const uvm::UvmTuning tuning;
  KpiAutoscaler scaler(tuning);
  uvm::AccessReport report;
  report.oversubscription = 0.5;
  scaler.observe(report);
  // Far below the KPI on 2 nodes: one node would still clear it, so the
  // cluster is oversized — scale in (one worker per window), never out.
  const AutoscaleDecision d = scaler.recommend(2);
  EXPECT_FALSE(d.scale_out);
  EXPECT_TRUE(d.scale_in);
  EXPECT_EQ(d.recommended_workers, 1u);
}

TEST(AutoscalerTest, HoldsWhenShrinkingWouldBreachKpi) {
  const uvm::UvmTuning tuning;
  KpiAutoscaler scaler(tuning, 0.8);
  uvm::AccessReport report;
  // KPI = 2.6 * 0.8 = 2.08; 1.5 is within it on 2 nodes, but re-splitting
  // over 1 node doubles the pressure to 3.0 — past the KPI, so hold.
  report.oversubscription = 1.5;
  scaler.observe(report);
  const AutoscaleDecision d = scaler.recommend(2);
  EXPECT_FALSE(d.scale_out);
  EXPECT_FALSE(d.scale_in);
  EXPECT_EQ(d.recommended_workers, 2u);
}

TEST(AutoscalerTest, NeverScalesInBelowOneWorker) {
  const uvm::UvmTuning tuning;
  KpiAutoscaler scaler(tuning);
  uvm::AccessReport report;
  report.oversubscription = 0.1;
  scaler.observe(report);
  const AutoscaleDecision d = scaler.recommend(1);
  EXPECT_FALSE(d.scale_in);
  EXPECT_EQ(d.recommended_workers, 1u);
}

TEST(AutoscalerTest, RecommendsScaleOutBeyondKpi) {
  const uvm::UvmTuning tuning;
  KpiAutoscaler scaler(tuning, 0.8);
  uvm::AccessReport report;
  report.oversubscription = 5.0;  // 5x: single node deep in the cliff
  report.storm = true;
  scaler.observe(report);
  const AutoscaleDecision d = scaler.recommend(1);
  EXPECT_TRUE(d.scale_out);
  // 5.0 / (2.6 * 0.8) = 2.4 -> 3 workers keep each node below the KPI.
  EXPECT_EQ(d.recommended_workers, 3u);
  EXPECT_EQ(scaler.observed_storms(), 1u);
}

TEST(AutoscalerTest, RespectsMaxWorkers) {
  const uvm::UvmTuning tuning;
  KpiAutoscaler scaler(tuning, 0.5, 4);
  uvm::AccessReport report;
  report.oversubscription = 50.0;
  scaler.observe(report);
  EXPECT_EQ(scaler.recommend(2).recommended_workers, 4u);
}

TEST(AutoscalerTest, ResetClearsState) {
  const uvm::UvmTuning tuning;
  KpiAutoscaler scaler(tuning);
  uvm::AccessReport report;
  report.oversubscription = 9.0;
  scaler.observe(report);
  scaler.reset();
  EXPECT_FALSE(scaler.recommend(1).scale_out);
}

}  // namespace
}  // namespace grout::core
