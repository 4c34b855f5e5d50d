// Elastic cluster membership: hot-join and graceful drain, end to end —
// plan parsing, the cluster/fabric growth path, runtime integration, and
// the two acceptance scenarios (a mid-run join strictly reducing the
// makespan of an oversubscribed run; a drain finishing with zero lost
// arrays and zero replicas on the drained node).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/elastic.hpp"
#include "core/grout_runtime.hpp"
#include "tests/support/invariant_checker.hpp"

namespace grout {
namespace {

using core::CeTicket;
using core::GlobalArrayId;
using core::GroutConfig;
using core::GroutRuntime;
using core::MembershipEvent;
using core::PolicyKind;

// ---------------------------------------------------------------------------
// ElasticPlan parsing
// ---------------------------------------------------------------------------

TEST(ElasticPlanTest, ParsesJoinsAndDrains) {
  const cluster::ElasticPlan plan =
      cluster::ElasticPlan::parse("join@t=2s:2, drain@t=5s:0; join@t=7:1");
  ASSERT_EQ(plan.joins.size(), 2u);
  EXPECT_EQ(plan.joins[0].at, SimTime::from_seconds(2.0));
  EXPECT_EQ(plan.joins[0].count, 2u);
  EXPECT_EQ(plan.joins[1].at, SimTime::from_seconds(7.0));
  EXPECT_EQ(plan.joins[1].count, 1u);
  ASSERT_EQ(plan.drains.size(), 1u);
  EXPECT_EQ(plan.drains[0].at, SimTime::from_seconds(5.0));
  EXPECT_EQ(plan.drains[0].worker, 0u);
  EXPECT_EQ(plan.total_joins(), 3u);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(cluster::ElasticPlan{}.empty());
  EXPECT_TRUE(cluster::ElasticPlan::parse("").empty());
}

TEST(ElasticPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(cluster::ElasticPlan::parse("join:2"), InvalidArgument);        // no @t=
  EXPECT_THROW(cluster::ElasticPlan::parse("join@2s:1"), InvalidArgument);     // missing t=
  EXPECT_THROW(cluster::ElasticPlan::parse("join@t=2s"), InvalidArgument);     // missing :count
  EXPECT_THROW(cluster::ElasticPlan::parse("join@t=x:1"), InvalidArgument);    // bad time
  EXPECT_THROW(cluster::ElasticPlan::parse("join@t=-1:1"), InvalidArgument);   // negative time
  EXPECT_THROW(cluster::ElasticPlan::parse("join@t=2s:0"), InvalidArgument);   // zero joiners
  EXPECT_THROW(cluster::ElasticPlan::parse("drain@t=2s:x"), InvalidArgument);  // bad worker
  EXPECT_THROW(cluster::ElasticPlan::parse("leave@t=2s:1"), InvalidArgument);  // unknown kind
}

// ---------------------------------------------------------------------------
// Cluster membership state machine + fabric growth
// ---------------------------------------------------------------------------

TEST(ClusterElasticTest, AddWorkerRegistersFabricEndpointAndActiveSlot) {
  cluster::ClusterConfig cfg;
  cfg.workers = 2;
  cluster::Cluster cl(cfg);
  // Warm the dense bandwidth-matrix cache so add_node must invalidate it.
  const double before = cl.fabric().bandwidth(0, 1).bps();
  EXPECT_GT(before, 0.0);

  const std::size_t w = cl.add_worker();
  EXPECT_EQ(w, 2u);
  EXPECT_EQ(cl.worker_count(), 3u);
  EXPECT_EQ(cl.worker_state(w), cluster::WorkerState::Active);
  // The joiner's row/column must be probed like the startup set was.
  const net::NodeId fid = cluster::Cluster::worker_fabric_id(w);
  EXPECT_GT(cl.fabric().bandwidth(cluster::Cluster::controller_id(), fid).bps(), 0.0);
  EXPECT_GT(cl.fabric().bandwidth(fid, cluster::Cluster::worker_fabric_id(0)).bps(), 0.0);
  // Old entries survive the re-probe.
  EXPECT_DOUBLE_EQ(cl.fabric().bandwidth(0, 1).bps(), before);
  // The joiner can actually run a CE.
  EXPECT_EQ(cl.worker(w).node().gpu_count(), cfg.worker_node.gpu_count);
}

TEST(ClusterElasticTest, DrainWalksTheStateMachine) {
  cluster::ClusterConfig cfg;
  cfg.workers = 2;
  cluster::Cluster cl(cfg);
  EXPECT_EQ(cl.worker_state(0), cluster::WorkerState::Active);
  cl.drain_worker(0);
  EXPECT_EQ(cl.worker_state(0), cluster::WorkerState::Draining);
  EXPECT_THROW(cl.drain_worker(0), InvalidArgument);  // already draining
  cl.retire_worker(0);
  EXPECT_EQ(cl.worker_state(0), cluster::WorkerState::Drained);
  EXPECT_THROW(cl.retire_worker(0), InvalidArgument);  // already drained
  EXPECT_THROW(cl.retire_worker(1), InvalidArgument);  // retire without drain
}

// ---------------------------------------------------------------------------
// Runtime hot-join
// ---------------------------------------------------------------------------

GroutConfig small_config(PolicyKind policy = PolicyKind::RoundRobin, std::size_t workers = 2) {
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

TEST(RuntimeJoinTest, JoinerGrowsEveryLayerAndReceivesPlacements) {
  GroutRuntime rt(small_config());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);

  const std::size_t w = rt.add_worker();
  EXPECT_EQ(w, 2u);
  EXPECT_EQ(rt.cluster().worker_count(), 3u);
  EXPECT_EQ(rt.directory().worker_count(), 3u);
  EXPECT_TRUE(rt.worker_alive(w));
  EXPECT_EQ(rt.governor().resident_bytes(w), 0u);

  auto& m = rt.metrics();
  ASSERT_EQ(m.assignments.size(), 3u);
  ASSERT_EQ(m.inflight.size(), 3u);
  EXPECT_EQ(m.worker_joins, 1u);
  ASSERT_EQ(rt.membership_log().size(), 1u);
  EXPECT_EQ(rt.membership_log()[0].kind, MembershipEvent::Kind::Join);
  EXPECT_EQ(rt.membership_log()[0].worker, 2u);

  // Round-robin immediately includes the joiner: three CEs land on three
  // distinct workers.
  std::vector<std::size_t> placed;
  for (int i = 0; i < 3; ++i) {
    placed.push_back(
        rt.launch(kernel("k" + std::to_string(i), {{a, uvm::AccessMode::Read}})).worker);
  }
  std::sort(placed.begin(), placed.end());
  EXPECT_EQ(placed, (std::vector<std::size_t>{0, 1, 2}));
  ASSERT_TRUE(rt.synchronize());
  EXPECT_GT(rt.governor().resident_bytes(w), 0u);  // data followed the CE
}

TEST(RuntimeJoinTest, MinTransferReachesJoinerViaExploration) {
  // A fresh joiner holds 0% of every input, so a min-transfer policy can
  // only reach it through its round-robin exploration fallback — which the
  // runtime surfaces as a metric.
  GroutRuntime rt(small_config(PolicyKind::MinTransferSize));
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);
  // Pin `a`'s copies onto workers 0/1 so exploitation alone would never
  // leave them.
  (void)rt.launch(kernel("w0", {{a, uvm::AccessMode::ReadWrite}}));
  ASSERT_TRUE(rt.synchronize());
  const std::uint64_t explored_before = rt.metrics().exploration_placements;

  rt.add_worker();
  // Pure-output CEs carry no locality signal: the policy explores, and the
  // joiner takes its turn in the rotation.
  std::vector<GlobalArrayId> outs;
  bool joiner_used = false;
  for (int i = 0; i < 6; ++i) {
    outs.push_back(rt.alloc(1_MiB, "out" + std::to_string(i)));
    const CeTicket t =
        rt.launch(kernel("gen" + std::to_string(i), {{outs.back(), uvm::AccessMode::Write}}));
    joiner_used |= t.worker == 2;
  }
  EXPECT_TRUE(joiner_used);
  EXPECT_GT(rt.metrics().exploration_placements, explored_before);
  ASSERT_TRUE(rt.synchronize());
}

// ---------------------------------------------------------------------------
// Runtime drain
// ---------------------------------------------------------------------------

TEST(RuntimeDrainTest, DrainMigratesSoleCopiesAndEndsEmpty) {
  GroutRuntime rt(small_config());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  const GlobalArrayId b = rt.alloc(2_MiB, "b");
  // Round-robin: `a`'s writer lands on worker 0, `b`'s on worker 1 — each
  // worker the sole up-to-date holder of its output.
  (void)rt.launch(kernel("wa", {{a, uvm::AccessMode::Write}}));
  (void)rt.launch(kernel("wb", {{b, uvm::AccessMode::Write}}));
  ASSERT_TRUE(rt.synchronize());
  ASSERT_TRUE(rt.directory().up_to_date_on_worker(a, 0));
  ASSERT_EQ(rt.directory().holders(a).holder_count(), 1u);

  rt.drain_worker(0);
  // An idle worker's drain may finalize synchronously (nothing in flight,
  // nothing pinned); either way it must never be schedulable again.
  EXPECT_TRUE(rt.worker_draining(0) || rt.worker_drained(0));
  ASSERT_TRUE(rt.synchronize());  // the spill transfer drains

  EXPECT_TRUE(rt.worker_drained(0));
  EXPECT_EQ(rt.cluster().worker_state(0), cluster::WorkerState::Drained);
  EXPECT_EQ(rt.governor().resident_bytes(0), 0u);
  EXPECT_FALSE(rt.directory().holders(a).worker(0));
  // The sole copy migrated out through the directory instead of dying.
  EXPECT_TRUE(rt.directory().holders(a).any());
  EXPECT_GT(rt.metrics().drain_migrated_bytes, 0u);
  EXPECT_EQ(rt.metrics().worker_drains, 1u);
  ASSERT_TRUE(rt.host_fetch(a));
  ASSERT_TRUE(rt.host_fetch(b));

  // New CEs avoid the drained worker forever.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rt.launch(kernel("post" + std::to_string(i), {{b, uvm::AccessMode::Read}})).worker,
              1u);
  }
  ASSERT_TRUE(rt.synchronize());
}

TEST(RuntimeDrainTest, InFlightCesFinishBeforeTheDrainCompletes) {
  GroutRuntime rt(small_config());
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  // A slow CE (~80 s simulated) is in flight on worker 0 when the drain
  // starts: the drain must wait for it, not cancel or migrate it.
  const CeTicket slow = rt.launch(kernel("slow", {{a, uvm::AccessMode::Write}}, 1e15));
  ASSERT_EQ(slow.worker, 0u);
  rt.drain_worker(0);
  EXPECT_TRUE(rt.worker_draining(0));
  EXPECT_FALSE(rt.worker_drained(0));

  ASSERT_TRUE(rt.synchronize());
  EXPECT_TRUE(slow.done->completed());
  EXPECT_TRUE(rt.worker_drained(0));
  // The drain finalized only after the CE finished.
  SimTime drain_done = SimTime::zero();
  for (const MembershipEvent& e : rt.membership_log()) {
    if (e.kind == MembershipEvent::Kind::DrainDone) drain_done = e.at;
  }
  EXPECT_GE(drain_done, slow.done->when());
  ASSERT_TRUE(rt.host_fetch(a));
}

TEST(RuntimeDrainTest, GuardsRejectBadDrains) {
  GroutRuntime rt(small_config());
  EXPECT_THROW(rt.drain_worker(7), InvalidArgument);
  rt.drain_worker(1);
  EXPECT_THROW(rt.drain_worker(1), InvalidArgument);  // already draining
  // Worker 0 is the last schedulable one: draining it would strand the run.
  EXPECT_THROW(rt.drain_worker(0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Acceptance: joining mid-run relieves oversubscription
// ---------------------------------------------------------------------------

/// One oversubscribed phase at the paper's scale: 8 x 24 GiB arrays over
/// V100 nodes with 32 GiB of GPU memory each. Two workers carry 3x
/// oversubscription per node (fault-storm territory); four workers carry
/// 1.5x. The warm-up advances sim time past the join point so the second
/// batch is placed under the grown membership.
double elastic_makespan(bool join) {
  GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.policy = PolicyKind::RoundRobin;
  if (join) cfg.elastic_plan = cluster::ElasticPlan::parse("join@t=1s:2");
  GroutRuntime rt(cfg);

  std::vector<GlobalArrayId> arrays;
  for (int i = 0; i < 8; ++i) {
    arrays.push_back(rt.alloc(24_GiB, "big" + std::to_string(i)));
    rt.host_init(arrays.back());
  }
  const GlobalArrayId warm = rt.alloc(1_MiB, "warm");
  rt.host_init(warm);
  (void)rt.launch(kernel("warmup", {{warm, uvm::AccessMode::ReadWrite}}, 1e9));
  EXPECT_TRUE(rt.synchronize());  // fires the join (if planned) at t=1s

  for (std::size_t i = 0; i < arrays.size(); ++i) {
    (void)rt.launch(
        kernel("work" + std::to_string(i), {{arrays[i], uvm::AccessMode::ReadWrite}}, 1e12));
  }
  EXPECT_TRUE(rt.synchronize());

  if (join) {
    const auto& m = rt.metrics();
    EXPECT_EQ(m.worker_joins, 2u);
    EXPECT_EQ(m.assignments.size(), 4u);
    if (m.assignments.size() == 4u) {
      EXPECT_GT(m.assignments[2], 0u);  // both joiners actually took CEs
      EXPECT_GT(m.assignments[3], 0u);
    }
  }
  return rt.now().seconds();
}

TEST(ElasticAcceptanceTest, MidRunJoinStrictlyReducesOversubscribedMakespan) {
  const double without = elastic_makespan(/*join=*/false);
  const double with = elastic_makespan(/*join=*/true);
  EXPECT_LT(with, without);
}

// ---------------------------------------------------------------------------
// Membership changes that fire while the engine is mid-drive
// ---------------------------------------------------------------------------

std::size_t kernels_run_on(GroutRuntime& rt, std::size_t w) {
  gpusim::GpuNode& node = rt.cluster().worker(w).node();
  std::size_t n = 0;
  for (std::size_t g = 0; g < node.gpu_count(); ++g) n += node.gpu(g).records().size();
  return n;
}

// A hot-join fired by the elastic plan executes inside event execution,
// mid-drive: the joiner must come up schedulable, and CEs placed on it
// must actually run on its GPUs.
TEST(MidDriveMembershipTest, PlanJoinYieldsAWorkerThatReceivesCes) {
  GroutConfig cfg = small_config();
  cfg.elastic_plan = cluster::ElasticPlan::parse("join@t=0.5s:1");
  GroutRuntime rt(cfg);

  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(a);
  ASSERT_TRUE(rt.synchronize());  // drives past t=0.5s: the join fires mid-drive
  ASSERT_EQ(rt.cluster().worker_count(), 3u);
  EXPECT_TRUE(rt.worker_alive(2));

  std::vector<std::size_t> placed;
  for (int i = 0; i < 3; ++i) {
    placed.push_back(
        rt.launch(kernel("k" + std::to_string(i), {{a, uvm::AccessMode::Read}})).worker);
  }
  ASSERT_TRUE(rt.synchronize());
  EXPECT_NE(std::find(placed.begin(), placed.end(), 2u), placed.end());
  EXPECT_GT(kernels_run_on(rt, 2), 0u);
}

// A drained worker gets no new CE bundles: once the drain finalizes, new
// work routes around it and its GPUs run nothing more.
TEST(MidDriveMembershipTest, DrainedWorkerGetsNoNewCeBundles) {
  GroutRuntime rt(small_config(PolicyKind::RoundRobin, 3));
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  const GlobalArrayId b = rt.alloc(2_MiB, "b");
  rt.host_init(a);
  rt.host_init(b);
  (void)rt.launch(kernel("wa", {{a, uvm::AccessMode::Write}}));
  ASSERT_TRUE(rt.synchronize());

  rt.drain_worker(0);
  ASSERT_TRUE(rt.synchronize());  // the migrate-out spill drains
  EXPECT_TRUE(rt.worker_drained(0));
  const std::size_t before = kernels_run_on(rt, 0);

  for (int i = 0; i < 4; ++i) {
    const std::size_t w =
        rt.launch(kernel("post" + std::to_string(i), {{b, uvm::AccessMode::Read}})).worker;
    EXPECT_NE(w, 0u);
  }
  ASSERT_TRUE(rt.synchronize());
  EXPECT_EQ(kernels_run_on(rt, 0), before);
  EXPECT_EQ(rt.metrics().assignments[0], 1u);  // only the pre-drain "wa"
}

// A worker death while CE bundles and completion acks are in flight must
// neither lose nor duplicate a CE: every ticket completes, every dispatch
// is accounted for by a launch, a reschedule or a lineage replay, and the
// runtime invariants hold afterwards.
TEST(MidDriveMembershipTest, KillWithInFlightAcksLosesNoCe) {
  GroutConfig cfg = small_config(PolicyKind::RoundRobin, 3);
  // ~0.4 s of CE work per launch is in flight when the kill fires.
  cfg.fault_plan.kills.push_back(net::KillWorkerFault{0, SimTime::from_seconds(0.3)});
  GroutRuntime rt(cfg);
  test::InvariantChecker chk(rt);
  std::vector<GlobalArrayId> arrays;
  for (int i = 0; i < 4; ++i) {
    arrays.push_back(rt.alloc(2_MiB, "a" + std::to_string(i)));
    rt.host_init(arrays.back());
  }
  // Write-only producers: the lineage-recoverable set (a kill may take a
  // sole copy with it, and replay must rebuild it exactly once).
  std::vector<CeTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(rt.launch(
        kernel("w" + std::to_string(i), {{arrays[i % 4], uvm::AccessMode::Write}}, 5e12)));
  }
  EXPECT_TRUE(rt.synchronize());
  EXPECT_FALSE(rt.worker_alive(0));
  for (const CeTicket& t : tickets) EXPECT_TRUE(t.done->completed());
  for (const GlobalArrayId id : arrays) EXPECT_TRUE(rt.host_fetch(id));
  chk.check_always();
  chk.check_quiescent();

  const core::SchedulerMetrics& m = rt.metrics();
  EXPECT_EQ(m.worker_deaths, 1u);
  EXPECT_GT(m.ces_rescheduled + m.ces_replayed, 0u);  // the kill forced re-dispatches
  EXPECT_EQ(m.ces_scheduled, tickets.size() + m.ces_rescheduled + m.ces_replayed);
  for (const auto n : m.inflight) EXPECT_EQ(n, 0u);
}

}  // namespace
}  // namespace grout
