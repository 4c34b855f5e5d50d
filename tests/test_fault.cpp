// Fault-tolerance layer: fault-plan parsing, the droppable control lane
// (drop -> timeout -> exponential-backoff retry), worker-death recovery via
// DAG lineage replay, and the degraded-link handling in the data movers.
#include <gtest/gtest.h>

#include <optional>

#include "sim/simulator.hpp"
#include "core/grout_runtime.hpp"
#include "net/fault.hpp"
#include "tests/support/invariant_checker.hpp"

namespace grout {
namespace {

using core::CeTicket;
using core::GlobalArrayId;
using core::GroutConfig;
using core::GroutRuntime;
using core::PolicyKind;

// ---------------------------------------------------------------------------
// FaultPlan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesEveryDirective) {
  const net::FaultPlan plan =
      net::FaultPlan::parse("kill:1@2.5, drop:3; droprate:0.25@42, delay:100, degrade:0-2@1=0");
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_EQ(plan.kills[0].worker, 1u);
  EXPECT_EQ(plan.kills[0].at, SimTime::from_seconds(2.5));
  EXPECT_EQ(plan.drop_next_controls, 3u);
  EXPECT_DOUBLE_EQ(plan.control_drop_rate, 0.25);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_EQ(plan.control_delay, SimTime::from_us(100.0));
  ASSERT_EQ(plan.degrades.size(), 1u);
  EXPECT_EQ(plan.degrades[0].a, 0);
  EXPECT_EQ(plan.degrades[0].b, 2);
  EXPECT_EQ(plan.degrades[0].at, SimTime::from_seconds(1.0));
  EXPECT_DOUBLE_EQ(plan.degrades[0].bw.bps(), 0.0);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(net::FaultPlan{}.empty());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(net::FaultPlan::parse("kill:1"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("kill:x@1"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("degrade:0-1@1"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("droprate:1.5"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("bogus:1@2"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("drop"), InvalidArgument);
  // Numbers span their whole field: no unit suffix, no trailing text.
  EXPECT_THROW(net::FaultPlan::parse("delay:5ms"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("kill:0@0.5s"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("droprate:0.1x"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("degrade:1-2@0.1=100mbit"), InvalidArgument);
  // Times are finite and >= 0.
  EXPECT_THROW(net::FaultPlan::parse("kill:0@-1"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("kill:0@nan"), InvalidArgument);
  EXPECT_THROW(net::FaultPlan::parse("kill:0@inf"), InvalidArgument);
  // A self-link would silently do nothing.
  EXPECT_THROW(net::FaultPlan::parse("degrade:1-1@0.1=100"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Droppable control lane (fabric level)
// ---------------------------------------------------------------------------

struct ControlLaneFixture : ::testing::Test {
  ControlLaneFixture() {
    std::vector<net::NicSpec> nics;
    nics.push_back(net::NicSpec{"ctl", Bandwidth::mbit_per_sec(8000.0), SimTime::from_us(50.0)});
    nics.push_back(net::NicSpec{"w0", Bandwidth::mbit_per_sec(4000.0), SimTime::from_us(50.0)});
    fabric = std::make_unique<net::NetworkFabric>(sim, std::move(nics));
  }

  /// Send one droppable command from node 0 to node 1; `delivered` takes
  /// the sim time at which it lands.
  void send_command() {
    fabric->send_command(0, 1, 256, [this] { delivered = sim.now(); }, /*reliable=*/false);
  }

  sim::Simulator sim;
  std::unique_ptr<net::NetworkFabric> fabric;
  std::optional<SimTime> delivered;
};

TEST_F(ControlLaneFixture, DroppedSendsRetryWithBackoffUntilDelivered) {
  int drops = 2;
  fabric->set_control_fault_hook([&](net::NodeId, net::NodeId) { return drops-- > 0; });
  send_command();
  sim.run();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(fabric->control_sends(), 1u);
  EXPECT_EQ(fabric->control_drops(), 2u);
  EXPECT_EQ(fabric->control_timeouts(), 2u);
  EXPECT_EQ(fabric->control_retries(), 2u);
  // Two timeouts with exponential backoff: 200 us + 400 us before the
  // delivered attempt even starts.
  EXPECT_GE(*delivered, SimTime::from_us(600.0));
}

TEST_F(ControlLaneFixture, SendToDeadNodeIsAbandoned) {
  fabric->kill_node(1);
  send_command();
  sim.run();  // the queue must drain: no retry loop against a dead node
  EXPECT_FALSE(delivered.has_value());
  EXPECT_EQ(fabric->control_abandoned(), 1u);
  EXPECT_FALSE(fabric->node_alive(1));
  EXPECT_TRUE(fabric->node_alive(0));
}

TEST_F(ControlLaneFixture, MidRetryDeathBreaksTheRetryLoop) {
  // Every attempt is dropped; without the liveness check the retry chain
  // would re-arm forever and sim.run() would never return.
  fabric->set_control_fault_hook([](net::NodeId, net::NodeId) { return true; });
  send_command();
  sim.schedule_at(SimTime::from_ms(5.0), [&] { fabric->kill_node(1); });
  sim.run();
  EXPECT_FALSE(delivered.has_value());
  EXPECT_GE(fabric->control_retries(), 1u);
  EXPECT_EQ(fabric->control_abandoned(), 1u);
}

TEST_F(ControlLaneFixture, ZeroBandwidthLinkCountsAsDropUntilRestored) {
  fabric->set_link_override(0, 1, Bandwidth{});  // link down
  send_command();
  sim.schedule_at(SimTime::from_ms(2.0),
                  [&] { fabric->set_link_override(0, 1, Bandwidth::mbit_per_sec(1000.0)); });
  sim.run();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_GE(fabric->control_drops(), 1u);
  EXPECT_GE(*delivered, SimTime::from_ms(2.0));
}

TEST_F(ControlLaneFixture, InjectorAppliesDelayAndDegrade) {
  net::FaultPlan plan = net::FaultPlan::parse("delay:100,degrade:0-1@0.001=100");
  net::FaultInjector injector(sim, *fabric, std::move(plan));
  injector.arm(nullptr);
  send_command();
  sim.run();
  ASSERT_TRUE(delivered.has_value());
  // latency (50 us) + injected delay (100 us) + serialization.
  EXPECT_GE(*delivered, SimTime::from_us(150.0));
  EXPECT_EQ(injector.injected_degrades(), 1u);
  EXPECT_DOUBLE_EQ(fabric->bandwidth(0, 1).bps(), Bandwidth::mbit_per_sec(100.0).bps());
}

TEST_F(ControlLaneFixture, BulkTransferOnDownedLinkFailsLoudly) {
  fabric->set_link_override(0, 1, Bandwidth{});
  EXPECT_THROW((void)fabric->transfer(0, 1, 1_MiB, "doomed"), InternalError);
}

// ---------------------------------------------------------------------------
// Worker-death recovery (runtime level)
// ---------------------------------------------------------------------------

GroutConfig fault_config(PolicyKind policy = PolicyKind::RoundRobin,
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

TEST(FaultRecoveryTest, KilledSoleHolderIsRebuiltFromLineage) {
  // The acceptance scenario: worker 0 computes the only up-to-date copy of
  // `a`, then dies; the control lane additionally loses the first two
  // messages. The run must still complete, with `a` rebuilt on a survivor
  // by replaying its producer CE from the Global DAG.
  GroutConfig cfg = fault_config();
  cfg.fault_plan.kills.push_back(net::KillWorkerFault{0, SimTime::from_seconds(1.0)});
  cfg.fault_plan.drop_next_controls = 2;
  GroutRuntime rt(cfg);

  const GlobalArrayId in = rt.alloc(2_MiB, "in");
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(in);
  const CeTicket writer = rt.launch(
      kernel("writer", {{in, uvm::AccessMode::Read}, {a, uvm::AccessMode::Write}}));
  EXPECT_EQ(writer.worker, 0u);  // round-robin: first CE -> worker 0

  ASSERT_TRUE(rt.synchronize());
  // The writer finished before the kill; its output's only copy died with
  // worker 0 and was replayed onto the survivor.
  EXPECT_TRUE(writer.done->completed());
  EXPECT_FALSE(rt.worker_alive(0));
  EXPECT_FALSE(rt.directory().up_to_date_on_worker(a, 0));
  EXPECT_TRUE(rt.directory().up_to_date_on_worker(a, 1));

  ASSERT_TRUE(rt.host_fetch(a));
  EXPECT_TRUE(rt.directory().up_to_date_on_controller(a));

  const auto& m = rt.metrics();
  EXPECT_EQ(m.worker_deaths, 1u);
  EXPECT_GE(m.arrays_recovered, 1u);
  EXPECT_GE(m.ces_replayed, 1u);
  // The two deterministic drops forced visible retry/timeout activity.
  EXPECT_EQ(m.control_drops, 2u);
  EXPECT_EQ(m.control_timeouts, 2u);
  EXPECT_EQ(m.control_retries, 2u);
}

TEST(FaultRecoveryTest, UnknownKillOrDegradeTargetIsRejectedAtConstruction) {
  // Three fabric nodes: the controller (0) and two workers (1, 2).
  GroutConfig kill = fault_config();
  kill.fault_plan = net::FaultPlan::parse("kill:2@1");
  EXPECT_THROW({ GroutRuntime rt(kill); }, InvalidArgument);
  GroutConfig degrade = fault_config();
  degrade.fault_plan = net::FaultPlan::parse("degrade:1-9@0.1=100");
  EXPECT_THROW({ GroutRuntime rt(degrade); }, InvalidArgument);
  degrade.fault_plan = net::FaultPlan::parse("degrade:0-2@0.1=100");
  EXPECT_NO_THROW({ GroutRuntime rt(degrade); });
}

TEST(FaultRecoveryTest, WithoutRecoveryTheCopyIsLost) {
  // Same scenario with lineage recovery disabled: the kill leaves `a` with
  // zero up-to-date copies and a later fetch fails loudly.
  GroutConfig cfg = fault_config();
  cfg.fault_plan.kills.push_back(net::KillWorkerFault{0, SimTime::from_seconds(1.0)});
  cfg.lineage_recovery = false;
  GroutRuntime rt(cfg);

  const GlobalArrayId in = rt.alloc(2_MiB, "in");
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  rt.host_init(in);
  rt.launch(kernel("writer", {{in, uvm::AccessMode::Read}, {a, uvm::AccessMode::Write}}));
  ASSERT_TRUE(rt.synchronize());

  EXPECT_FALSE(rt.directory().holders(a).any());  // the copy is simply gone
  EXPECT_THROW((void)rt.host_fetch(a), InternalError);
}

TEST(FaultRecoveryTest, InFlightCeIsRescheduledOntoSurvivor) {
  // A long-running CE (~80 s simulated) is resident on worker 0 when the
  // worker dies at t=1 s: it must be re-dispatched to worker 1, and the
  // ticket's completion event must still fire exactly once.
  GroutConfig cfg = fault_config();
  cfg.fault_plan.kills.push_back(net::KillWorkerFault{0, SimTime::from_seconds(1.0)});
  GroutRuntime rt(cfg);

  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  const CeTicket slow = rt.launch(kernel("slow", {{a, uvm::AccessMode::Write}}, 1e15));
  EXPECT_EQ(slow.worker, 0u);

  ASSERT_TRUE(rt.synchronize());
  EXPECT_TRUE(slow.done->completed());
  EXPECT_GT(slow.done->when(), SimTime::from_seconds(1.0));
  EXPECT_TRUE(rt.directory().up_to_date_on_worker(a, 1));
  const auto& m = rt.metrics();
  EXPECT_EQ(m.worker_deaths, 1u);
  EXPECT_EQ(m.ces_rescheduled, 1u);
  EXPECT_EQ(m.ces_replayed, 0u);  // nothing completed was lost
  // Both dispatches were counted, but only the survivor still has load.
  EXPECT_EQ(m.assignments[0] + m.assignments[1], 2u);
  EXPECT_EQ(m.inflight[0] + m.inflight[1], 0u);
}

TEST(FaultRecoveryTest, DeadWorkerIsSkippedByPlacement) {
  GroutConfig cfg = fault_config();
  cfg.fault_plan.kills.push_back(net::KillWorkerFault{0, SimTime::from_ms(1.0)});
  GroutRuntime rt(cfg);
  const GlobalArrayId a = rt.alloc(1_MiB, "a");
  rt.host_init(a);
  ASSERT_TRUE(rt.synchronize());  // run past the kill
  for (int i = 0; i < 4; ++i) {
    const CeTicket t = rt.launch(kernel("k", {{a, uvm::AccessMode::Read}}));
    EXPECT_EQ(t.worker, 1u);  // round-robin skips the dead worker
  }
  ASSERT_TRUE(rt.synchronize());
  EXPECT_EQ(rt.metrics().assignments[0], 0u);
}

// A worker death while CE bundles and completion acks are in flight must
// neither lose nor duplicate a CE: every ticket completes, every dispatch
// is accounted for by a launch, a reschedule or a lineage replay, and the
// runtime invariants hold afterwards.
TEST(MidDriveMembershipTest, KillWithInFlightAcksLosesNoCe) {
  GroutConfig cfg = fault_config(PolicyKind::RoundRobin, 3);
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

// ---------------------------------------------------------------------------
// Degraded links in the data movers
// ---------------------------------------------------------------------------

TEST(DegradedLinkTest, HostFetchRefusesUnreachableSoleSource) {
  GroutRuntime rt(fault_config());
  const GlobalArrayId in = rt.alloc(1_MiB, "in");
  const GlobalArrayId a = rt.alloc(1_MiB, "a");
  rt.host_init(in);
  rt.launch(kernel("writer", {{in, uvm::AccessMode::Read}, {a, uvm::AccessMode::Write}}));
  ASSERT_TRUE(rt.synchronize());
  // Sole holder is worker 0; cut its route to the controller.
  rt.cluster().fabric().set_link_override(cluster::Cluster::controller_id(),
                                          cluster::Cluster::worker_fabric_id(0), Bandwidth{});
  EXPECT_THROW((void)rt.host_fetch(a), InternalError);
}

TEST(DegradedLinkTest, HostFetchPicksTheReachableHolder) {
  GroutRuntime rt(fault_config());
  const GlobalArrayId in = rt.alloc(1_MiB, "in");
  const GlobalArrayId a = rt.alloc(1_MiB, "a");
  rt.host_init(in);
  rt.launch(kernel("writer", {{in, uvm::AccessMode::Read}, {a, uvm::AccessMode::Write}}));
  rt.launch(kernel("reader", {{a, uvm::AccessMode::Read}}));  // copies a to worker 1
  ASSERT_TRUE(rt.synchronize());
  ASSERT_TRUE(rt.directory().up_to_date_on_worker(a, 1));
  // Worker 0's controller route is down, worker 1's is fine: the fetch must
  // route around the dead link instead of defaulting to the first source.
  rt.cluster().fabric().set_link_override(cluster::Cluster::controller_id(),
                                          cluster::Cluster::worker_fabric_id(0), Bandwidth{});
  EXPECT_TRUE(rt.host_fetch(a));
  EXPECT_TRUE(rt.directory().up_to_date_on_controller(a));
}

TEST(DegradedLinkTest, PlanMovementFailsLoudlyWhenAllRoutesAreDown) {
  GroutRuntime rt(fault_config());
  const GlobalArrayId a = rt.alloc(1_MiB, "a");
  rt.host_init(a);
  // Controller holds the only copy, but its links to both workers are down.
  rt.cluster().fabric().set_link_override(cluster::Cluster::controller_id(),
                                          cluster::Cluster::worker_fabric_id(0), Bandwidth{});
  rt.cluster().fabric().set_link_override(cluster::Cluster::controller_id(),
                                          cluster::Cluster::worker_fabric_id(1), Bandwidth{});
  EXPECT_THROW((void)rt.launch(kernel("k", {{a, uvm::AccessMode::Read}})), InternalError);
}

// ---------------------------------------------------------------------------
// host_fetch run-cap
// ---------------------------------------------------------------------------

TEST(HostFetchCapTest, ReportsOutOfTimeInsteadOfSpinning) {
  GroutConfig cfg = fault_config();
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
}  // namespace grout
