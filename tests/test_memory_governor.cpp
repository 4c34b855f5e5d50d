// Cluster memory governor: bounded worker replica caches, the
// directory-coordinated eviction engine, and the replica-removal paths of
// the coherence directory itself.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "core/grout_runtime.hpp"
#include "core/memory_governor.hpp"

namespace grout::core {
namespace {

// ---------------------------------------------------------------------------
// CoherenceDirectory replica removal
// ---------------------------------------------------------------------------

TEST(DirectoryRemoval, NonSoleRemovalKeepsInvariant) {
  CoherenceDirectory dir(2);
  const GlobalArrayId a = dir.register_array(1_MiB, "a");
  dir.add_worker_copy(a, 0);
  dir.add_worker_copy(a, 1);
  ASSERT_EQ(dir.holders(a).holder_count(), 3u);  // controller + w0 + w1

  dir.remove_worker_copy(a, 0);
  EXPECT_FALSE(dir.up_to_date_on_worker(a, 0));
  EXPECT_TRUE(dir.up_to_date_on_worker(a, 1));
  EXPECT_TRUE(dir.up_to_date_on_controller(a));
  EXPECT_EQ(dir.holders(a).holder_count(), 2u);
}

TEST(DirectoryRemoval, SoleHolderRemovalRejected) {
  CoherenceDirectory dir(2);
  const GlobalArrayId a = dir.register_array(1_MiB, "a");
  dir.written_on_worker(a, 0);  // exclusive ownership: w0 is the sole holder
  ASSERT_EQ(dir.holders(a).holder_count(), 1u);
  EXPECT_THROW(dir.remove_worker_copy(a, 0), InvalidArgument);
  // The invariant survived the rejected removal.
  EXPECT_TRUE(dir.up_to_date_on_worker(a, 0));
}

TEST(DirectoryRemoval, NonHolderRemovalRejected) {
  CoherenceDirectory dir(2);
  const GlobalArrayId a = dir.register_array(1_MiB, "a");
  EXPECT_THROW(dir.remove_worker_copy(a, 1), InvalidArgument);  // never held it
  EXPECT_THROW(dir.remove_worker_copy(a, 7), InvalidArgument);  // out of range
}

TEST(DirectoryRemoval, InterleavedAddRemoveKeepsHolderCountsConsistent) {
  constexpr std::size_t kWorkers = 4;
  CoherenceDirectory dir(kWorkers);
  const GlobalArrayId a = dir.register_array(1_MiB, "a");
  std::set<int> model{-1};  // -1 = controller

  // Deterministic interleaving of adds and removals; the model set mirrors
  // every accepted mutation and the directory must agree after each step.
  const int steps[][2] = {{0, +1}, {1, +1}, {0, -1}, {2, +1}, {1, -1},
                          {3, +1}, {2, -1}, {0, +1}, {3, -1}, {0, -1}};
  for (const auto& [w, op] : steps) {
    if (op > 0) {
      dir.add_worker_copy(a, static_cast<std::size_t>(w));
      model.insert(w);
    } else if (model.contains(w) && model.size() > 1) {
      dir.remove_worker_copy(a, static_cast<std::size_t>(w));
      model.erase(w);
    } else {
      EXPECT_THROW(dir.remove_worker_copy(a, static_cast<std::size_t>(w)), InvalidArgument);
    }
    ASSERT_GE(model.size(), 1u);
    EXPECT_EQ(dir.holders(a).holder_count(), model.size());
    for (std::size_t i = 0; i < kWorkers; ++i) {
      EXPECT_EQ(dir.up_to_date_on_worker(a, i), model.contains(static_cast<int>(i)));
    }
    EXPECT_EQ(dir.up_to_date_on_controller(a), model.contains(-1));
  }
}

// ---------------------------------------------------------------------------
// Worker-side allocation lifecycle
// ---------------------------------------------------------------------------

cluster::ClusterConfig small_cluster(std::size_t workers) {
  cluster::ClusterConfig cfg;
  cfg.workers = workers;
  cfg.worker_node.gpu_count = 2;
  cfg.worker_node.device.memory = 8_MiB;
  cfg.worker_node.tuning.page_size = 1_MiB;
  return cfg;
}

TEST(WorkerAllocations, ReEnsureWithDifferentSizeRejected) {
  cluster::Cluster c(small_cluster(1));
  cluster::Worker& w = c.worker(0);
  w.ensure_array(0, 2_MiB);
  EXPECT_NO_THROW(w.ensure_array(0, 2_MiB));  // idempotent re-ensure
  EXPECT_THROW(w.ensure_array(0, 1_MiB), InvalidArgument);
}

TEST(WorkerAllocations, ReleaseFreesAndAllowsFreshEnsure) {
  cluster::Cluster c(small_cluster(1));
  cluster::Worker& w = c.worker(0);
  w.ensure_array(0, 2_MiB);
  ASSERT_EQ(w.node().uvm().live_arrays(), 1u);

  w.release_array(0);
  EXPECT_FALSE(w.has_array(0));
  EXPECT_EQ(w.node().uvm().live_arrays(), 0u);

  // A re-ensure after release is a fresh allocation, any size.
  w.ensure_array(0, 1_MiB);
  EXPECT_EQ(w.node().uvm().live_arrays(), 1u);
}

TEST(WorkerAllocations, DeferredReleaseWaitsForTheEvent) {
  cluster::Cluster c(small_cluster(1));
  cluster::Worker& w = c.worker(0);
  w.ensure_array(0, 2_MiB);

  const gpusim::EventPtr gate = gpusim::make_event();
  w.release_array(0, gate);
  EXPECT_FALSE(w.has_array(0));               // mapping drops immediately
  EXPECT_EQ(w.node().uvm().live_arrays(), 1u);  // the allocation lingers

  gate->complete(SimTime::zero());
  EXPECT_EQ(w.node().uvm().live_arrays(), 0u);
}

TEST(WorkerAllocations, ReleaseForgetsTheLocalState) {
  // A released local id is never named again: the Local DAG drops its
  // track, and a re-ensure allocates a fresh id.
  cluster::Cluster c(small_cluster(1));
  cluster::Worker& w = c.worker(0);
  const uvm::ArrayId first = w.ensure_array(0, 2_MiB);
  const gpusim::EventPtr arrival = gpusim::make_event();
  const runtime::Submission adopt = w.accept_receive(0, arrival);
  ASSERT_EQ(w.runtime().local_dag().frontier(), std::vector<dag::VertexId>{adopt.vertex});

  w.release_array(0, adopt.done);
  EXPECT_TRUE(w.runtime().local_dag().frontier().empty());
  const uvm::ArrayId second = w.ensure_array(0, 2_MiB);
  EXPECT_NE(second, first);
  EXPECT_TRUE(w.runtime().local_dag().frontier().empty());

  arrival->complete(SimTime::zero());
  c.simulator().run_until(SimTime::max());
  EXPECT_TRUE(adopt.done->completed());
  EXPECT_EQ(w.node().uvm().live_arrays(), 1u);  // only the fresh allocation
}

TEST(WorkerAllocations, DoubleFreeRejectedByUvm) {
  cluster::Cluster c(small_cluster(1));
  cluster::Worker& w = c.worker(0);
  const uvm::ArrayId local = w.ensure_array(0, 2_MiB);
  w.node().uvm().free_array(local);
  EXPECT_THROW(w.node().uvm().free_array(local), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Governor victim selection (direct construction)
// ---------------------------------------------------------------------------

struct GovernorRig {
  explicit GovernorRig(Bytes budget, std::size_t workers = 1)
      : cluster(small_cluster(workers)),
        directory(workers),
        governor(cluster, directory, metrics, budget) {}

  /// Register + ensure + account an array on worker `w`.
  GlobalArrayId add(std::size_t w, Bytes bytes, const std::string& name) {
    const GlobalArrayId id = directory.register_array(bytes, name);
    cluster.worker(w).ensure_array(id, bytes);
    governor.note_ensure(w, id);
    return id;
  }

  /// Deliver posted worker-side commands. Governor accounting updates at
  /// enforce() time on the controller, but the release itself rides a
  /// fabric command to the worker, so worker-visible
  /// state (has_array, live UVM allocations) only changes once the engine
  /// delivers it.
  void settle() { cluster.simulator().run_until(SimTime::max()); }

  cluster::Cluster cluster;
  CoherenceDirectory directory;
  SchedulerMetrics metrics;
  MemoryGovernor governor;
};

TEST(GovernorVictims, StaleReplicasGoBeforeHolders) {
  GovernorRig rig(3_MiB);
  const GlobalArrayId stale = rig.add(0, 2_MiB, "stale");
  const GlobalArrayId held = rig.add(0, 2_MiB, "held");
  // `held` is an up-to-date (non-sole) copy on w0; `stale` stays
  // controller-only, so w0's allocation of it is a dead weight.
  rig.directory.add_worker_copy(held, 0);
  ASSERT_EQ(rig.governor.resident_bytes(0), 4_MiB);

  rig.governor.enforce(0);
  rig.settle();
  EXPECT_EQ(rig.governor.resident_bytes(0), 2_MiB);
  EXPECT_FALSE(rig.cluster.worker(0).has_array(stale));
  EXPECT_TRUE(rig.cluster.worker(0).has_array(held));
  EXPECT_EQ(rig.metrics.evictions, 1u);
  EXPECT_EQ(rig.metrics.bytes_evicted, 2_MiB);
  EXPECT_EQ(rig.metrics.spills, 0u);  // stale copy: nothing to preserve
}

TEST(GovernorVictims, LruBreaksCostTies) {
  GovernorRig rig(3_MiB);
  const GlobalArrayId older = rig.add(0, 2_MiB, "older");
  // Advance virtual time so the second ensure lands later.
  rig.cluster.fabric().transfer(cluster::Cluster::controller_id(),
                                cluster::Cluster::worker_fabric_id(0), 1_MiB, "tick");
  rig.cluster.simulator().run_until(SimTime::max());
  const GlobalArrayId newer = rig.add(0, 2_MiB, "newer");
  ASSERT_LT(SimTime::zero(), rig.cluster.simulator().now());

  rig.governor.enforce(0);  // both stale, equal cost: LRU decides
  rig.settle();
  EXPECT_FALSE(rig.cluster.worker(0).has_array(older));
  EXPECT_TRUE(rig.cluster.worker(0).has_array(newer));
}

TEST(GovernorVictims, ArrayIdBreaksFullTies) {
  GovernorRig rig(3_MiB);
  const GlobalArrayId first = rig.add(0, 2_MiB, "first");
  const GlobalArrayId second = rig.add(0, 2_MiB, "second");  // same time, same cost
  rig.governor.enforce(0);
  rig.settle();
  EXPECT_FALSE(rig.cluster.worker(0).has_array(first));
  EXPECT_TRUE(rig.cluster.worker(0).has_array(second));
  (void)first;
  (void)second;
}

TEST(GovernorVictims, PinnedReplicasAreUntouchable) {
  GovernorRig rig(1_MiB);
  const GlobalArrayId a = rig.add(0, 2_MiB, "a");
  rig.governor.pin(0, a);
  rig.governor.enforce(0);  // over budget, but everything is pinned
  EXPECT_TRUE(rig.cluster.worker(0).has_array(a));
  EXPECT_EQ(rig.metrics.evictions, 0u);

  rig.governor.unpin(0, a);
  rig.governor.enforce(0);
  rig.settle();
  EXPECT_FALSE(rig.cluster.worker(0).has_array(a));
  EXPECT_EQ(rig.metrics.evictions, 1u);
}

TEST(GovernorVictims, UnpinOfAnUntrackedReplicaFailsLoudly) {
  GovernorRig rig(1_MiB, 2);
  const GlobalArrayId a = rig.add(0, 2_MiB, "a");
  EXPECT_THROW(rig.governor.unpin(1, a), InvalidArgument);  // never on worker 1
  rig.governor.enforce(0);                                   // evicts `a` from worker 0
  rig.settle();
  ASSERT_FALSE(rig.cluster.worker(0).has_array(a));
  EXPECT_THROW(rig.governor.unpin(0, a), InvalidArgument);
}

TEST(GovernorVictims, SoleHolderIsSpilledNotDropped) {
  GovernorRig rig(1_MiB);
  const GlobalArrayId a = rig.add(0, 2_MiB, "a");
  rig.directory.written_on_worker(a, 0);  // w0 is the sole up-to-date holder
  rig.governor.enforce(0);

  EXPECT_EQ(rig.metrics.evictions, 1u);
  EXPECT_EQ(rig.metrics.spills, 1u);
  EXPECT_EQ(rig.metrics.bytes_spilled, 2_MiB);
  // Eager directory handoff: the controller is a holder, the worker is not,
  // and the copy stays readable (invariant never broken).
  EXPECT_TRUE(rig.directory.up_to_date_on_controller(a));
  EXPECT_FALSE(rig.directory.up_to_date_on_worker(a, 0));
  // Consumers must order after the in-flight spill; once it lands the gate
  // is retired and the deferred UVM free has run.
  ASSERT_NE(rig.governor.controller_ready(a), nullptr);
  EXPECT_EQ(rig.cluster.worker(0).node().uvm().live_arrays(), 1u);
  rig.cluster.simulator().run_until(SimTime::max());
  EXPECT_EQ(rig.governor.controller_ready(a), nullptr);
  EXPECT_EQ(rig.cluster.worker(0).node().uvm().live_arrays(), 0u);
}

TEST(GovernorVictims, RefetchAfterEvictionIsCounted) {
  GovernorRig rig(3_MiB);
  const GlobalArrayId a = rig.add(0, 2_MiB, "a");
  rig.add(0, 2_MiB, "b");
  rig.governor.enforce(0);  // evicts `a` (id tiebreak)
  rig.settle();
  ASSERT_FALSE(rig.cluster.worker(0).has_array(a));

  rig.cluster.worker(0).ensure_array(a, 2_MiB);
  rig.governor.note_ensure(0, a);
  EXPECT_EQ(rig.metrics.refetches, 1u);
}

TEST(GovernorVictims, HighWaterTracksThePeak) {
  GovernorRig rig(3_MiB);
  rig.add(0, 2_MiB, "a");
  rig.add(0, 2_MiB, "b");
  EXPECT_EQ(rig.governor.high_water(0), 4_MiB);
  rig.governor.enforce(0);  // evicts one of the two
  rig.settle();
  EXPECT_EQ(rig.governor.resident_bytes(0), 2_MiB);
  EXPECT_EQ(rig.governor.high_water(0), 4_MiB);  // the peak is sticky
}

TEST(GovernorVictims, UnboundedBudgetNeverEvicts) {
  GovernorRig rig(0);  // 0 = unbounded
  EXPECT_FALSE(rig.governor.bounded());
  rig.add(0, 2_MiB, "a");
  rig.add(0, 2_MiB, "b");
  rig.governor.enforce(0);
  EXPECT_EQ(rig.metrics.evictions, 0u);
  EXPECT_EQ(rig.governor.resident_bytes(0), 4_MiB);
}

// ---------------------------------------------------------------------------
// Spill record: spilled sole copies held by the controller
// ---------------------------------------------------------------------------

/// Make `id` the sole up-to-date copy on `w` and evict it: a spill.
void spill_sole_copy(GovernorRig& rig, std::size_t w, GlobalArrayId id) {
  rig.directory.written_on_worker(id, w);
  rig.governor.enforce(w);
}

TEST(GovernorSpillRecord, InflightWritebackGatesConsumersAndCountsTheQueuePeak) {
  GovernorRig rig(1_MiB);
  const GlobalArrayId a = rig.add(0, 2_MiB, "a");
  const GlobalArrayId b = rig.add(0, 2_MiB, "b");
  rig.directory.written_on_worker(a, 0);
  spill_sole_copy(rig, 0, b);  // both sole copies go in one enforce

  EXPECT_TRUE(rig.governor.spilled(a));
  EXPECT_TRUE(rig.governor.spilled(b));
  EXPECT_EQ(rig.metrics.spill_dram_resident, 4_MiB);
  EXPECT_EQ(rig.metrics.writeback_queue_peak, 2u);
  EXPECT_NE(rig.governor.controller_ready(a), nullptr);
  EXPECT_NE(rig.governor.acquire_controller_copy(b), nullptr);

  rig.settle();
  // Landed: readable now, still held by the controller.
  EXPECT_EQ(rig.governor.controller_ready(a), nullptr);
  EXPECT_EQ(rig.governor.acquire_controller_copy(b), nullptr);
  EXPECT_TRUE(rig.governor.spilled(a));
  EXPECT_EQ(rig.metrics.spill_dram_resident, 4_MiB);
  EXPECT_EQ(rig.metrics.spill_dram_high_water, 4_MiB);
  EXPECT_EQ(rig.metrics.writeback_queue_peak, 2u);
}

TEST(GovernorSpillRecord, ReSpillSupersedesAndIgnoresTheStaleWriteback) {
  GovernorRig rig(1_MiB, /*workers=*/2);
  // Worker 1's uplink is slow, so its write-back lands long after worker 0's.
  rig.cluster.fabric().set_link_override(cluster::Cluster::worker_fabric_id(1),
                                         cluster::Cluster::controller_id(),
                                         Bandwidth::mbit_per_sec(1.0));
  const GlobalArrayId a = rig.add(0, 2_MiB, "a");
  spill_sole_copy(rig, 0, a);
  const gpusim::EventPtr first = rig.governor.controller_ready(a);
  ASSERT_NE(first, nullptr);

  // A fresher sole copy on worker 1 spills again while the first
  // write-back is still in flight.
  rig.cluster.worker(1).ensure_array(a, 2_MiB);
  rig.governor.note_ensure(1, a);
  spill_sole_copy(rig, 1, a);
  const gpusim::EventPtr second = rig.governor.controller_ready(a);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second, first);
  EXPECT_EQ(rig.metrics.spill_dram_resident, 2_MiB);  // counted once

  while (!first->completed()) ASSERT_TRUE(rig.cluster.simulator().step());
  // The stale landing must not mark the fresher copy readable.
  EXPECT_FALSE(second->completed());
  EXPECT_EQ(rig.governor.controller_ready(a), second);

  rig.settle();
  EXPECT_EQ(rig.governor.controller_ready(a), nullptr);
  EXPECT_EQ(rig.metrics.writeback_queue_peak, 2u);
}

TEST(GovernorSpillRecord, ReleaseFreesTheBytes) {
  GovernorRig rig(1_MiB);
  const GlobalArrayId a = rig.add(0, 2_MiB, "a");
  spill_sole_copy(rig, 0, a);
  ASSERT_EQ(rig.metrics.spill_dram_resident, 2_MiB);

  rig.governor.release_spilled(a);  // e.g. a host write superseded it
  EXPECT_FALSE(rig.governor.spilled(a));
  EXPECT_EQ(rig.metrics.spill_dram_resident, 0u);
  EXPECT_EQ(rig.governor.controller_ready(a), nullptr);
  rig.governor.release_spilled(a);  // untracked: a no-op

  rig.settle();  // the released spill's landing changes nothing
  EXPECT_FALSE(rig.governor.spilled(a));
  EXPECT_EQ(rig.metrics.spill_dram_resident, 0u);
  EXPECT_EQ(rig.metrics.spill_dram_high_water, 2_MiB);
}

TEST(GovernorSpillRecord, ConsumerWaitIsCounted) {
  GovernorRig rig(1_MiB);
  const GlobalArrayId a = rig.add(0, 2_MiB, "a");
  spill_sole_copy(rig, 0, a);
  const SimTime t0 = rig.cluster.simulator().now();
  const gpusim::EventPtr ready = rig.governor.acquire_controller_copy(a);
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(rig.metrics.spill_wait, SimTime::zero());  // counted when it lands

  rig.settle();
  ASSERT_TRUE(ready->completed());
  EXPECT_GT(ready->when(), t0);
  EXPECT_EQ(rig.metrics.spill_wait, ready->when() - t0);
  // A reader after the landing waits for nothing.
  EXPECT_EQ(rig.governor.acquire_controller_copy(a), nullptr);
  EXPECT_EQ(rig.metrics.spill_wait, ready->when() - t0);
}

// ---------------------------------------------------------------------------
// Placement admission
// ---------------------------------------------------------------------------

TEST(PlacementAdmission, OverBudgetWorkerIsSkipped) {
  CoherenceDirectory dir(2);
  const GlobalArrayId a = dir.register_array(2_MiB, "a");
  const std::vector<PlacementParam> params{{a, 2_MiB, true}};
  const std::vector<Bytes> resident{4_MiB, 0};

  PlacementQuery q;
  q.params = &params;
  q.directory = &dir;
  q.workers = 2;
  q.resident = &resident;
  q.mem_budget = 5_MiB;
  EXPECT_FALSE(placement_admissible(q, 0));  // 4 + 2 > 5
  EXPECT_TRUE(placement_admissible(q, 1));

  // Round-robin starts at w0 but prefers the admissible w1.
  RoundRobinPolicy rr;
  EXPECT_EQ(rr.assign(q), 1u);

  // A worker already holding the copy pays no incoming bytes.
  dir.add_worker_copy(a, 0);
  EXPECT_TRUE(placement_admissible(q, 0));
}

TEST(PlacementAdmission, FallsBackWhenNobodyIsAdmissible) {
  CoherenceDirectory dir(2);
  const GlobalArrayId a = dir.register_array(2_MiB, "a");
  const std::vector<PlacementParam> params{{a, 2_MiB, true}};
  const std::vector<Bytes> resident{4_MiB, 4_MiB};

  PlacementQuery q;
  q.params = &params;
  q.directory = &dir;
  q.workers = 2;
  q.resident = &resident;
  q.mem_budget = 5_MiB;
  ASSERT_FALSE(placement_admissible(q, 0));
  ASSERT_FALSE(placement_admissible(q, 1));

  // The CE must still land on a live worker; the governor evicts afterward.
  RoundRobinPolicy rr;
  const std::size_t w = rr.assign(q);
  EXPECT_LT(w, 2u);

  // Vector-step lands on its cursor's worker.
  VectorStepPolicy vs({1});
  EXPECT_EQ(vs.assign(q), 0u);

  // Unbounded budget: everyone is admissible again.
  q.mem_budget = 0;
  EXPECT_TRUE(placement_admissible(q, 0));
}

// ---------------------------------------------------------------------------
// End-to-end oversubscription scenario
// ---------------------------------------------------------------------------

GroutConfig governed_config(Bytes worker_mem, std::size_t workers = 1) {
  GroutConfig cfg;
  cfg.cluster.workers = workers;
  cfg.cluster.worker_node.gpu_count = 2;
  cfg.cluster.worker_node.device.memory = 8_MiB;
  cfg.cluster.worker_node.tuning.page_size = 1_MiB;
  cfg.policy = PolicyKind::RoundRobin;
  cfg.worker_mem = worker_mem;
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

TEST(OversubscriptionScenario, CompletesUnderBudgetViaEvictSpillRefetch) {
  // One worker with a 5 MiB replica budget and an 8 MiB working set of
  // worker-written (sole-copy) arrays: progress requires evicting, which
  // requires spilling, and coming back to an evicted array is a refetch.
  const Bytes budget = 5_MiB;
  GroutRuntime rt(governed_config(budget));
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  const GlobalArrayId b = rt.alloc(2_MiB, "b");
  const GlobalArrayId c = rt.alloc(2_MiB, "c");
  const GlobalArrayId d = rt.alloc(2_MiB, "d");

  const GlobalArrayId all[] = {a, b, c, d};
  for (const GlobalArrayId id : all) {
    rt.launch(kernel("w" + rt.directory().name_of(id), {{id, uvm::AccessMode::Write}}));
    ASSERT_TRUE(rt.synchronize());
    EXPECT_LE(rt.governor().resident_bytes(0), budget);
  }
  // Revisit the first array: it was evicted to fit the later ones.
  rt.launch(kernel("ra", {{a, uvm::AccessMode::Read}}));
  ASSERT_TRUE(rt.synchronize());
  EXPECT_LE(rt.governor().resident_bytes(0), budget);

  const SchedulerMetrics& m = rt.metrics();
  EXPECT_GT(m.evictions, 0u);
  EXPECT_GT(m.spills, 0u);  // every victim was a sole copy
  EXPECT_GT(m.refetches, 0u);
  EXPECT_GT(m.bytes_evicted, 0u);
  EXPECT_GT(m.bytes_spilled, 0u);
  EXPECT_EQ(m.worker_mem_budget, budget);
  ASSERT_EQ(m.worker_resident.size(), 1u);
  ASSERT_EQ(m.worker_resident_peak.size(), 1u);
  EXPECT_LE(m.worker_resident[0], budget);
  EXPECT_LE(m.worker_resident_peak[0], budget);
  EXPECT_GT(m.worker_resident_peak[0], 0u);

  // Nothing was lost: every array still has a holder and the controller can
  // read all of them back (spilled copies included).
  for (const GlobalArrayId id : all) {
    EXPECT_TRUE(rt.directory().holders(id).any());
    EXPECT_TRUE(rt.host_fetch(id));
  }
}

TEST(OversubscriptionScenario, BackToBackLaunchesStayCoherent) {
  // No synchronize between launches: spills, evictions and refetches
  // interleave with the CE stream, and consumers of spilled arrays must be
  // ordered after the spill transfer (controller_ready gating).
  const Bytes budget = 5_MiB;
  GroutRuntime rt(governed_config(budget));
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  const GlobalArrayId b = rt.alloc(2_MiB, "b");
  const GlobalArrayId c = rt.alloc(2_MiB, "c");

  rt.launch(kernel("wa", {{a, uvm::AccessMode::Write}}));
  rt.launch(kernel("wb", {{b, uvm::AccessMode::Write}}));
  rt.launch(kernel("wc", {{c, uvm::AccessMode::Write}}));
  rt.launch(kernel("ra", {{a, uvm::AccessMode::Read}}));
  rt.launch(kernel("rb", {{b, uvm::AccessMode::Read}}));
  ASSERT_TRUE(rt.synchronize());

  EXPECT_LE(rt.governor().resident_bytes(0), budget);
  for (const GlobalArrayId id : {a, b, c}) {
    EXPECT_TRUE(rt.directory().holders(id).any());
    EXPECT_TRUE(rt.host_fetch(id));
  }
}

TEST(OversubscriptionScenario, EvictionSpansAreTraced) {
  GroutConfig cfg = governed_config(5_MiB);
  cfg.cluster.trace = true;
  GroutRuntime rt(cfg);
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  const GlobalArrayId b = rt.alloc(2_MiB, "b");
  const GlobalArrayId c = rt.alloc(2_MiB, "c");
  for (const GlobalArrayId id : {a, b, c}) {
    rt.launch(kernel("w" + rt.directory().name_of(id), {{id, uvm::AccessMode::Write}}));
    ASSERT_TRUE(rt.synchronize());
  }

  bool saw_evict = false;
  bool saw_spill = false;
  for (const sim::TraceSpan& span : rt.cluster().tracer().spans()) {
    if (span.category != sim::TraceCategory::Eviction) continue;
    EXPECT_EQ(span.location, "worker0");
    if (span.name.rfind("evict:", 0) == 0) saw_evict = true;
    if (span.name.rfind("spill:", 0) == 0) saw_spill = true;
  }
  EXPECT_TRUE(saw_evict);
  EXPECT_TRUE(saw_spill);
}

TEST(OversubscriptionScenario, DefaultBudgetComesFromNodeCapacity) {
  GroutConfig cfg = governed_config(0);
  cfg.worker_mem.reset();  // derive from the node: 2 GPUs x 8 MiB x 8
  GroutRuntime rt(cfg);
  EXPECT_EQ(rt.governor().budget(), 128_MiB);

  GroutConfig unbounded = governed_config(0);  // explicit 0 = unbounded
  GroutRuntime rt2(unbounded);
  EXPECT_FALSE(rt2.governor().bounded());
}

TEST(OversubscriptionScenario, FetchUnpinReenforcesTheBudget) {
  // host_fetch pins its source replica. A CE launched from an engine
  // callback while `a` is being fetched from worker 0 is placed there too:
  // the pin leaves make_room nothing to evict, so worker 0 goes over
  // budget. Only the enforce after the fetch's unpin restores the budget
  // before that CE completes.
  const Bytes budget = 3_MiB;
  GroutRuntime rt(governed_config(budget));
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  const GlobalArrayId d = rt.alloc(2_MiB, "d");
  const CeTicket wa = rt.launch(kernel("wa", {{a, uvm::AccessMode::Write}}));
  ASSERT_EQ(wa.worker, 0u);
  std::optional<CeTicket> wd;
  bool over_budget = false;
  rt.cluster().simulator().schedule_at(SimTime::from_ms(1.0), [&] {
    wd = rt.launch(kernel("wd", {{d, uvm::AccessMode::Write}}, 1e13));
    over_budget = rt.governor().resident_bytes(0) > budget;
  });

  EXPECT_TRUE(rt.host_fetch(a));
  ASSERT_TRUE(wd.has_value());  // dispatched inside the fetch's event loop
  ASSERT_TRUE(over_budget);     // the fetch pin blocked make_room
  ASSERT_FALSE(wd->done->completed());  // its completion has not enforced yet
  EXPECT_LE(rt.governor().resident_bytes(0), budget);

  ASSERT_TRUE(rt.synchronize());
  EXPECT_LE(rt.governor().resident_bytes(0), budget);
  EXPECT_TRUE(rt.host_fetch(d));
}

}  // namespace
}  // namespace grout::core
