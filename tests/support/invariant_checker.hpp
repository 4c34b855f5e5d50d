// Runtime invariants the seeded fuzz harness asserts after every step.
//
// The checks are written against GroutRuntime's public introspection
// surface only, so they hold for any interleaving of launches, faults
// (worker deaths included) and synchronization the generator produces:
//
//   * coherence:   no array ever loses its last up-to-date holder (lineage
//                  recovery restores one before control returns);
//   * budget:      at quiescent points, every worker's resident replica
//                  bytes fit the governor's budget;
//   * ordering:    the Global DAG stays acyclic (every edge respects
//                  insertion order — the DAG's acyclicity witness);
//   * placement:   a freshly launched CE's parameters are all up-to-date on
//                  the worker it was placed on (the directory is updated
//                  eagerly at dispatch);
//   * death:       a dead worker holds zero replicas — no resident bytes
//                  and no holder bit in any directory entry;
//   * tenancy:     per-tenant resident accounting never exceeds what the
//                  workers actually hold, a tenant-tagged CE only touches
//                  its own (or shared) arrays, and quotas hold whenever
//                  placement never had to overflow one;
//   * spill record: the bytes of the spilled copies sum to the governor's
//                  spilled-bytes count, and every spilled array still has
//                  the controller as an up-to-date holder.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "core/grout_runtime.hpp"

namespace grout::test {

class InvariantChecker {
 public:
  explicit InvariantChecker(core::GroutRuntime& rt) : rt_{rt} {}

  /// Declare an array part of the shared (cross-tenant) pool. Shared arrays
  /// must stay unowned forever: ownership appearing later would turn every
  /// prior cross-tenant access into a retroactive isolation violation.
  void note_shared(core::GlobalArrayId id) { shared_.push_back(id); }

  /// Invariants that hold at every observable point.
  void check_always() {
    const core::CoherenceDirectory& dir = rt_.directory();
    // Coherence: with lineage recovery on (the fuzz default), even a worker
    // death restores a holder before handle_worker_death returns.
    for (core::GlobalArrayId id = 0; id < dir.array_count(); ++id) {
      EXPECT_TRUE(dir.holders(id).any()) << "array " << dir.name_of(id) << " lost every copy";
    }
    // The Global DAG must stay acyclic.
    EXPECT_TRUE(rt_.global_dag().edges_respect_insertion_order());
    // Dead workers hold nothing.
    const core::MemoryGovernor& gov = rt_.governor();
    for (std::size_t w = 0; w < rt_.cluster().worker_count(); ++w) {
      if (rt_.worker_alive(w)) continue;
      EXPECT_EQ(gov.resident_bytes(w), 0u) << "dead worker " << w << " still holds replicas";
      for (core::GlobalArrayId id = 0; id < dir.array_count(); ++id) {
        EXPECT_FALSE(dir.holders(id).worker(w))
            << "dead worker " << w << " still a holder of " << dir.name_of(id);
      }
    }
    // Tenant accounting consistency: owned replicas are a subset of all
    // replicas, so the per-tenant resident sum can never exceed the
    // per-worker resident sum.
    Bytes owned = 0;
    for (const Bytes b : gov.resident_by_tenant()) owned += b;
    Bytes held = 0;
    for (std::size_t w = 0; w < rt_.cluster().worker_count(); ++w) {
      held += gov.resident_bytes(w);
    }
    EXPECT_LE(owned, held) << "tenant resident accounting exceeds worker residency";
    // Shared-array tenancy: pool arrays stay unowned, so any tenant's CE may
    // touch them (after_launch enforces the converse for owned arrays).
    for (const core::GlobalArrayId id : shared_) {
      EXPECT_EQ(gov.array_owner(id), kNoTenant)
          << "shared array " << dir.name_of(id) << " acquired an owner";
    }
    // Coherence bookkeeping: an invalidated replica is by definition not an
    // up-to-date holder, and the directory-traffic counters only ever grow.
    for (core::GlobalArrayId id = 0; id < dir.array_count(); ++id) {
      for (std::size_t w = 0; w < rt_.cluster().worker_count(); ++w) {
        EXPECT_FALSE(dir.holders(id).worker(w) && dir.invalidated_on_worker(id, w))
            << "worker " << w << " both holds and has invalidated " << dir.name_of(id);
      }
    }
    // Spill record: a spilled copy is one the controller holds, so losing
    // the controller's holder bit while the record keeps it would make the
    // refetch path skip the write-back gate; and the spilled-bytes count is
    // exactly the sum over the record.
    {
      Bytes spilled = 0;
      for (core::GlobalArrayId id = 0; id < dir.array_count(); ++id) {
        if (!gov.spilled(id)) continue;
        spilled += dir.bytes_of(id);
        EXPECT_TRUE(dir.up_to_date_on_controller(id))
            << "spilled " << dir.name_of(id) << " lost its controller holder bit";
      }
      EXPECT_EQ(spilled, rt_.metrics().spill_dram_resident)
          << "spilled-bytes accounting out of sync";
    }
    EXPECT_GE(dir.invalidations(), last_invalidations_) << "invalidation counter went backwards";
    EXPECT_GE(dir.ownership_transfers(), last_transfers_) << "transfer counter went backwards";
    EXPECT_GE(dir.coherence_refetches(), last_refetches_) << "refetch counter went backwards";
    last_invalidations_ = dir.invalidations();
    last_transfers_ = dir.ownership_transfers();
    last_refetches_ = dir.coherence_refetches();
  }

  /// A CE was just launched: every parameter must be up-to-date on the
  /// worker the policy placed it on (reads through planned movement, writes
  /// through eager ownership), and the placement must target a live worker.
  void after_launch(const core::CeTicket& ticket, const gpusim::KernelLaunchSpec& spec) {
    EXPECT_TRUE(rt_.worker_alive(ticket.worker));
    for (const uvm::ParamAccess& p : spec.params) {
      EXPECT_TRUE(rt_.directory().up_to_date_on_worker(static_cast<core::GlobalArrayId>(p.array),
                                                       ticket.worker))
          << "param " << p.array << " not up to date on worker " << ticket.worker
          << " right after placement";
      // Tenant isolation: a tenant-tagged CE may only touch its own arrays
      // and shared (unowned) ones — never another tenant's.
      if (spec.tenant != kNoTenant) {
        const TenantId owner =
            rt_.governor().array_owner(static_cast<core::GlobalArrayId>(p.array));
        EXPECT_TRUE(owner == spec.tenant || owner == kNoTenant)
            << "tenant " << spec.tenant << " CE touches array " << p.array
            << " owned by tenant " << owner;
      }
    }
    check_always();
  }

  /// Budget invariant; only exact once in-flight pins have lapsed, so the
  /// generator calls it after synchronize() rather than mid-burst.
  void check_quiescent() {
    const core::MemoryGovernor& gov = rt_.governor();
    if (gov.bounded()) {
      for (std::size_t w = 0; w < rt_.cluster().worker_count(); ++w) {
        EXPECT_LE(gov.resident_bytes(w), gov.budget())
            << "worker " << w << " over budget at a quiescent point";
      }
    }
    // Tenant quotas hold exactly when placement never had to overflow one
    // (an overflow falls back to a live worker by design and is counted).
    if (rt_.metrics().quota_overflows == 0) {
      const std::vector<Bytes>& quotas = gov.quota_by_tenant();
      for (std::size_t t = 0; t < quotas.size(); ++t) {
        if (quotas[t] == 0) continue;
        EXPECT_LE(gov.tenant_resident(static_cast<TenantId>(t)), quotas[t])
            << "tenant " << t << " over quota at a quiescent point";
      }
    }
  }

 private:
  core::GroutRuntime& rt_;
  std::vector<core::GlobalArrayId> shared_;
  std::uint64_t last_invalidations_{0};
  std::uint64_t last_transfers_{0};
  std::uint64_t last_refetches_{0};
};

}  // namespace grout::test
