// Cluster memory governor: bounded worker replica caches.
//
// Workers accumulate array replicas as CEs land on them; nothing in the
// base scheduler ever frees a copy, so a long run silently oversubscribes
// every node — the same pathology GrOUT escapes at the UVM layer,
// recreated one level up. The governor turns "replicate everywhere" into a
// bounded cache:
//
//   * per-worker resident-bytes accounting over all replicas (up-to-date
//     and stale alike — the allocation is what occupies the node);
//   * a configurable budget per worker (GroutConfig::worker_mem, default
//     node GPU capacity x headroom);
//   * an eviction engine that reclaims cold replicas under pressure.
//     Victims are picked by refetch cost — bytes x transfer time over the
//     bandwidth matrix — with LRU-by-last-CE-use as the tiebreak: evict
//     what is cheap to bring back and has not been used recently. Stale
//     replicas (the worker is no longer an up-to-date holder) cost nothing
//     to "refetch" and go first.
//
// Coherence safety: a sole up-to-date copy is never dropped. It is spilled
// to the controller first (Worker::stage_send + a fabric transfer), the
// directory gains the controller copy eagerly, and the governor's spill
// record keeps the write-back's arrival event: any consumer of that
// controller copy is ordered after it via `acquire_controller_copy`.
// Replicas pinned by in-flight CEs — or staging an outbound transfer — are
// not evictable. Freed replicas release their worker-side allocation
// through UvmSpace::free_array.
//
// Eviction is synchronous and has one path: `make_room` evicts on the CE
// dispatch path when the incoming arrays would overflow the budget, and
// `enforce` re-establishes the budget when pins lapse. Spilled copies live
// in controller host memory, which has no budget of its own.
//
// Evictions and spills are visible as TraceCategory::Eviction spans
// (location "workerN", named evict:/spill:NAME(aID,BYTESB)) and as
// SchedulerMetrics counters.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/directory.hpp"
#include "core/metrics.hpp"
#include "core/policies.hpp"
#include "gpusim/event.hpp"

namespace grout::core {

class MemoryGovernor {
 public:
  /// `budget` bytes per worker; 0 = unbounded (the pre-governor behavior).
  MemoryGovernor(cluster::Cluster& cluster, CoherenceDirectory& directory,
                 SchedulerMetrics& metrics, Bytes budget);

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  [[nodiscard]] Bytes budget() const { return budget_; }
  [[nodiscard]] bool bounded() const { return budget_ > 0; }
  [[nodiscard]] Bytes resident_bytes(std::size_t w) const;
  [[nodiscard]] Bytes high_water(std::size_t w) const;
  /// Per-worker resident replica bytes (for PlacementQuery::resident).
  [[nodiscard]] const std::vector<Bytes>& resident_by_worker() const { return resident_; }

  // -- multi-tenant accounting ----------------------------------------------

  /// Record which serving tenant owns array `id` (kNoTenant = shared /
  /// single-program work). Replicas of the array count against the owner's
  /// cluster-wide resident bytes and its quota, and other tenants' memory
  /// pressure cannot evict its up-to-date copies.
  void set_array_owner(GlobalArrayId id, TenantId tenant);
  [[nodiscard]] TenantId array_owner(GlobalArrayId id) const;

  /// Cap tenant `t`'s cluster-wide resident replica bytes (0 = unlimited).
  /// The quota is enforced at admission (placement_admissible) and by the
  /// serving frontend; the governor's accounting is what both consult.
  void set_tenant_quota(TenantId tenant, Bytes quota);
  [[nodiscard]] Bytes tenant_quota(TenantId tenant) const;
  [[nodiscard]] Bytes tenant_resident(TenantId tenant) const;
  /// Cluster-wide resident bytes per tenant, indexed by TenantId (for
  /// PlacementQuery::tenant_resident).
  [[nodiscard]] const std::vector<Bytes>& resident_by_tenant() const {
    return tenant_resident_;
  }
  [[nodiscard]] const std::vector<Bytes>& quota_by_tenant() const { return tenant_quota_; }

  // -- dispatch-time hooks ---------------------------------------------------

  /// Evict cold replicas on `w` until the CE's incoming arrays fit within
  /// budget. Best effort: pinned replicas and the CE's own arrays are
  /// untouchable, and when `tenant` is a serving tenant, so are *other*
  /// tenants' up-to-date replicas (tenant isolation: memory pressure from
  /// one tenant queues or sheds at admission instead of evicting a
  /// neighbor). Call before the lazy ensure_array allocations.
  void make_room(std::size_t w, const std::vector<PlacementParam>& params,
                 TenantId tenant = kNoTenant);

  /// A local allocation for `id` now exists on `w` (after ensure_array).
  /// Returns true when this created the accounting entry (the worker did
  /// not hold a replica) — the dispatcher's "does the worker need a copy
  /// shipped" signal, kept here so controller-side code decides from its
  /// own accounting, not from worker-side state a message has not yet
  /// reported.
  bool note_ensure(std::size_t w, GlobalArrayId id);

  /// A CE on `w` uses `id` at the current sim time (LRU bookkeeping).
  void note_use(std::size_t w, GlobalArrayId id);

  /// Pin/unpin a replica against eviction (in-flight CE params, staged
  /// sends). Unpinning an already-dropped replica is a no-op: a worker
  /// death may clear the accounting before the completion callback runs.
  void pin(std::size_t w, GlobalArrayId id);
  void unpin(std::size_t w, GlobalArrayId id);

  /// Re-establish the budget on `w` after pins lapse (CE completions).
  void enforce(std::size_t w);

  /// Worker `w` died: free every replica it held and forget its accounting.
  void drop_worker(std::size_t w);

  /// Arrival event of the in-flight write-back backing the controller's
  /// copy of `id`, or nullptr once it has landed (or nothing was spilled).
  /// A consumer reading the controller copy must be ordered after it. Pure
  /// peek; consumers use acquire_controller_copy.
  [[nodiscard]] gpusim::EventPtr controller_ready(GlobalArrayId id) const;

  /// Event a reader of the controller copy of `id` must be ordered after
  /// (nullptr = readable now). Unlike controller_ready this counts the
  /// reader's wait into SchedulerMetrics::spill_wait.
  gpusim::EventPtr acquire_controller_copy(GlobalArrayId id);

  /// The array gained an authoritative copy outside the spill record (host
  /// write, worker write, host-side gather): forget the spilled copy and
  /// free its bytes. No-op for arrays that are not spilled.
  void release_spilled(GlobalArrayId id);

  /// True while the controller holds a spilled copy of `id`.
  [[nodiscard]] bool spilled(GlobalArrayId id) const {
    return id < spilled_.size() && spilled_[id].epoch != 0;
  }

  // -- introspection ----------------------------------------------------------

  /// One replica `w` accounts for (what the victim picker ranks).
  struct Replica {
    GlobalArrayId id{0};
    int pins{0};
    Bytes bytes{0};
    SimTime last_use{SimTime::zero()};
  };
  /// Every replica `w` accounts for, in no particular order.
  [[nodiscard]] std::span<const Replica> replicas(std::size_t w) const;

  /// The replica `make_room`/`enforce` would evict from `w` next (nullopt
  /// when nothing is evictable): the cheapest to refetch — 0 when stale,
  /// else bytes x bytes over the best live source's bandwidth, where a sole
  /// copy's source is the controller uplink — then least recently used,
  /// then lowest id. Pinned replicas and `keep`'s arrays are skipped; so is
  /// a sole copy whose uplink is down (it could not be spilled) and, when
  /// `requester` is a serving tenant, another tenant's up-to-date copy
  /// (stale ones are fair game: the worker would refetch them anyway).
  [[nodiscard]] std::optional<GlobalArrayId> next_victim(
      std::size_t w, std::span<const PlacementParam> keep = {},
      TenantId requester = kNoTenant) const;

 private:
  /// Per-worker replica accounting: the replicas in one contiguous table,
  /// so the victim scan walks memory in order, and a dense id -> row index.
  struct WorkerReplicas {
    std::vector<Replica> rows;
    /// Row of each array id; kNoRow past the end or when not resident.
    std::vector<std::uint32_t> row_of;
    /// Arrays evicted here at least once: a later re-ensure is a refetch
    /// (the cost the victim picker trades against).
    std::vector<bool> evicted_once;

    [[nodiscard]] Replica* find(GlobalArrayId id) {
      return id < row_of.size() && row_of[id] != kNoRow ? &rows[row_of[id]] : nullptr;
    }
  };
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};

  /// An evictable replica with its rank key.
  struct Victim {
    GlobalArrayId id;
    bool sole;
    double cost;
    SimTime last_use;
  };
  /// Write into victims_ every replica of `w` next_victim may pick, ranked.
  void rank_victims(std::size_t w, std::span<const PlacementParam> keep,
                    TenantId requester) const;
  /// Index of the best-ranked entry of victims_ (which must be non-empty).
  [[nodiscard]] std::size_t best_victim() const;
  /// Evict from `w` in victim order while `more()` holds and something is
  /// evictable. One scan ranks them all: evicting a replica changes only
  /// its own array's holders, so the others keep their rank and each
  /// further pick is the next one in that order.
  template <typename More>
  void evict_while(std::size_t w, std::span<const PlacementParam> keep, TenantId requester,
                   More&& more);
  void evict(std::size_t w, GlobalArrayId id, bool sole_holder);
  /// Adjust the owning tenant's cluster-wide resident accounting.
  void credit_tenant(GlobalArrayId id, Bytes bytes);
  void debit_tenant(GlobalArrayId id, Bytes bytes);
  /// Post "release your replica of `id`" to worker `w` via the reliable
  /// command lane (ordered behind earlier commands, +edge
  /// latency). The governor's accounting is updated now; the worker-side
  /// UVM free happens at delivery.
  void post_worker_release(std::size_t w, GlobalArrayId id);
  /// Spill `w`'s sole up-to-date copy of `id` to the controller: a reliable
  /// command makes the worker stage the copy to host memory (and free the
  /// local allocation once staged), the staging completion acks back to the
  /// controller one fabric edge later, and the controller then
  /// starts the write-back transfer. The spill record keeps the proxy event
  /// that completes when the copy lands.
  void spill_to_controller(std::size_t w, GlobalArrayId id, Bytes bytes);
  /// Record a spill of `id` whose write-back lands when `landed` fires. A
  /// fresh spill of a spilled array supersedes the old one.
  void admit_spill(GlobalArrayId id, Bytes bytes, const gpusim::EventPtr& landed);

  cluster::Cluster& cluster_;
  CoherenceDirectory& directory_;
  SchedulerMetrics& metrics_;
  Bytes budget_;
  std::vector<Bytes> resident_;
  std::vector<Bytes> high_water_;
  std::vector<WorkerReplicas> replicas_;
  /// Scratch for rank_victims (reused, never shrinks).
  mutable std::vector<Victim> victims_;
  /// Owning tenant per array id (kNoTenant = shared); grown lazily.
  std::vector<TenantId> array_owner_;
  /// Cluster-wide resident replica bytes and quota per tenant.
  std::vector<Bytes> tenant_resident_;
  std::vector<Bytes> tenant_quota_;

  /// One spilled controller copy. epoch 0 = not spilled; a release or a
  /// superseding spill changes it, so a stale write-back callback finds a
  /// different epoch and does nothing.
  struct SpillEntry {
    Bytes bytes{0};
    /// The write-back still in flight; nullptr once it has landed.
    gpusim::EventPtr ready;
    std::uint64_t epoch{0};
  };
  /// Spill record per array id; grown lazily.
  std::vector<SpillEntry> spilled_;
  std::uint64_t spill_epochs_{0};
  /// Write-backs in flight (their peak is SchedulerMetrics::writeback_queue_peak).
  std::uint64_t writebacks_inflight_{0};
};

}  // namespace grout::core
