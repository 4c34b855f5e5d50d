// Controller-side scheduler metrics.
//
// Scheduling-decision latencies are *real wall-clock nanoseconds* of the
// actual scheduler code path (the quantity Figure 9 reports); everything
// else is simulated-world accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace grout::core {

struct SchedulerMetrics {
  /// Wall-clock nanoseconds per node-level scheduling decision.
  SampleSet decision_ns;
  /// CE placements per worker (cumulative, never decremented).
  std::vector<std::uint64_t> assignments;
  /// CEs dispatched but not yet completed, per worker. This — not the
  /// cumulative `assignments` — is what load-aware policies consult.
  std::vector<std::uint64_t> inflight;
  /// Inbound transfers issued by the data-movement planner.
  std::uint64_t controller_sends{0};
  std::uint64_t p2p_sends{0};
  Bytes bytes_planned{0};
  std::uint64_t ces_scheduled{0};

  // Fault-tolerance accounting (mirrors of the fabric's control-lane
  // counters plus runtime-level recovery events).
  std::uint64_t control_retries{0};
  std::uint64_t control_timeouts{0};
  std::uint64_t control_drops{0};
  std::uint64_t worker_deaths{0};
  std::uint64_t ces_replayed{0};
  std::uint64_t ces_rescheduled{0};
  std::uint64_t arrays_recovered{0};

  // Cluster memory governor (bounded worker replica caches).
  Bytes worker_mem_budget{0};  ///< per-worker budget; 0 = unbounded
  std::uint64_t evictions{0};  ///< replicas dropped under pressure
  std::uint64_t spills{0};     ///< sole copies pushed to the controller first
  std::uint64_t refetches{0};  ///< re-ensures of a previously evicted replica
  Bytes bytes_evicted{0};
  Bytes bytes_spilled{0};
  /// Current and peak replica bytes per worker (synced by
  /// GroutRuntime::metrics() from the governor's accounting).
  std::vector<Bytes> worker_resident;
  std::vector<Bytes> worker_resident_peak;

  // Spilled controller copies (written by the governor's spill record).
  Bytes spill_dram_resident{0};  ///< spilled bytes held in controller DRAM
  Bytes spill_dram_high_water{0};
  /// Peak worker->controller write-backs in flight at once.
  std::uint64_t writeback_queue_peak{0};
  /// Simulated time consumers spent ordered after a spilled copy whose
  /// write-back had not yet landed.
  SimTime spill_wait{SimTime::zero()};
  /// Always 0: eviction runs only on the dispatch path (make_room) and at
  /// CE completion (enforce), so no eviction is a stall behind a
  /// background sweep. Kept because perfbench's digest reads them.
  std::uint64_t dispatch_stall_evictions{0};
  std::uint64_t dispatch_stall_spills{0};

  /// Placements decided by a min-transfer policy's exploration fallback
  /// (round-robin over data-less nodes) rather than exploitation.
  std::uint64_t exploration_placements{0};

  // Shared-state coherence traffic (synced from the directory). Writes to a
  // read-shared array invalidate every other worker's replica; these stay
  // near zero for disjoint tenants and climb under contention serving.
  std::uint64_t invalidations{0};        ///< worker replicas dropped by writes
  std::uint64_t ownership_transfers{0};  ///< writes that moved exclusive ownership
  std::uint64_t coherence_refetches{0};  ///< re-fetches forced by invalidation
  Bytes invalidated_bytes{0};
  Bytes refetched_bytes{0};
  /// Evictions of replicas a write had already invalidated (the governor
  /// reclaiming stale copies rather than live ones).
  std::uint64_t stale_evictions{0};
  Bytes bytes_stale_evicted{0};

  // Multi-tenant serving (synced from the governor's per-tenant accounting;
  // empty outside serve runs).
  /// Cluster-wide resident replica bytes per tenant, indexed by TenantId.
  std::vector<Bytes> tenant_resident;
  /// Configured per-tenant memory quota (0 = unlimited).
  std::vector<Bytes> tenant_quota;
  /// CEs whose placement had no quota-admissible worker and fell back to a
  /// live one anyway (the quota pressure signal admission control watches).
  std::uint64_t quota_overflows{0};
};

}  // namespace grout::core
