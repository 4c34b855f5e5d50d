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
  std::vector<Bytes> worker_high_water;

  // Tiered spill store + background eviction pipeline (synced from the
  // governor's spill store).
  std::size_t spill_tiers{1};           ///< 1 = controller DRAM, 2 = + NVMe
  Bytes controller_spill_budget{0};     ///< DRAM-tier budget; 0 = unbounded
  Bytes spill_dram_resident{0};         ///< spilled bytes in controller DRAM
  Bytes spill_dram_high_water{0};
  Bytes spill_nvme_resident{0};         ///< spilled bytes demoted to NVMe
  Bytes spill_nvme_high_water{0};
  std::uint64_t demotions{0};           ///< DRAM -> NVMe write-downs
  std::uint64_t promotions{0};          ///< NVMe -> DRAM read-backs
  Bytes bytes_demoted{0};
  Bytes bytes_promoted{0};
  /// Peak worker->controller write-backs in flight at once.
  std::uint64_t writeback_queue_peak{0};
  /// Simulated time consumers spent ordered after not-yet-readable spilled
  /// data (write-backs awaited + NVMe read-backs).
  SimTime spill_wait{SimTime::zero()};
  /// Background eviction pipeline: watermark-triggered sweep rounds, the
  /// replicas they reclaimed off the dispatch path, and bytes thereof.
  std::uint64_t bg_sweeps{0};
  std::uint64_t bg_evictions{0};
  Bytes bg_bytes_evicted{0};
  /// Evictions/spills the dispatch path still had to do synchronously while
  /// background eviction was on — work the watermarks failed to absorb.
  std::uint64_t dispatch_stall_evictions{0};
  std::uint64_t dispatch_stall_spills{0};
  /// Per-tenant spilled bytes by tier, indexed by TenantId (empty outside
  /// serve runs).
  std::vector<Bytes> tenant_spill_dram;
  std::vector<Bytes> tenant_spill_nvme;

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
