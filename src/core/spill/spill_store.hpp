// Tiered spill store: where evicted sole copies physically live.
//
// The coherence directory says *who* holds an up-to-date copy; for copies
// spilled to the controller, the spill store says *where* that copy
// physically is — still in flight from the worker, resident in controller
// DRAM, being written down to the NVMe tier, resident on NVMe, or being
// read back. Consumers never look at tiers directly: `acquire()` returns
// the event they must be ordered after (and transparently starts the NVMe
// read-back when the copy was demoted), `nullptr` meaning readable now.
//
// The DRAM tier is watermark-managed: when spilled bytes climb past
// `demote_high x controller_mem`, a background sweep demotes the
// cheapest-to-restore, least-recently-used entries to NVMe until occupancy
// falls to `demote_low x controller_mem`. Tier accounting moves at
// operation *submission* (not completion) so per-tier occupancy is a
// deterministic function of the decision sequence and the DRAM budget
// bounds what the sweep has agreed to keep, not what the device has
// happened to absorb yet.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/spill/nvme_model.hpp"
#include "gpusim/event.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace grout::core {
using GlobalArrayId = std::uint32_t;
}  // namespace grout::core

namespace grout::core::spill {

/// Physical tier a spilled controller copy occupies.
enum class SpillTier : std::uint8_t { ControllerDram, Nvme };

const char* to_string(SpillTier tier);

/// Configuration for the tiered spill store *and* the governor's background
/// eviction pipeline (the worker-side watermarks live here too so one
/// struct travels from the CLI to every layer).
struct SpillConfig {
  /// 1 = controller DRAM only (the flat pre-tier behaviour); 2 = + NVMe.
  std::size_t tiers{1};
  /// Spilled-bytes budget in controller DRAM; 0 = unbounded. Required
  /// non-zero when tiers == 2 (the watermarks need a denominator).
  Bytes controller_mem{0};
  /// DRAM-tier occupancy fraction that wakes the demotion sweep, and the
  /// fraction it demotes down to.
  double demote_high{0.85};
  double demote_low{0.70};
  /// Worker-budget occupancy fraction that wakes the governor's background
  /// eviction sweep, and the fraction it evicts down to. worker_high == 1.0
  /// disables background eviction (the synchronous pre-pipeline behaviour).
  double worker_high{1.0};
  double worker_low{0.9};
  /// Max bytes one background sweep round reclaims before yielding the
  /// event loop (it re-arms itself while pressure persists).
  Bytes sweep_batch{64_MiB};
  NvmeSpec nvme{};

  /// True when the governor should evict in the background.
  [[nodiscard]] bool background() const { return worker_high < 1.0; }

  /// Throws InvalidArgument on inconsistent knobs (bad watermark ordering,
  /// NVMe tier without a DRAM budget, non-finite fractions, ...).
  void validate() const;
};

/// Cumulative spill-store accounting, surfaced through SchedulerMetrics.
struct SpillStats {
  Bytes dram_resident{0};
  Bytes dram_high_water{0};
  Bytes nvme_resident{0};
  Bytes nvme_high_water{0};
  std::uint64_t demotions{0};
  std::uint64_t promotions{0};
  Bytes bytes_demoted{0};
  Bytes bytes_promoted{0};
  std::uint64_t demote_sweeps{0};
  /// Worker->controller write-backs still in flight, and the peak of that
  /// count (the write-back queue depth the run actually reached).
  std::uint64_t writeback_inflight{0};
  std::uint64_t writeback_queue_peak{0};
  /// Simulated time consumers spent ordered after spilled data that was not
  /// yet readable (in-flight write-backs awaited + NVMe read-backs).
  SimTime spill_wait{SimTime::zero()};
};

/// Interface the memory governor programs against.
class SpillStore {
 public:
  virtual ~SpillStore() = default;

  /// A sole up-to-date copy of `id` (`bytes` long) was evicted off a worker
  /// and is in flight to the controller; `landed` fires when it arrives.
  /// Re-admitting a tracked id supersedes the previous spill.
  virtual void admit(GlobalArrayId id, Bytes bytes, gpusim::EventPtr landed) = 0;

  /// Event a reader of the controller copy must be ordered after, or
  /// nullptr when the copy is readable now. Starts the NVMe read-back when
  /// the copy was demoted (chaining after an in-flight demotion write) and
  /// touches the entry's LRU clock.
  virtual gpusim::EventPtr acquire(GlobalArrayId id) = 0;

  /// Peek the pending event without promoting or touching LRU state.
  [[nodiscard]] virtual gpusim::EventPtr pending(GlobalArrayId id) const = 0;

  /// The array gained an authoritative copy elsewhere (host write, worker
  /// write, host-side gather): stop tracking it and free its tier bytes.
  virtual void release(GlobalArrayId id) = 0;

  [[nodiscard]] virtual bool tracks(GlobalArrayId id) const = 0;
  /// Tier currently accounted for `id`; requires tracks(id).
  [[nodiscard]] virtual SpillTier tier_of(GlobalArrayId id) const = 0;
  [[nodiscard]] virtual std::size_t tracked() const = 0;

  [[nodiscard]] virtual const SpillStats& stats() const = 0;
  /// Per-tenant spilled bytes by tier, indexed by TenantId (like the
  /// governor's resident_by_tenant). Grown lazily as owners appear.
  [[nodiscard]] virtual const std::vector<Bytes>& tenant_dram() const = 0;
  [[nodiscard]] virtual const std::vector<Bytes>& tenant_nvme() const = 0;
  /// The NVMe device model, or nullptr when tiers == 1.
  [[nodiscard]] virtual const NvmeModel* nvme() const = 0;
};

/// Build the tiered store. `name_of` labels trace spans; `owner_of` maps an
/// array to its serving tenant (kNoTenant for shared work) for per-tenant
/// tier accounting.
std::unique_ptr<SpillStore> make_spill_store(
    sim::Simulator& sim, sim::Tracer& tracer, const SpillConfig& config,
    std::function<std::string(GlobalArrayId)> name_of,
    std::function<TenantId(GlobalArrayId)> owner_of);

}  // namespace grout::core::spill
