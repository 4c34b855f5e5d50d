#include "core/spill/spill_store.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

namespace grout::core::spill {

const char* to_string(SpillTier tier) {
  switch (tier) {
    case SpillTier::ControllerDram: return "controller-dram";
    case SpillTier::Nvme: return "nvme";
  }
  return "?";
}

namespace {

void require_fraction(double v, const char* what) {
  GROUT_REQUIRE(std::isfinite(v) && v > 0.0 && v <= 1.0,
                std::string(what) + " must be a fraction in (0, 1]");
}

}  // namespace

void SpillConfig::validate() const {
  GROUT_REQUIRE(tiers == 1 || tiers == 2, "spill tiers must be 1 (DRAM) or 2 (DRAM+NVMe)");
  require_fraction(demote_high, "demote_high watermark");
  require_fraction(demote_low, "demote_low watermark");
  GROUT_REQUIRE(demote_low <= demote_high, "demote_low watermark must not exceed demote_high");
  require_fraction(worker_high, "worker_high watermark");
  require_fraction(worker_low, "worker_low watermark");
  GROUT_REQUIRE(worker_low <= worker_high, "worker_low watermark must not exceed worker_high");
  GROUT_REQUIRE(tiers == 1 || controller_mem > 0,
                "the NVMe tier needs a controller DRAM budget (--controller-mem) for its "
                "demotion watermarks");
  GROUT_REQUIRE(sweep_batch > 0, "sweep batch must be positive bytes");
  if (tiers == 2) {
    GROUT_REQUIRE(nvme.queue_depth > 0, "NVMe queue depth must be positive");
    GROUT_REQUIRE(nvme.read_bw.valid() && nvme.write_bw.valid(),
                  "NVMe bandwidth must be positive");
    GROUT_REQUIRE(nvme.latency >= SimTime::zero(), "NVMe latency must be non-negative");
  }
}

namespace {

/// The concrete store. States are encoded as (tier, ready):
///   (ControllerDram, event)  write-back from the worker, or an NVMe
///                            read-back, still in flight
///   (ControllerDram, null)   resident in controller DRAM
///   (Nvme, event)            demotion write in flight
///   (Nvme, null)             resident on NVMe
/// Accounting moves between tiers at operation submission; a monotone
/// per-entry epoch invalidates completion callbacks that a release or
/// re-admit superseded.
class TieredSpillStore final : public SpillStore {
 public:
  TieredSpillStore(sim::Simulator& sim, sim::Tracer& tracer, const SpillConfig& config,
                   std::function<std::string(GlobalArrayId)> name_of,
                   std::function<TenantId(GlobalArrayId)> owner_of)
      : sim_{sim},
        tracer_{tracer},
        config_{config},
        name_of_{std::move(name_of)},
        owner_of_{std::move(owner_of)} {
    config_.validate();
    if (config_.tiers >= 2) nvme_ = std::make_unique<NvmeModel>(sim_, config_.nvme);
    nvme_cap_ = config_.nvme.capacity;
    demote_high_mark_ =
        static_cast<Bytes>(config_.demote_high * static_cast<double>(config_.controller_mem));
    demote_low_mark_ =
        static_cast<Bytes>(config_.demote_low * static_cast<double>(config_.controller_mem));
  }

  void admit(GlobalArrayId id, Bytes bytes, gpusim::EventPtr landed) override {
    GROUT_REQUIRE(bytes > 0, "cannot admit a zero-byte spill");
    if (entries_.contains(id)) release(id);  // a fresh spill supersedes
    Entry& e = entries_[id];
    e.bytes = bytes;
    e.last_use = sim_.now();
    e.tier = SpillTier::ControllerDram;
    e.owner = owner_of_(id);
    e.epoch = ++epoch_counter_;
    account_add(e, SpillTier::ControllerDram);
    if (landed != nullptr && !landed->completed()) {
      e.ready = landed;
      ++stats_.writeback_inflight;
      stats_.writeback_queue_peak =
          std::max(stats_.writeback_queue_peak, stats_.writeback_inflight);
      const std::uint64_t epoch = e.epoch;
      landed->on_complete([this, id, epoch] {
        --stats_.writeback_inflight;
        const auto it = entries_.find(id);
        if (it == entries_.end() || it->second.epoch != epoch) return;
        it->second.ready = nullptr;
        maybe_arm_demote();
      });
    } else {
      maybe_arm_demote();
    }
  }

  gpusim::EventPtr acquire(GlobalArrayId id) override {
    const auto it = entries_.find(id);
    if (it == entries_.end()) return nullptr;
    Entry& e = it->second;
    e.last_use = sim_.now();
    if (e.tier == SpillTier::Nvme) promote(id, e);
    return waited(e.ready);
  }

  [[nodiscard]] gpusim::EventPtr pending(GlobalArrayId id) const override {
    const auto it = entries_.find(id);
    if (it == entries_.end()) return nullptr;
    const gpusim::EventPtr& ev = it->second.ready;
    return (ev != nullptr && !ev->completed()) ? ev : nullptr;
  }

  void release(GlobalArrayId id) override {
    const auto it = entries_.find(id);
    if (it == entries_.end()) return;
    account_remove(it->second, it->second.tier);
    entries_.erase(it);  // stale completion callbacks fail the epoch lookup
  }

  [[nodiscard]] bool tracks(GlobalArrayId id) const override { return entries_.contains(id); }

  [[nodiscard]] SpillTier tier_of(GlobalArrayId id) const override {
    const auto it = entries_.find(id);
    GROUT_REQUIRE(it != entries_.end(), "tier_of: array is not spilled");
    return it->second.tier;
  }

  [[nodiscard]] std::size_t tracked() const override { return entries_.size(); }
  [[nodiscard]] const SpillStats& stats() const override { return stats_; }
  [[nodiscard]] const std::vector<Bytes>& tenant_dram() const override { return tenant_dram_; }
  [[nodiscard]] const std::vector<Bytes>& tenant_nvme() const override { return tenant_nvme_; }
  [[nodiscard]] const NvmeModel* nvme() const override { return nvme_.get(); }

 private:
  struct Entry {
    Bytes bytes{0};
    SimTime last_use{SimTime::zero()};
    SpillTier tier{SpillTier::ControllerDram};
    TenantId owner{kNoTenant};
    /// In-flight operation the data is behind; nullptr = readable now.
    gpusim::EventPtr ready;
    std::uint64_t epoch{0};
  };

  /// Record consumer wait time against a still-pending event.
  gpusim::EventPtr waited(const gpusim::EventPtr& ev) {
    if (ev == nullptr || ev->completed()) return nullptr;
    const SimTime t0 = sim_.now();
    ev->on_complete([this, t0] { stats_.spill_wait += sim_.now() - t0; });
    return ev;
  }

  void account_add(const Entry& e, SpillTier tier) {
    Bytes& resident =
        tier == SpillTier::ControllerDram ? stats_.dram_resident : stats_.nvme_resident;
    Bytes& high = tier == SpillTier::ControllerDram ? stats_.dram_high_water
                                                    : stats_.nvme_high_water;
    resident += e.bytes;
    high = std::max(high, resident);
    if (e.owner == kNoTenant) return;
    std::vector<Bytes>& per_tenant =
        tier == SpillTier::ControllerDram ? tenant_dram_ : tenant_nvme_;
    if (per_tenant.size() <= e.owner) per_tenant.resize(e.owner + 1, 0);
    per_tenant[e.owner] += e.bytes;
  }

  void account_remove(const Entry& e, SpillTier tier) {
    Bytes& resident =
        tier == SpillTier::ControllerDram ? stats_.dram_resident : stats_.nvme_resident;
    GROUT_CHECK(resident >= e.bytes, "spill-tier resident-bytes underflow");
    resident -= e.bytes;
    if (e.owner == kNoTenant) return;
    std::vector<Bytes>& per_tenant =
        tier == SpillTier::ControllerDram ? tenant_dram_ : tenant_nvme_;
    GROUT_CHECK(e.owner < per_tenant.size() && per_tenant[e.owner] >= e.bytes,
                "per-tenant spill-tier accounting underflow");
    per_tenant[e.owner] -= e.bytes;
  }

  /// Wake the demotion sweep (once) when DRAM occupancy crosses the high
  /// watermark. Runs from a fresh sim event so admits stay O(1).
  void maybe_arm_demote() {
    if (nvme_ == nullptr || config_.controller_mem == 0) return;
    if (stats_.dram_resident <= demote_high_mark_ || demote_armed_) return;
    demote_armed_ = true;
    sim_.schedule_after(SimTime::zero(), [this] { demote_sweep(); });
  }

  void demote_sweep() {
    demote_armed_ = false;
    if (stats_.dram_resident <= demote_high_mark_) return;
    ++stats_.demote_sweeps;
    while (stats_.dram_resident > demote_low_mark_) {
      // Victim: landed DRAM entries only (data must be in DRAM to write
      // down; a promotion in flight is demonstrably hot). Cheapest to
      // restore first — smallest bytes x read-back time — LRU then id as
      // deterministic ties, mirroring the governor's worker-side picker.
      bool found = false;
      GlobalArrayId victim = 0;
      double victim_cost = std::numeric_limits<double>::infinity();
      SimTime victim_use = SimTime::max();
      for (const auto& [id, e] : entries_) {
        if (e.tier != SpillTier::ControllerDram || e.ready != nullptr) continue;
        if (nvme_cap_ > 0 && stats_.nvme_resident + e.bytes > nvme_cap_) continue;
        const double cost = static_cast<double>(e.bytes) *
                            (static_cast<double>(e.bytes) / config_.nvme.read_bw.bps());
        const bool better =
            !found || cost < victim_cost ||
            (cost == victim_cost &&
             (e.last_use < victim_use || (e.last_use == victim_use && id < victim)));
        if (better) {
          found = true;
          victim = id;
          victim_cost = cost;
          victim_use = e.last_use;
        }
      }
      if (!found) break;  // nothing demotable (all in flight, or NVMe full)
      demote(victim, entries_.at(victim));
    }
  }

  void demote(GlobalArrayId id, Entry& e) {
    account_remove(e, SpillTier::ControllerDram);
    e.tier = SpillTier::Nvme;
    account_add(e, SpillTier::Nvme);
    ++stats_.demotions;
    stats_.bytes_demoted += e.bytes;
    const gpusim::EventPtr done = nvme_->write(e.bytes);
    e.ready = done;
    record_span("demote", id, e.bytes, done);
    const std::uint64_t epoch = e.epoch;
    done->on_complete([this, id, epoch] {
      const auto it = entries_.find(id);
      if (it == entries_.end() || it->second.epoch != epoch) return;
      if (it->second.ready != nullptr && it->second.ready->completed()) {
        it->second.ready = nullptr;
      }
    });
  }

  /// Read a demoted copy back into DRAM. Accounting moves now; the data is
  /// readable when the NVMe read (chained after any in-flight demotion
  /// write of the same entry) completes.
  void promote(GlobalArrayId id, Entry& e) {
    account_remove(e, SpillTier::Nvme);
    e.tier = SpillTier::ControllerDram;
    account_add(e, SpillTier::ControllerDram);
    ++stats_.promotions;
    stats_.bytes_promoted += e.bytes;
    const gpusim::EventPtr done = nvme_->read(e.bytes, e.ready);
    e.ready = done;
    record_span("promote", id, e.bytes, done);
    const std::uint64_t epoch = e.epoch;
    done->on_complete([this, id, epoch] {
      const auto it = entries_.find(id);
      if (it == entries_.end() || it->second.epoch != epoch) return;
      it->second.ready = nullptr;
      maybe_arm_demote();  // the read-back may have re-pressured DRAM
    });
  }

  /// Eviction-category span covering the operation's in-flight window,
  /// named like the governor's: op:name(aID,BYTESB).
  void record_span(const char* op, GlobalArrayId id, Bytes bytes,
                   const gpusim::EventPtr& done) {
    if (!tracer_.enabled()) return;
    const SimTime begin = sim_.now();
    const std::string name = std::string(op) + ":" + name_of_(id) + "(a" +
                             std::to_string(id) + "," + std::to_string(bytes) + "B)";
    sim::Tracer* tp = &tracer_;
    sim::Simulator* simp = &sim_;
    done->on_complete([tp, simp, begin, name] {
      tp->record(sim::TraceCategory::Eviction, name, "controller", begin, simp->now());
    });
  }

  sim::Simulator& sim_;
  sim::Tracer& tracer_;
  SpillConfig config_;
  std::function<std::string(GlobalArrayId)> name_of_;
  std::function<TenantId(GlobalArrayId)> owner_of_;
  std::unique_ptr<NvmeModel> nvme_;
  Bytes demote_high_mark_{0};
  Bytes demote_low_mark_{0};
  Bytes nvme_cap_{0};
  std::unordered_map<GlobalArrayId, Entry> entries_;
  SpillStats stats_;
  std::vector<Bytes> tenant_dram_;
  std::vector<Bytes> tenant_nvme_;
  std::uint64_t epoch_counter_{0};
  bool demote_armed_{false};
};

}  // namespace

std::unique_ptr<SpillStore> make_spill_store(
    sim::Simulator& sim, sim::Tracer& tracer, const SpillConfig& config,
    std::function<std::string(GlobalArrayId)> name_of,
    std::function<TenantId(GlobalArrayId)> owner_of) {
  return std::make_unique<TieredSpillStore>(sim, tracer, config, std::move(name_of),
                                            std::move(owner_of));
}

}  // namespace grout::core::spill
