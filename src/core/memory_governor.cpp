#include "core/memory_governor.hpp"

#include <algorithm>
#include <limits>

namespace grout::core {

MemoryGovernor::MemoryGovernor(cluster::Cluster& cluster, CoherenceDirectory& directory,
                               SchedulerMetrics& metrics, Bytes budget,
                               const spill::SpillConfig& spill)
    : cluster_{cluster},
      directory_{directory},
      metrics_{metrics},
      budget_{budget},
      spill_{spill} {
  spill_.validate();
  resident_.assign(cluster_.worker_count(), 0);
  high_water_.assign(cluster_.worker_count(), 0);
  replicas_.resize(cluster_.worker_count());
  evicted_once_.resize(cluster_.worker_count());
  drain_watch_.assign(cluster_.worker_count(), false);
  sweep_armed_.assign(cluster_.worker_count(), false);
  if (spill_.background() && bounded()) {
    worker_high_mark_ =
        static_cast<Bytes>(spill_.worker_high * static_cast<double>(budget_));
    worker_low_mark_ = static_cast<Bytes>(spill_.worker_low * static_cast<double>(budget_));
  }
  store_ = spill::make_spill_store(
      cluster_.simulator(), cluster_.tracer(), spill_,
      [this](GlobalArrayId id) { return directory_.name_of(id); },
      [this](GlobalArrayId id) { return array_owner(id); });
  metrics_.worker_mem_budget = budget_;
  metrics_.spill_tiers = spill_.tiers;
  metrics_.controller_spill_budget = spill_.controller_mem;
}

void MemoryGovernor::set_array_owner(GlobalArrayId id, TenantId tenant) {
  if (array_owner_.size() <= id) array_owner_.resize(id + 1, kNoTenant);
  array_owner_[id] = tenant;
  if (tenant != kNoTenant && tenant_resident_.size() <= tenant) {
    tenant_resident_.resize(tenant + 1, 0);
    if (tenant_quota_.size() <= tenant) tenant_quota_.resize(tenant + 1, 0);
  }
}

TenantId MemoryGovernor::array_owner(GlobalArrayId id) const {
  return id < array_owner_.size() ? array_owner_[id] : kNoTenant;
}

void MemoryGovernor::set_tenant_quota(TenantId tenant, Bytes quota) {
  GROUT_REQUIRE(tenant != kNoTenant, "cannot set a quota for the no-tenant id");
  if (tenant_quota_.size() <= tenant) tenant_quota_.resize(tenant + 1, 0);
  if (tenant_resident_.size() <= tenant) tenant_resident_.resize(tenant + 1, 0);
  tenant_quota_[tenant] = quota;
}

Bytes MemoryGovernor::tenant_quota(TenantId tenant) const {
  return tenant < tenant_quota_.size() ? tenant_quota_[tenant] : 0;
}

Bytes MemoryGovernor::tenant_resident(TenantId tenant) const {
  return tenant < tenant_resident_.size() ? tenant_resident_[tenant] : 0;
}

void MemoryGovernor::credit_tenant(GlobalArrayId id, Bytes bytes) {
  const TenantId owner = array_owner(id);
  if (owner == kNoTenant) return;
  if (tenant_resident_.size() <= owner) tenant_resident_.resize(owner + 1, 0);
  tenant_resident_[owner] += bytes;
}

void MemoryGovernor::debit_tenant(GlobalArrayId id, Bytes bytes) {
  const TenantId owner = array_owner(id);
  if (owner == kNoTenant || owner >= tenant_resident_.size()) return;
  GROUT_CHECK(tenant_resident_[owner] >= bytes, "tenant resident-bytes underflow");
  tenant_resident_[owner] -= bytes;
}

Bytes MemoryGovernor::resident_bytes(std::size_t w) const {
  GROUT_REQUIRE(w < resident_.size(), "worker index out of range");
  return resident_[w];
}

Bytes MemoryGovernor::high_water(std::size_t w) const {
  GROUT_REQUIRE(w < high_water_.size(), "worker index out of range");
  return high_water_[w];
}

void MemoryGovernor::make_room(std::size_t w, const std::vector<PlacementParam>& params,
                               TenantId tenant) {
  if (!bounded()) return;
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  Bytes incoming = 0;
  std::unordered_set<GlobalArrayId> needed;
  for (const PlacementParam& p : params) {
    if (!needed.insert(p.array).second) continue;
    if (!replicas_[w].contains(p.array)) incoming += p.bytes;
  }
  const std::uint64_t evictions_before = metrics_.evictions;
  const std::uint64_t spills_before = metrics_.spills;
  while (resident_[w] + incoming > budget_) {
    if (!evict_one(w, needed, tenant)) break;  // everything left is pinned or protected
  }
  if (background_eviction()) {
    // With the background pipeline on, dispatch-path eviction is the
    // hard-budget backstop only; count what the watermarks failed to
    // absorb (it should be zero when headroom covers the incoming burst).
    metrics_.dispatch_stall_evictions += metrics_.evictions - evictions_before;
    metrics_.dispatch_stall_spills += metrics_.spills - spills_before;
  }
}

bool MemoryGovernor::note_ensure(std::size_t w, GlobalArrayId id) {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  const auto [it, fresh] = replicas_[w].try_emplace(id);
  if (!fresh) return false;
  it->second.bytes = directory_.bytes_of(id);
  it->second.last_use = cluster_.simulator().now();
  resident_[w] += it->second.bytes;
  high_water_[w] = std::max(high_water_[w], resident_[w]);
  credit_tenant(id, it->second.bytes);
  if (evicted_once_[w].contains(id)) ++metrics_.refetches;
  maybe_arm_sweep(w);
  return true;
}

void MemoryGovernor::note_use(std::size_t w, GlobalArrayId id) {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  const auto it = replicas_[w].find(id);
  GROUT_REQUIRE(it != replicas_[w].end(), "use of an untracked replica");
  it->second.last_use = cluster_.simulator().now();
}

void MemoryGovernor::pin(std::size_t w, GlobalArrayId id) {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  const auto it = replicas_[w].find(id);
  GROUT_REQUIRE(it != replicas_[w].end(), "pin of an untracked replica");
  ++it->second.pins;
}

void MemoryGovernor::unpin(std::size_t w, GlobalArrayId id) {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  const auto it = replicas_[w].find(id);
  if (it == replicas_[w].end()) return;  // dropped with a dead worker
  GROUT_CHECK(it->second.pins > 0, "replica pin count underflow");
  --it->second.pins;
  if (it->second.pins > 0 || !drain_watch_[w]) return;
  // Drain-watched worker: if that was its last pin anywhere, notify the
  // drain listener from a fresh sim event (unpin may run inside another
  // completion callback, which must not re-enter the runtime inline).
  for (const auto& [_, rep] : replicas_[w]) {
    if (rep.pins > 0) return;
  }
  drain_watch_[w] = false;
  if (drain_listener_) {
    cluster_.simulator().schedule_after(SimTime::zero(),
                                        [this, w] { drain_listener_(w); });
  }
}

void MemoryGovernor::enforce(std::size_t w) {
  if (!bounded()) return;
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  const std::unordered_set<GlobalArrayId> keep;
  while (resident_[w] > budget_) {
    if (!evict_one(w, keep)) break;
  }
}

void MemoryGovernor::drop_worker(std::size_t w) {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  // Tear-down runs on the worker, ordered behind any commands
  // already in flight to it (stale CE bundles, releases). Reliable: the
  // node being dead is exactly why this must still be delivered.
  cluster::Worker& worker = cluster_.worker(w);
  cluster_.fabric().send_command(
      cluster::Cluster::controller_id(), cluster::Cluster::worker_fabric_id(w), 0,
      [&worker] { worker.release_all(); }, /*reliable=*/true);
  for (const auto& [id, rep] : replicas_[w]) debit_tenant(id, rep.bytes);
  resident_[w] = 0;
  replicas_[w].clear();
  evicted_once_[w].clear();
  drain_watch_[w] = false;  // death supersedes a pending drain watch
}

void MemoryGovernor::add_worker() {
  resident_.push_back(0);
  high_water_.push_back(0);
  replicas_.emplace_back();
  evicted_once_.emplace_back();
  drain_watch_.push_back(false);
  sweep_armed_.push_back(false);
}

void MemoryGovernor::watch_drain(std::size_t w) {
  GROUT_REQUIRE(w < drain_watch_.size(), "worker index out of range");
  drain_watch_[w] = true;
}

std::size_t MemoryGovernor::drain_worker(std::size_t w) {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  std::vector<GlobalArrayId> victims;
  victims.reserve(replicas_[w].size());
  std::size_t pinned = 0;
  for (const auto& [id, rep] : replicas_[w]) {
    if (rep.pins > 0) {
      ++pinned;
      continue;
    }
    victims.push_back(id);
  }
  // Deterministic migration order (unordered_map iteration is not).
  std::sort(victims.begin(), victims.end());
  for (const GlobalArrayId id : victims) {
    const LocationSet& holders = directory_.holders(id);
    const bool sole = holders.worker(w) && holders.holder_count() == 1;
    if (sole) {
      GROUT_CHECK(cluster_.fabric()
                      .bandwidth(cluster::Cluster::worker_fabric_id(w),
                                 cluster::Cluster::controller_id())
                      .bps() > 0.0,
                  "cannot drain: sole up-to-date copy has no route to the controller");
      metrics_.drain_migrated_bytes += replicas_[w].at(id).bytes;
    }
    evict(w, id, sole);
  }
  return pinned;
}

gpusim::EventPtr MemoryGovernor::controller_ready(GlobalArrayId id) const {
  return store_->pending(id);
}

gpusim::EventPtr MemoryGovernor::acquire_controller_copy(GlobalArrayId id) {
  return store_->acquire(id);
}

void MemoryGovernor::release_spilled(GlobalArrayId id) { store_->release(id); }

void MemoryGovernor::maybe_arm_sweep(std::size_t w) {
  if (!background_eviction()) return;
  if (resident_[w] <= worker_high_mark_ || sweep_armed_[w]) return;
  sweep_armed_[w] = true;
  cluster_.simulator().schedule_after(SimTime::zero(), [this, w] { background_sweep(w); });
}

void MemoryGovernor::background_sweep(std::size_t w) {
  sweep_armed_[w] = false;
  // Hysteresis: the sweep only ever *starts* above the high mark (the
  // maybe_arm_sweep guard), but once started it owns the drain down to the
  // low mark — including across batch-cap yields.
  if (resident_[w] <= worker_low_mark_) return;  // pressure resolved meanwhile
  ++metrics_.bg_sweeps;
  const std::unordered_set<GlobalArrayId> keep;
  Bytes reclaimed = 0;
  while (resident_[w] > worker_low_mark_ && reclaimed < spill_.sweep_batch) {
    const Bytes before = resident_[w];
    if (!evict_one(w, keep)) break;  // everything left is pinned
    reclaimed += before - resident_[w];
    ++metrics_.bg_evictions;
  }
  metrics_.bg_bytes_evicted += reclaimed;
  // Batch cap hit with the drain unfinished: yield the event loop and
  // re-arm to continue. No progress means everything is pinned — the next
  // note_ensure growth (or enforce at CE completion) re-establishes budget.
  if (reclaimed > 0 && resident_[w] > worker_low_mark_ && !sweep_armed_[w]) {
    sweep_armed_[w] = true;
    cluster_.simulator().schedule_after(SimTime::zero(), [this, w] { background_sweep(w); });
  }
}

bool MemoryGovernor::evict_one(std::size_t w, const std::unordered_set<GlobalArrayId>& keep,
                               TenantId requester) {
  const net::NodeId dst = cluster::Cluster::worker_fabric_id(w);
  const net::NetworkFabric& fabric = cluster_.fabric();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  bool found = false;
  GlobalArrayId victim = 0;
  double victim_cost = kInf;
  SimTime victim_use = SimTime::max();
  bool victim_sole = false;
  for (const auto& [id, rep] : replicas_[w]) {
    if (rep.pins > 0 || keep.contains(id)) continue;
    const LocationSet& holders = directory_.holders(id);
    const bool holder = holders.worker(w);
    const bool sole = holder && holders.holder_count() == 1;
    // Tenant isolation: pressure from one serving tenant never evicts a
    // *different* tenant's up-to-date replica — admission control is the
    // place that absorbs the overload. Stale replicas are fair game (the
    // worker would refetch them regardless), as is everything during
    // tenant-agnostic enforcement (requester == kNoTenant).
    if (requester != kNoTenant && holder) {
      const TenantId owner = array_owner(id);
      if (owner != kNoTenant && owner != requester) continue;
    }
    // Cost model: bytes x refetch time over the bandwidth matrix. Stale
    // replicas would be refetched regardless, so they cost nothing.
    double cost = 0.0;
    if (holder) {
      double best_bps = 0.0;
      if (sole) {
        // A sole copy must be spilled first; a dead uplink makes it
        // unevictable, not silently droppable.
        if (fabric.bandwidth(dst, cluster::Cluster::controller_id()).bps() <= 0.0) continue;
        best_bps = fabric.bandwidth(cluster::Cluster::controller_id(), dst).bps();
      } else {
        if (holders.controller()) {
          best_bps = fabric.bandwidth(cluster::Cluster::controller_id(), dst).bps();
        }
        for (const std::size_t s : holders.worker_holders()) {
          if (s == w) continue;
          best_bps = std::max(
              best_bps, fabric.bandwidth(cluster::Cluster::worker_fabric_id(s), dst).bps());
        }
      }
      cost = best_bps > 0.0
                 ? static_cast<double>(rep.bytes) * (static_cast<double>(rep.bytes) / best_bps)
                 : kInf;
    }
    const bool better =
        !found || cost < victim_cost ||
        (cost == victim_cost &&
         (rep.last_use < victim_use || (rep.last_use == victim_use && id < victim)));
    if (better) {
      found = true;
      victim = id;
      victim_cost = cost;
      victim_use = rep.last_use;
      victim_sole = sole;
    }
  }
  if (!found) return false;
  evict(w, victim, victim_sole);
  return true;
}

void MemoryGovernor::evict(std::size_t w, GlobalArrayId id, bool sole_holder) {
  const Replica rep = replicas_[w].at(id);
  const SimTime now = cluster_.simulator().now();

  if (sole_holder) {
    // Stage + write-back first; the worker-side free is chained after the
    // staging inside the spill command.
    spill_to_controller(w, id, rep.bytes);
  } else {
    post_worker_release(w, id);
  }
  if (directory_.holders(id).worker(w)) {
    directory_.remove_worker_copy(id, w);
  } else if (directory_.invalidated_on_worker(id, w)) {
    // The replica was already dead coherence-wise (a shared write
    // invalidated it); reclaiming it costs nothing but bookkeeping, which
    // is exactly the hot-replica thrash contention serving should surface.
    ++metrics_.stale_evictions;
    metrics_.bytes_stale_evicted += rep.bytes;
  }

  resident_[w] -= rep.bytes;
  debit_tenant(id, rep.bytes);
  replicas_[w].erase(id);
  evicted_once_[w].insert(id);
  ++metrics_.evictions;
  metrics_.bytes_evicted += rep.bytes;
  if (cluster_.tracer().enabled()) {
    // Victim id + byte count in the span name so per-tier timelines are
    // attributable in to_chrome_json output (not just "which worker").
    cluster_.tracer().record(sim::TraceCategory::Eviction,
                             "evict:" + directory_.name_of(id) + "(a" + std::to_string(id) +
                                 "," + std::to_string(rep.bytes) + "B)",
                             "worker" + std::to_string(w), now, now);
  }
}

void MemoryGovernor::post_worker_release(std::size_t w, GlobalArrayId id) {
  cluster::Worker& worker = cluster_.worker(w);
  cluster_.fabric().send_command(
      cluster::Cluster::controller_id(), cluster::Cluster::worker_fabric_id(w), 0,
      [&worker, id] { worker.release_array(id); }, /*reliable=*/true);
}

gpusim::EventPtr MemoryGovernor::spill_to_controller(std::size_t w, GlobalArrayId id,
                                                     Bytes bytes) {
  cluster::Worker& worker = cluster_.worker(w);
  sim::Simulator& engine = cluster_.simulator();
  net::NetworkFabric& fabric = cluster_.fabric();
  const SimTime edge = cluster_.controller_edge(w);
  const net::NodeId w_fid = cluster::Cluster::worker_fabric_id(w);
  const net::NodeId ctl_fid = cluster::Cluster::controller_id();
  const std::string label = "spill:" + directory_.name_of(id);

  // `landed` stands in for the write-back arrival: the store admits against
  // it now, and it completes when the controller-started transfer does.
  const gpusim::EventPtr landed = gpusim::make_event();
  // Worker side: gather the copy to host memory, free the local allocation
  // once the host copy is consistent, then ack the staging back to the
  // controller one fabric edge later; the controller starts the write-back
  // transfer from there.
  fabric.send_command(
      ctl_fid, w_fid, 0,
      [&worker, &engine, &fabric, edge, w_fid, ctl_fid, id, bytes, label, landed] {
        const runtime::Submission staged = worker.stage_send(id);
        worker.release_array(id, staged.done);
        staged.done->on_complete(
            [&engine, &fabric, edge, w_fid, ctl_fid, bytes, label, landed] {
              engine.schedule_at(engine.now() + edge, [&engine, &fabric, w_fid, ctl_fid,
                                                       bytes, label, landed] {
                const gpusim::EventPtr wire = fabric.transfer(w_fid, ctl_fid, bytes, label);
                wire->on_complete([&engine, landed] { landed->complete(engine.now()); });
              });
            });
      },
      /*reliable=*/true);

  // Eager directory update (like plan_movement); consumers of the
  // controller copy are ordered after whatever the spill store has in
  // flight for it via acquire_controller_copy().
  directory_.add_controller_copy(id);
  store_->admit(id, bytes, landed);
  ++metrics_.spills;
  metrics_.bytes_spilled += bytes;

  sim::Tracer& tracer = cluster_.tracer();
  if (tracer.enabled()) {
    sim::Tracer* tp = &tracer;
    sim::Simulator* simp = &cluster_.simulator();
    const SimTime begin = simp->now();
    const std::string name = "spill:" + directory_.name_of(id) + "(a" + std::to_string(id) +
                             "," + std::to_string(bytes) + "B)";
    const std::string loc = "worker" + std::to_string(w);
    landed->on_complete(
        [tp, simp, begin, name, loc] {
          tp->record(sim::TraceCategory::Eviction, name, loc, begin, simp->now());
        });
  }
  return landed;
}

}  // namespace grout::core
