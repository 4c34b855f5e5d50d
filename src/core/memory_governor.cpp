#include "core/memory_governor.hpp"

#include <algorithm>
#include <limits>

namespace grout::core {

MemoryGovernor::MemoryGovernor(cluster::Cluster& cluster, CoherenceDirectory& directory,
                               SchedulerMetrics& metrics, Bytes budget)
    : cluster_{cluster}, directory_{directory}, metrics_{metrics}, budget_{budget} {
  resident_.assign(cluster_.worker_count(), 0);
  high_water_.assign(cluster_.worker_count(), 0);
  replicas_.resize(cluster_.worker_count());
  metrics_.worker_mem_budget = budget_;
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
  for (std::size_t i = 0; i < params.size(); ++i) {
    const GlobalArrayId id = params[i].array;
    const bool repeat = std::any_of(params.begin(), params.begin() + static_cast<std::ptrdiff_t>(i),
                                    [id](const PlacementParam& p) { return p.array == id; });
    if (!repeat && replicas_[w].find(id) == nullptr) incoming += params[i].bytes;
  }
  // Best effort: stops when everything left is pinned or protected.
  evict_while(w, params, tenant, [&] { return resident_[w] + incoming > budget_; });
}

bool MemoryGovernor::note_ensure(std::size_t w, GlobalArrayId id) {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  WorkerReplicas& table = replicas_[w];
  if (table.find(id) != nullptr) return false;
  const Bytes bytes = directory_.bytes_of(id);
  if (table.row_of.size() <= id) {
    table.row_of.resize(id + 1, kNoRow);
    table.evicted_once.resize(id + 1, false);
  }
  table.row_of[id] = static_cast<std::uint32_t>(table.rows.size());
  table.rows.push_back(Replica{id, 0, bytes, cluster_.simulator().now()});
  resident_[w] += bytes;
  high_water_[w] = std::max(high_water_[w], resident_[w]);
  credit_tenant(id, bytes);
  if (table.evicted_once[id]) ++metrics_.refetches;
  return true;
}

void MemoryGovernor::note_use(std::size_t w, GlobalArrayId id) {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  Replica* rep = replicas_[w].find(id);
  GROUT_REQUIRE(rep != nullptr, "use of an untracked replica");
  rep->last_use = cluster_.simulator().now();
}

void MemoryGovernor::pin(std::size_t w, GlobalArrayId id) {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  Replica* rep = replicas_[w].find(id);
  GROUT_REQUIRE(rep != nullptr, "pin of an untracked replica");
  ++rep->pins;
}

void MemoryGovernor::unpin(std::size_t w, GlobalArrayId id) {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  Replica* rep = replicas_[w].find(id);
  if (rep == nullptr) return;  // dropped with a dead worker
  GROUT_CHECK(rep->pins > 0, "replica pin count underflow");
  --rep->pins;
}

void MemoryGovernor::enforce(std::size_t w) {
  if (!bounded()) return;
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  evict_while(w, {}, kNoTenant, [&] { return resident_[w] > budget_; });
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
  for (const Replica& rep : replicas_[w].rows) debit_tenant(rep.id, rep.bytes);
  resident_[w] = 0;
  replicas_[w] = WorkerReplicas{};
}

gpusim::EventPtr MemoryGovernor::controller_ready(GlobalArrayId id) const {
  if (!spilled(id)) return nullptr;
  const gpusim::EventPtr& ready = spilled_[id].ready;
  return ready != nullptr && !ready->completed() ? ready : nullptr;
}

gpusim::EventPtr MemoryGovernor::acquire_controller_copy(GlobalArrayId id) {
  gpusim::EventPtr ready = controller_ready(id);
  if (ready != nullptr) {
    const SimTime t0 = cluster_.simulator().now();
    ready->on_complete(
        [this, t0] { metrics_.spill_wait += cluster_.simulator().now() - t0; });
  }
  return ready;
}

void MemoryGovernor::release_spilled(GlobalArrayId id) {
  if (!spilled(id)) return;
  GROUT_CHECK(metrics_.spill_dram_resident >= spilled_[id].bytes,
              "spilled-bytes accounting underflow");
  metrics_.spill_dram_resident -= spilled_[id].bytes;
  spilled_[id] = SpillEntry{};  // epoch 0: stale write-back callbacks do nothing
}

void MemoryGovernor::admit_spill(GlobalArrayId id, Bytes bytes,
                                 const gpusim::EventPtr& landed) {
  release_spilled(id);  // a fresh spill supersedes
  if (spilled_.size() <= id) spilled_.resize(id + 1);
  const std::uint64_t epoch = ++spill_epochs_;
  spilled_[id] = SpillEntry{bytes, landed, epoch};
  metrics_.spill_dram_resident += bytes;
  metrics_.spill_dram_high_water =
      std::max(metrics_.spill_dram_high_water, metrics_.spill_dram_resident);
  ++writebacks_inflight_;
  metrics_.writeback_queue_peak = std::max(metrics_.writeback_queue_peak, writebacks_inflight_);
  landed->on_complete([this, id, epoch] {
    --writebacks_inflight_;
    if (spilled_[id].epoch == epoch) spilled_[id].ready = nullptr;
  });
}

std::span<const MemoryGovernor::Replica> MemoryGovernor::replicas(std::size_t w) const {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  return replicas_[w].rows;
}

std::optional<GlobalArrayId> MemoryGovernor::next_victim(std::size_t w,
                                                         std::span<const PlacementParam> keep,
                                                         TenantId requester) const {
  GROUT_REQUIRE(w < replicas_.size(), "worker index out of range");
  rank_victims(w, keep, requester);
  if (victims_.empty()) return std::nullopt;
  return victims_[best_victim()].id;
}

std::size_t MemoryGovernor::best_victim() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < victims_.size(); ++i) {
    const Victim& a = victims_[i];
    const Victim& b = victims_[best];
    const bool ranks_before =
        a.cost < b.cost ||
        (a.cost == b.cost &&
         (a.last_use < b.last_use || (a.last_use == b.last_use && a.id < b.id)));
    if (ranks_before) best = i;
  }
  return best;
}

template <typename More>
void MemoryGovernor::evict_while(std::size_t w, std::span<const PlacementParam> keep,
                                 TenantId requester, More&& more) {
  if (!more()) return;
  rank_victims(w, keep, requester);
  do {
    if (victims_.empty()) return;
    const std::size_t i = best_victim();
    const Victim victim = victims_[i];
    victims_[i] = victims_.back();
    victims_.pop_back();
    evict(w, victim.id, victim.sole);
  } while (more());
}

void MemoryGovernor::rank_victims(std::size_t w, std::span<const PlacementParam> keep,
                                  TenantId requester) const {
  // One pass over the worker's contiguous replica table. The bandwidth
  // matrix is read in place (entry [from * n + to]); the uplink and
  // downlink of `w` are fixed for the whole scan.
  const net::NetworkFabric& fabric = cluster_.fabric();
  const double* bw = fabric.bandwidth_matrix().data();
  const std::size_t n = fabric.node_count();
  const std::size_t dst = cluster::Cluster::worker_fabric_id(w);
  const std::size_t ctl = cluster::Cluster::controller_id();
  const double uplink_bps = bw[dst * n + ctl];
  const double downlink_bps = bw[ctl * n + dst];
  constexpr double kInf = std::numeric_limits<double>::infinity();

  victims_.clear();
  for (const Replica& rep : replicas_[w].rows) {
    if (rep.pins > 0) continue;
    const GlobalArrayId id = rep.id;
    if (std::any_of(keep.begin(), keep.end(),
                    [id](const PlacementParam& p) { return p.array == id; })) {
      continue;
    }
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
        if (uplink_bps <= 0.0) continue;
        best_bps = downlink_bps;
      } else {
        if (holders.controller()) best_bps = downlink_bps;
        holders.for_each_worker([&](std::size_t s) {
          if (s == w) return;
          best_bps = std::max(best_bps, bw[cluster::Cluster::worker_fabric_id(s) * n + dst]);
        });
      }
      cost = best_bps > 0.0
                 ? static_cast<double>(rep.bytes) * (static_cast<double>(rep.bytes) / best_bps)
                 : kInf;
    }
    victims_.push_back(Victim{id, sole, cost, rep.last_use});
  }
}

void MemoryGovernor::evict(std::size_t w, GlobalArrayId id, bool sole_holder) {
  WorkerReplicas& table = replicas_[w];
  const Replica* found = table.find(id);
  GROUT_CHECK(found != nullptr, "eviction of an untracked replica");
  const Replica rep = *found;
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
  // Swap-remove the row: table order never decides a victim, the ranking
  // is total (cost, then LRU, then id).
  const std::uint32_t row = table.row_of[id];
  if (row + 1 != table.rows.size()) {
    table.rows[row] = table.rows.back();
    table.row_of[table.rows[row].id] = row;
  }
  table.rows.pop_back();
  table.row_of[id] = kNoRow;
  table.evicted_once[id] = true;
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

void MemoryGovernor::spill_to_controller(std::size_t w, GlobalArrayId id, Bytes bytes) {
  cluster::Worker& worker = cluster_.worker(w);
  sim::Simulator& engine = cluster_.simulator();
  net::NetworkFabric& fabric = cluster_.fabric();
  const SimTime edge = cluster_.controller_edge(w);
  const net::NodeId w_fid = cluster::Cluster::worker_fabric_id(w);
  const net::NodeId ctl_fid = cluster::Cluster::controller_id();
  const std::string label = "spill:" + directory_.name_of(id);

  // `landed` stands in for the write-back arrival: the spill record keeps
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
  // controller copy are ordered after the write-back via
  // acquire_controller_copy().
  directory_.add_controller_copy(id);
  admit_spill(id, bytes, landed);
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
}

}  // namespace grout::core
