#include "core/grout_runtime.hpp"

#include <algorithm>
#include <chrono>

#include "common/strings.hpp"
#include "net/message.hpp"

namespace grout::core {

namespace {
using WallClock = std::chrono::steady_clock;

/// Default per-worker budget as a multiple of the node's GPU memory (see
/// GroutConfig::worker_mem).
constexpr double kWorkerMemHeadroom = 8.0;

}  // namespace

GroutRuntime::GroutRuntime(GroutConfig config)
    : config_{std::move(config)},
      cluster_{std::make_unique<cluster::Cluster>(config_.cluster)},
      directory_{config_.cluster.workers},
      policy_{make_policy(config_.policy, config_.step_vector, config_.exploration_threshold)} {
  metrics_.assignments.assign(config_.cluster.workers, 0);
  const Bytes node_gpu_mem =
      config_.cluster.worker_node.gpu_count * config_.cluster.worker_node.device.memory;
  const Bytes budget = config_.worker_mem.value_or(static_cast<Bytes>(
      kWorkerMemHeadroom * static_cast<double>(node_gpu_mem)));
  governor_ = std::make_unique<MemoryGovernor>(*cluster_, directory_, metrics_, budget);
}

GlobalArrayId GroutRuntime::alloc(Bytes bytes, std::string name, TenantId tenant) {
  const GlobalArrayId id = directory_.register_array(bytes, std::move(name));
  if (tenant != kNoTenant) governor_->set_array_owner(id, tenant);
  return id;
}

void GroutRuntime::host_init(GlobalArrayId array) {
  // Controller-side writes touch only controller memory; the directory
  // update invalidates every worker copy for future CEs. Worker-side CEs
  // already scheduled keep their own (consistent) snapshots.
  label_.assign("host-init:");
  label_ += directory_.name_of(array);
  accesses_.assign(1, dag::AccessSummary{array, true});
  global_dag_.add(label_, accesses_);
  directory_.written_on_controller(array);
  // The host write supersedes any spilled copy: its bytes are free.
  governor_->release_spilled(array);
}

void GroutRuntime::advise(GlobalArrayId array, uvm::Advise advise) {
  GROUT_REQUIRE(array < directory_.array_count(), "unknown global array");
  if (array >= advises_.size()) advises_.resize(std::size_t{array} + 1);
  advises_[array] = advise;
  // Existing replicas get the advise through a command to each
  // worker (the hold-check runs on the worker when the command lands —
  // the controller does not probe worker-local state). Future replicas
  // pick it up from advises_ when their CE bundle materializes them.
  for (std::size_t w = 0; w < cluster_->worker_count(); ++w) {
    cluster::Worker& worker = cluster_->worker(w);
    cluster_->fabric().send_command(
        cluster::Cluster::controller_id(), cluster::Cluster::worker_fabric_id(w), 0,
        [&worker, array, advise] {
          if (worker.has_array(array)) {
            worker.node().uvm().advise(worker.local_array(array), advise);
          }
        },
        /*ce_bundle=*/false);
  }
}

CeTicket GroutRuntime::launch(gpusim::KernelLaunchSpec spec) {
  // Global DAG insertion (frontier scan + redundant-edge filtering).
  accesses_.clear();
  for (const auto& p : spec.params) {
    accesses_.push_back(dag::AccessSummary{p.array, uvm::writes(p.mode)});
  }
  const dag::VertexId v = global_dag_.add(spec.name, accesses_);
  return dispatch(v, std::move(spec));
}

CeTicket GroutRuntime::dispatch(dag::VertexId v, gpusim::KernelLaunchSpec spec) {
  const auto t0 = WallClock::now();

  // 1. Node-level policy decision.
  std::vector<PlacementParam>& params = params_;
  params.clear();
  for (const auto& p : spec.params) {
    params.push_back(PlacementParam{static_cast<GlobalArrayId>(p.array),
                                    directory_.bytes_of(static_cast<GlobalArrayId>(p.array)),
                                    uvm::reads(p.mode)});
  }
  PlacementQuery query;
  query.params = &params;
  query.directory = &directory_;
  query.fabric = &cluster_->fabric();
  query.workers = cluster_->worker_count();
  query.resident = &governor_->resident_by_worker();
  query.mem_budget = governor_->budget();
  bool explored = false;
  query.explored = &explored;
  const std::size_t w = policy_->assign(query);
  GROUT_CHECK(w < cluster_->worker_count(), "policy returned an invalid worker");
  if (explored) ++metrics_.exploration_placements;

  // 2. Memory governance, then the data movements implied by the placement
  //    (Algorithm 1, last loop). Cold replicas are evicted *before* the
  //    allocations so the worker never overshoots its budget. The
  //    controller only updates its own accounting here; the worker-side
  //    allocations (and advises) are collected into the CE's record and
  //    materialize on the worker at delivery time.
  governor_->make_room(w, params, spec.tenant);
  const std::uint32_t c = ces_.acquire();
  CeRecord& ce = ces_[c];
  ce.worker = w;
  ce.ensures.clear();
  for (const auto& p : spec.params) {
    const auto id = static_cast<GlobalArrayId>(p.array);
    const bool fresh = governor_->note_ensure(w, id);
    governor_->note_use(w, id);
    EnsureOp op{id, directory_.bytes_of(id), std::nullopt};
    if (fresh && id < advises_.size()) op.advise = advises_[id];
    ce.ensures.push_back(op);
  }
  unique_arrays(spec, ce.pins);
  for (const GlobalArrayId id : ce.pins) governor_->pin(w, id);
  ce.adopts.clear();
  for (const PlacementParam& p : params) {
    if (!p.needs_data) continue;
    if (gpusim::EventPtr arrival = plan_movement(p, w)) {
      ce.adopts.push_back(AdoptOp{p.array, std::move(arrival)});
    }
  }

  // 3. Marshal the CE into one ordered command-lane bundle; its delivery
  //    *is* the arrival gate. On delivery the bundle runs on the worker:
  //    it materializes the allocations, adopts the inbound copies and
  //    submits the kernel to the intra-node runtime (Algorithm 2). The wire
  //    buffer is a member reused across dispatches (encode_ce resets it;
  //    dispatch never re-enters itself, so reuse is safe).
  const Bytes message_bytes = net::encode_ce(spec, wire_buffer_);

  const auto t1 = WallClock::now();
  metrics_.decision_ns.add(
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  ++metrics_.ces_scheduled;
  ++metrics_.assignments[w];

  // 4. Eager directory update so later CEs see this placement before the
  //    bundle lands.
  for (const auto& p : spec.params) {
    if (!uvm::writes(p.mode)) continue;
    const auto id = static_cast<GlobalArrayId>(p.array);
    const WriteEffect effect = directory_.written_on_worker(id, w);
    // The controller is no longer a holder: a spilled copy is stale now
    // and its bytes come back.
    governor_->release_spilled(id);
    if (effect.invalidations > 0 && cluster_->tracer().enabled()) {
      // Invalidation storm visibility: one span per shared write that
      // dropped replicas, tenant-tagged like the dispatch span below.
      const SimTime at = cluster_->simulator().now();
      cluster_->tracer().record(sim::TraceCategory::Scheduling,
                                str_cat("invalidate:", directory_.name_of(id), "(x",
                                        std::to_string(effect.invalidations),
                                        effect.ownership_transfer ? ",xfer)" : ")"),
                                "controller", at, at, spec.tenant);
    }
  }

  if (spec.tenant != kNoTenant && cluster_->tracer().enabled()) {
    // Serving dispatch decision, tenant-tagged so one shared-cluster trace
    // can be filtered into per-tenant timelines.
    const SimTime at = cluster_->simulator().now();
    cluster_->tracer().record(sim::TraceCategory::Scheduling,
                              str_cat("dispatch:", spec.name, "->worker", std::to_string(w)),
                              "controller", at, at, spec.tenant);
  }

  // The spec moves into the record; the completion ack releases the rest
  // of the CE's controller state (its pins and `done`), so nothing of the
  // CE outlives its completion.
  ce.spec = std::move(spec);
  ce.done = gpusim::make_event();
  CeTicket ticket{v, w, ce.done};
  cluster_->fabric().send_command(cluster::Cluster::controller_id(),
                                  cluster::Cluster::worker_fabric_id(w), message_bytes,
                                  [this, c] { deliver_ce(c); }, /*ce_bundle=*/true);
  return ticket;
}

void GroutRuntime::deliver_ce(std::uint32_t c) {
  CeRecord& ce = ces_[c];
  cluster::Worker& worker = cluster_->worker(ce.worker);
  for (const EnsureOp& e : ce.ensures) {
    const uvm::ArrayId local = worker.ensure_array(e.id, e.bytes);
    if (e.advise) worker.node().uvm().advise(local, *e.advise);
  }
  for (AdoptOp& a : ce.adopts) worker.accept_receive(a.id, std::move(a.arrival));
  const runtime::Submission sub = worker.execute_kernel(std::move(ce.spec));
  // The completion acks back to the controller one fabric edge later; the
  // pin bookkeeping runs there.
  sub.done->on_complete([this, c] {
    sim::Simulator& engine = cluster_->simulator();
    engine.schedule_at(engine.now() + cluster_->controller_edge(ces_[c].worker),
                       [this, c] { on_ce_complete(c); });
  });
}

void GroutRuntime::on_ce_complete(std::uint32_t c) {
  // The CE's pins lapse: re-establish the worker's budget now that its
  // replicas are evictable again.
  CeRecord& ce = ces_[c];
  for (const GlobalArrayId id : ce.pins) governor_->unpin(ce.worker, id);
  governor_->enforce(ce.worker);
  // The record is free before `done` fires: its waiters may dispatch.
  const gpusim::EventPtr done = std::move(ce.done);
  ces_.release(c);
  done->complete(cluster_->simulator().now());
}

void GroutRuntime::unique_arrays(const gpusim::KernelLaunchSpec& spec,
                                 std::vector<GlobalArrayId>& ids) {
  ids.clear();
  for (const auto& p : spec.params) {
    const auto id = static_cast<GlobalArrayId>(p.array);
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
}

gpusim::EventPtr GroutRuntime::plan_movement(const PlacementParam& param, std::size_t worker) {
  const GlobalArrayId id = param.array;
  if (directory_.up_to_date_on_worker(id, worker)) return nullptr;

  const net::NodeId dst_fid = cluster::Cluster::worker_fabric_id(worker);
  const SimTime dst_edge = cluster_->controller_edge(worker);
  const LocationSet& holders = directory_.holders(id);
  // Transfer labels exist only for the tracer; skip the string building on
  // every movement when tracing is off.
  const bool tracing = cluster_->tracer().enabled();

  gpusim::EventPtr arrival;
  if (holders.controller()) {
    // Controller holds a current copy: direct send (Algorithm 1's
    // scheduledNode.send(param) branch). A copy the controller holds only
    // because of an in-flight spill is not readable until that spill
    // lands. The CE bundle's adopt waits on the last byte.
    arrival = cluster_->fabric().transfer(
        cluster::Cluster::controller_id(), dst_fid, param.bytes,
        tracing ? str_cat("ctl->", std::to_string(worker), ":", directory_.name_of(id))
                : std::string{},
        governor_->acquire_controller_copy(id), dst_edge);
    ++metrics_.controller_sends;
  } else {
    // P2P branch (Algorithm 1's peer send): the fastest live up-to-date
    // holder stages its copy and the controller puts it on the wire. The
    // source replica is pinned until the last byte lands; the unpin rides
    // an ack back to the controller, one destination edge later, so the
    // governor cannot free the allocation out from under the staged read.
    const std::size_t src = fastest_holder(id, dst_fid);
    governor_->pin(src, id);
    arrival = gpusim::make_event();
    std::string label = tracing ? str_cat("p2p", std::to_string(src), "->",
                                          std::to_string(worker), ":", directory_.name_of(id))
                                : std::string{};
    const auto src32 = static_cast<std::uint32_t>(src);
    const auto dst32 = static_cast<std::uint32_t>(worker);
    cluster_->send_staged(src, id, param.bytes, dst_fid, std::move(label), /*free_source=*/false,
                          [this, arrival, id, src32, dst32] {
                            sim::Simulator& engine = cluster_->simulator();
                            arrival->complete(engine.now());
                            engine.schedule_at(engine.now() + cluster_->controller_edge(dst32),
                                               [this, id, src32] {
                                                 governor_->unpin(src32, id);
                                                 governor_->enforce(src32);
                                               });
                          });
    ++metrics_.p2p_sends;
  }
  metrics_.bytes_planned += param.bytes;
  directory_.add_worker_copy(id, worker);
  return arrival;
}

std::size_t GroutRuntime::fastest_holder(GlobalArrayId id, net::NodeId dst_fid) const {
  const LocationSet& holders = directory_.holders(id);
  GROUT_CHECK(holders.holder_count() > (holders.controller() ? 1u : 0u),
              "no up-to-date worker holds the array");
  std::size_t best = 0;
  double best_bps = 0.0;
  holders.for_each_worker([&](std::size_t s) {
    const double bps =
        cluster_->fabric().bandwidth(cluster::Cluster::worker_fabric_id(s), dst_fid).bps();
    if (bps > best_bps) {
      best_bps = bps;
      best = s;
    }
  });
  return best;
}

bool GroutRuntime::wait_controller_copy(GlobalArrayId array) {
  // The controller may hold `array` only by virtue of an in-flight spill;
  // the data is not readable until that transfer lands. Drive the event
  // loop, but never past the run cap.
  const gpusim::EventPtr pending = governor_->acquire_controller_copy(array);
  return cluster_->simulator().run_until_done(
      config_.run_cap, [&] { return pending == nullptr || pending->completed(); },
      "deadlock while waiting for a spill to reach the controller");
}

bool GroutRuntime::host_fetch(GlobalArrayId array) {
  if (directory_.up_to_date_on_controller(array)) return wait_controller_copy(array);
  // Pin the staging source so the governor cannot free the allocation out
  // from under the host-side gather. `landed` is the controller-side proxy
  // the event loop below waits on.
  const std::size_t src = fastest_holder(array, cluster::Cluster::controller_id());
  governor_->pin(src, array);
  const gpusim::EventPtr landed = gpusim::make_event();
  std::string label =
      cluster_->tracer().enabled() ? str_cat("fetch:", directory_.name_of(array)) : std::string{};
  const auto src32 = static_cast<std::uint32_t>(src);
  cluster_->send_staged(src, array, directory_.bytes_of(array), cluster::Cluster::controller_id(),
                        std::move(label), /*free_source=*/false, [this, array, landed, src32] {
                          governor_->unpin(src32, array);
                          governor_->enforce(src32);
                          landed->complete(cluster_->simulator().now());
                        });

  // Drive the event loop, but never past the run cap: an unbounded wait
  // here could spin a stalled run forever instead of reporting out-of-time.
  if (!cluster_->simulator().run_until_done(
          config_.run_cap, [&] { return landed->completed(); },
          "deadlock while fetching an array to the controller")) {
    return false;
  }
  directory_.add_controller_copy(array);
  // The gather materialized a real controller copy; any stale spill record
  // (already superseded by a worker write) is redundant now.
  governor_->release_spilled(array);
  return true;
}

bool GroutRuntime::synchronize() {
  return cluster_->simulator().run_until(config_.run_cap);
}

SchedulerMetrics& GroutRuntime::metrics() {
  // Snapshot the governor's per-worker replica accounting.
  metrics_.worker_resident = governor_->resident_by_worker();
  metrics_.worker_resident_peak.resize(cluster_->worker_count());
  for (std::size_t w = 0; w < cluster_->worker_count(); ++w) {
    metrics_.worker_resident_peak[w] = governor_->high_water(w);
  }
  // Directory-traffic totals (shared-state contention visibility).
  metrics_.invalidations = directory_.invalidations();
  metrics_.ownership_transfers = directory_.ownership_transfers();
  metrics_.coherence_refetches = directory_.coherence_refetches();
  metrics_.invalidated_bytes = directory_.invalidated_bytes();
  metrics_.refetched_bytes = directory_.refetched_bytes();
  return metrics_;
}

uvm::UvmStats GroutRuntime::aggregated_uvm_stats() const {
  uvm::UvmStats total;
  for (std::size_t i = 0; i < cluster_->worker_count(); ++i) {
    const uvm::UvmStats& s = cluster_->worker(i).node().uvm().stats();
    total.bytes_fetched += s.bytes_fetched;
    total.bytes_written_back += s.bytes_written_back;
    total.faults += s.faults;
    total.evictions += s.evictions;
    total.storm_kernels += s.storm_kernels;
    total.kernels += s.kernels;
    total.peak_oversubscription = std::max(total.peak_oversubscription, s.peak_oversubscription);
    total.prefetch_issued += s.prefetch_issued;
    total.prefetch_useful += s.prefetch_useful;
  }
  return total;
}

}  // namespace grout::core
