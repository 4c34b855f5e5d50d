#include "core/grout_runtime.hpp"

#include <algorithm>
#include <chrono>

#include "net/message.hpp"

namespace grout::core {

namespace {
using WallClock = std::chrono::steady_clock;

/// One array the CE bundle materializes on the worker at delivery time.
struct EnsureOp {
  GlobalArrayId id{0};
  Bytes bytes{0};
  std::string name;
  std::optional<uvm::Advise> advise;
};

/// One inbound copy the CE bundle adopts (Worker::accept_receive) at
/// delivery time.
struct AdoptOp {
  GlobalArrayId id{0};
  gpusim::EventPtr arrival;
};
}  // namespace

GroutRuntime::GroutRuntime(GroutConfig config)
    : config_{std::move(config)},
      cluster_{std::make_unique<cluster::Cluster>(config_.cluster)},
      directory_{config_.cluster.workers} {
  const bool min_transfer = config_.policy == PolicyKind::MinTransferSize ||
                            config_.policy == PolicyKind::MinTransferTime;
  if (min_transfer && config_.exploration_threshold_override.has_value()) {
    policy_ = std::make_unique<MinTransferPolicy>(
        config_.policy == PolicyKind::MinTransferTime,
        *config_.exploration_threshold_override);
  } else {
    policy_ = make_policy(config_.policy, config_.step_vector, config_.exploration);
  }
  metrics_.assignments.assign(config_.cluster.workers, 0);
  metrics_.inflight.assign(config_.cluster.workers, 0);
  alive_.assign(config_.cluster.workers, true);
  GROUT_REQUIRE(config_.worker_mem_headroom > 0.0, "worker_mem_headroom must be positive");
  const Bytes node_gpu_mem =
      config_.cluster.worker_node.gpu_count * config_.cluster.worker_node.device.memory;
  const Bytes budget = config_.worker_mem.value_or(static_cast<Bytes>(
      config_.worker_mem_headroom * static_cast<double>(node_gpu_mem)));
  governor_ = std::make_unique<MemoryGovernor>(*cluster_, directory_, metrics_, budget);
  cluster_->fabric().set_control_retry(config_.control_retry);
  if (!config_.fault_plan.empty()) {
    for (const net::KillWorkerFault& k : config_.fault_plan.kills) {
      GROUT_REQUIRE(k.worker < config_.cluster.workers, "fault plan kills an unknown worker");
    }
    // Degrade endpoints are fabric ids: the controller plus one per worker.
    const std::size_t nodes = cluster_->fabric().node_count();
    for (const net::DegradeLinkFault& d : config_.fault_plan.degrades) {
      GROUT_REQUIRE(static_cast<std::size_t>(d.a) < nodes && static_cast<std::size_t>(d.b) < nodes,
                    "fault plan degrades a link to an unknown node");
    }
    injector_ = std::make_unique<net::FaultInjector>(cluster_->simulator(), cluster_->fabric(),
                                                     config_.fault_plan);
    injector_->arm([this](std::size_t w) { handle_worker_death(w); });
  }
}

GlobalArrayId GroutRuntime::alloc(Bytes bytes, std::string name, TenantId tenant) {
  const GlobalArrayId id = directory_.register_array(bytes, std::move(name));
  if (tenant != kNoTenant) governor_->set_array_owner(id, tenant);
  return id;
}

void GroutRuntime::set_tenant_quota(TenantId tenant, Bytes quota) {
  governor_->set_tenant_quota(tenant, quota);
}

void GroutRuntime::host_init(GlobalArrayId array) {
  // Controller-side writes touch only controller memory; the directory
  // update invalidates every worker copy for future CEs. Worker-side CEs
  // already scheduled keep their own (consistent) snapshots.
  global_dag_.add("host-init:" + directory_.name_of(array),
                  {dag::AccessSummary{array, true}});
  directory_.written_on_controller(array);
  // The host write supersedes any spilled copy: its bytes are free.
  governor_->release_spilled(array);
}

void GroutRuntime::advise(GlobalArrayId array, uvm::Advise advise) {
  GROUT_REQUIRE(array < directory_.array_count(), "unknown global array");
  if (array >= advises_.size()) advises_.resize(std::size_t{array} + 1);
  advises_[array] = advise;
  // Existing replicas get the advise through a reliable command to each
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
        /*reliable=*/true);
  }
}

CeTicket GroutRuntime::launch(gpusim::KernelLaunchSpec spec) {
  // Global DAG insertion (frontier scan + redundant-edge filtering).
  std::vector<dag::AccessSummary> accesses;
  accesses.reserve(spec.params.size());
  for (const auto& p : spec.params) {
    accesses.push_back(dag::AccessSummary{p.array, uvm::writes(p.mode)});
  }
  const dag::VertexId v = global_dag_.add(spec.name, std::move(accesses));
  const CeRecord& rec = add_record(v, std::move(spec));
  dispatch(v);
  return CeTicket{v, rec.worker, rec.done};
}

GroutRuntime::CeRecord& GroutRuntime::add_record(dag::VertexId v, gpusim::KernelLaunchSpec spec) {
  // Record the CE so a fault can re-dispatch it; `done` is the logical
  // completion event and fires exactly once, however many attempts it takes.
  record_slot_.resize(v + 1, kNoRecord);
  record_slot_[v] = records_.size();
  CeRecord& rec = records_.emplace_back();
  rec.spec = std::move(spec);
  rec.done = gpusim::make_event();
  track_pending(rec.done);
  return rec;
}

void GroutRuntime::dispatch(dag::VertexId v) {
  const auto t0 = WallClock::now();
  CeRecord& rec = record(v);
  rec.dispatching = true;
  const gpusim::KernelLaunchSpec& spec = rec.spec;

  // 1. Node-level policy decision (only live workers are eligible).
  std::vector<PlacementParam> params;
  params.reserve(spec.params.size());
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
  query.outstanding = &metrics_.inflight;
  query.alive = &alive_;
  query.resident = &governor_->resident_by_worker();
  query.mem_budget = governor_->budget();
  query.tenant = spec.tenant;
  query.tenant_resident = &governor_->resident_by_tenant();
  query.tenant_quota = governor_->tenant_quota(spec.tenant);
  bool explored = false;
  query.explored = &explored;
  const std::size_t w = policy_->assign(query);
  GROUT_CHECK(w < cluster_->worker_count() && alive_[w],
              "policy returned an invalid or dead worker");
  if (explored) ++metrics_.exploration_placements;
  if (query.tenant_quota != 0 && !placement_admissible(query, w)) {
    // No quota-admissible worker existed and the CE fell through to a live
    // one: the pressure signal the serving admission controller watches.
    ++metrics_.quota_overflows;
  }

  // 2. Memory governance, then the data movements implied by the placement
  //    (Algorithm 1, last loop). Cold replicas are evicted *before* the
  //    allocations so the worker never overshoots its budget. The
  //    controller only updates its own accounting here; the worker-side
  //    allocations (and advises) are collected into the CE bundle and
  //    materialize on the worker at delivery time.
  governor_->make_room(w, params, spec.tenant);
  cluster::Worker& worker = cluster_->worker(w);
  std::vector<EnsureOp> ensures;
  ensures.reserve(spec.params.size());
  for (const auto& p : spec.params) {
    const auto id = static_cast<GlobalArrayId>(p.array);
    const bool fresh = governor_->note_ensure(w, id);
    governor_->note_use(w, id);
    EnsureOp op{id, directory_.bytes_of(id), directory_.name_of(id), std::nullopt};
    if (fresh && id < advises_.size()) op.advise = advises_[id];
    ensures.push_back(std::move(op));
  }
  for (const GlobalArrayId id : unique_arrays(spec)) governor_->pin(w, id);
  std::vector<AdoptOp> adopts;
  for (const PlacementParam& p : params) {
    if (!p.needs_data) continue;
    if (!directory_.holders(p.array).any()) {
      // Every copy died with its worker; rebuild one from DAG lineage
      // before planning the inbound transfer.
      GROUT_CHECK(config_.lineage_recovery,
                  "input array has no up-to-date copy and lineage recovery is disabled");
      recover_array(p.array);
    }
    if (gpusim::EventPtr arrival = plan_movement(p, w)) {
      adopts.push_back(AdoptOp{p.array, std::move(arrival)});
    }
  }

  // 3. Marshal the CE into one ordered command-lane bundle; its delivery
  //    *is* the arrival gate. On delivery the bundle runs on the worker:
  //    it materializes the allocations, adopts the inbound copies and
  //    submits the kernel to the intra-node runtime (Algorithm 2). The lane
  //    retries dropped attempts with exponential backoff and abandons the
  //    bundle if the worker dies first (recovery supersedes it). The wire
  //    buffer is a member reused across dispatches (encode_ce resets it; no
  //    nested dispatch survives to this point, so reuse is safe).
  const Bytes message_bytes = net::encode_ce(spec, wire_buffer_);

  rec.worker = w;
  const std::uint32_t attempt = ++rec.attempt;

  const auto t1 = WallClock::now();
  metrics_.decision_ns.add(
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  ++metrics_.ces_scheduled;
  ++metrics_.assignments[w];
  ++metrics_.inflight[w];

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
      // dropped replicas, tenant-tagged like the dispatch span above.
      const SimTime at = cluster_->simulator().now();
      cluster_->tracer().record(
          sim::TraceCategory::Scheduling,
          "invalidate:" + directory_.name_of(id) + "(x" +
              std::to_string(effect.invalidations) +
              (effect.ownership_transfer ? ",xfer)" : ")"),
          "controller", at, at, spec.tenant);
    }
  }

  // The stored rec.spec stays put: a fault may re-dispatch or replay it.
  gpusim::KernelLaunchSpec wire_spec = spec;

  sim::Simulator& engine = cluster_->simulator();
  const SimTime edge = cluster_->controller_edge(w);
  cluster_->fabric().send_command(
      cluster::Cluster::controller_id(), cluster::Cluster::worker_fabric_id(w), message_bytes,
      [this, &worker, &engine, edge, v, attempt, wire_spec = std::move(wire_spec),
       ensures = std::move(ensures), adopts = std::move(adopts)]() mutable {
        for (const EnsureOp& e : ensures) {
          const uvm::ArrayId local = worker.ensure_array(e.id, e.bytes, e.name);
          if (e.advise) worker.node().uvm().advise(local, *e.advise);
        }
        for (AdoptOp& a : adopts) worker.accept_receive(a.id, std::move(a.arrival));
        runtime::Submission sub = worker.execute_kernel(std::move(wire_spec));
        // The completion acks back to the controller one fabric edge later;
        // the DAG/pin bookkeeping runs there.
        sub.done->on_complete([this, &engine, edge, v, attempt] {
          engine.schedule_at(engine.now() + edge,
                             [this, v, attempt] { on_ce_complete(v, attempt); });
        });
      },
      /*reliable=*/false);

  if (spec.tenant != kNoTenant && cluster_->tracer().enabled()) {
    // Serving dispatch decision, tenant-tagged so one shared-cluster trace
    // can be filtered into per-tenant timelines.
    const SimTime at = cluster_->simulator().now();
    cluster_->tracer().record(sim::TraceCategory::Scheduling,
                              "dispatch:" + spec.name + "->worker" + std::to_string(w),
                              "controller", at, at, spec.tenant);
  }
  rec.dispatching = false;
}

void GroutRuntime::track_pending(gpusim::EventPtr event) {
  pending_.push_back(std::move(event));
  if (pending_.size() < pending_sweep_at_) return;
  std::erase_if(pending_, [](const gpusim::EventPtr& e) { return e->completed(); });
  // Double the trigger from the surviving size so the amortized sweep cost
  // per tracked event stays O(1) even when nothing ever completes.
  pending_sweep_at_ = std::max<std::size_t>(64, pending_.size() * 2);
}

void GroutRuntime::on_ce_complete(dag::VertexId v, std::uint32_t attempt) {
  CeRecord& rec = record(v);
  // A completion from a superseded attempt (the worker died and the CE was
  // re-dispatched) carries a stale attempt number: ignore it.
  if (rec.completed || attempt != rec.attempt) return;
  rec.completed = true;
  GROUT_CHECK(metrics_.inflight[rec.worker] > 0, "in-flight counter underflow");
  --metrics_.inflight[rec.worker];
  global_dag_.mark_done(v);
  // The CE's pins lapse: re-establish the worker's budget now that its
  // replicas are evictable again.
  for (const GlobalArrayId id : unique_arrays(rec.spec)) governor_->unpin(rec.worker, id);
  governor_->enforce(rec.worker);
  rec.done->complete(cluster_->simulator().now());
}

std::vector<GlobalArrayId> GroutRuntime::unique_arrays(const gpusim::KernelLaunchSpec& spec) {
  std::vector<GlobalArrayId> ids;
  ids.reserve(spec.params.size());
  for (const auto& p : spec.params) {
    const auto id = static_cast<GlobalArrayId>(p.array);
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  return ids;
}

void GroutRuntime::handle_worker_death(std::size_t w) {
  GROUT_REQUIRE(w < alive_.size(), "worker index out of range");
  if (!alive_[w]) return;
  alive_[w] = false;
  ++metrics_.worker_deaths;
  const SimTime at = cluster_->simulator().now();
  cluster_->tracer().record(sim::TraceCategory::Scheduling, "death:worker" + std::to_string(w),
                            "controller", at, at);

  // Forget every copy the dead worker held; arrays left holderless need a
  // rebuilt copy before anyone can read them again. The governor frees the
  // dead node's local allocations so its replicas don't linger.
  const std::vector<GlobalArrayId> orphaned = directory_.drop_worker(w);
  governor_->drop_worker(w);
  if (!config_.lineage_recovery) return;  // leave the orphans lost (baseline)

  for (const GlobalArrayId id : orphaned) recover_array(id);

  // CEs dispatched to the dead worker that never completed: reschedule
  // through the active policy, oldest first so producers precede consumers.
  // (recover_array may already have moved some of them.)
  std::vector<dag::VertexId> stranded;
  for (dag::VertexId v = 0; v < record_slot_.size(); ++v) {
    const CeRecord* rec = find_record(v);
    if (rec != nullptr && rec->worker == w && !rec->completed) stranded.push_back(v);
  }
  for (const dag::VertexId v : stranded) {
    const CeRecord& rec = record(v);
    if (rec.worker != w || rec.completed) continue;
    GROUT_CHECK(metrics_.inflight[w] > 0, "in-flight counter underflow");
    --metrics_.inflight[w];
    ++metrics_.ces_rescheduled;
    dispatch(v);
  }
}

void GroutRuntime::recover_array(GlobalArrayId id) {
  if (directory_.holders(id).any()) return;
  GROUT_CHECK(recovering_.insert(id).second,
              "array is unrecoverable: its producer consumes the lost copy");
  const dag::VertexId v = global_dag_.last_writer_of(id);
  GROUT_CHECK(v != dag::kNoVertex, "lost array has no lineage to replay");
  CeRecord* producer = find_record(v);
  if (producer == nullptr) {
    // The last writer was controller-side host code (host_init): the
    // controller still has the program that produced it.
    directory_.add_controller_copy(id);
  } else if (!producer->completed) {
    // An in-flight producer that is *currently being dispatched* can only be
    // reached through its own input loop — the lost array is one the producer
    // both reads and writes (directly, or through a replay chain that cycles
    // back to it). That is the in-place-update case: no acyclic lineage
    // exists, so fail loudly rather than recurse into dispatch.
    GROUT_CHECK(!producer->dispatching,
                "array is unrecoverable: its producer consumes the lost copy");
    // The producer was still in flight on the dead node; re-dispatching it
    // re-establishes ownership (eager directory update) and re-runs it.
    GROUT_CHECK(metrics_.inflight[producer->worker] > 0, "in-flight counter underflow");
    --metrics_.inflight[producer->worker];
    ++metrics_.ces_rescheduled;
    dispatch(v);
  } else {
    // Completed producer: replay it as a fresh CE on a survivor
    // (Spark-RDD-style lineage recovery; its own lost inputs recover
    // recursively through dispatch).
    replay_vertex(v);
  }
  ++metrics_.arrays_recovered;
  recovering_.erase(id);
  GROUT_CHECK(directory_.holders(id).any(), "lineage recovery failed to restore a holder");
}

void GroutRuntime::replay_vertex(dag::VertexId v) {
  gpusim::KernelLaunchSpec spec = record(v).spec;
  spec.name = "replay:" + spec.name;
  std::vector<dag::AccessSummary> accesses;
  accesses.reserve(spec.params.size());
  for (const auto& p : spec.params) {
    accesses.push_back(dag::AccessSummary{p.array, uvm::writes(p.mode)});
  }
  // The replay is a new Global-DAG vertex, so later recoveries can trace
  // lineage through it like any other CE.
  const dag::VertexId rv = global_dag_.add(spec.name, std::move(accesses));
  add_record(rv, std::move(spec));
  ++metrics_.ces_replayed;
  dispatch(rv);
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
  if (holders.controller() &&
      cluster_->fabric().bandwidth(cluster::Cluster::controller_id(), dst_fid).valid()) {
    // Controller holds a current copy and the route is up: direct send
    // (Algorithm 1's scheduledNode.send(param) branch). A copy the
    // controller holds only because of an in-flight spill is not readable
    // until that spill lands. The CE bundle's adopt waits on the last byte.
    arrival = cluster_->fabric().transfer_into(
        cluster::Cluster::controller_id(), dst_fid, param.bytes, dst_edge,
        tracing ? "ctl->" + std::to_string(worker) + ":" + directory_.name_of(id)
                : std::string{},
        governor_->acquire_controller_copy(id));
    ++metrics_.controller_sends;
  } else {
    // P2P branch: pick the up-to-date worker with the fastest *live* route.
    // A zero-bandwidth (degraded/down) link disqualifies a source — it must
    // never be silently picked as a fallback.
    GROUT_CHECK(holders.any(), "no source for a required parameter");
    std::size_t best = 0;
    double best_bps = 0.0;
    bool found = false;
    holders.for_each_worker([&](std::size_t s) {
      const double bps =
          cluster_->fabric().bandwidth(cluster::Cluster::worker_fabric_id(s), dst_fid).bps();
      if (bps > best_bps) {
        best_bps = bps;
        best = s;
        found = true;
      }
    });
    GROUT_CHECK(found,
                "required array unreachable: every route from an up-to-date holder "
                "has zero bandwidth");
    // The source worker gathers the array to its host memory (its local
    // DAG orders the staging after local writers): a reliable command
    // reaches it one edge later, the staging completion acks back to the
    // controller, and the controller then puts the bytes on the wire to
    // the destination. The source replica is pinned until the last byte
    // lands (the unpin rides an ack back to the controller, one edge
    // later) so the governor cannot free the allocation out from under the
    // staged read.
    governor_->pin(best, id);
    arrival = gpusim::make_event();
    sim::Simulator& engine = cluster_->simulator();
    net::NetworkFabric& fabric = cluster_->fabric();
    cluster::Worker& src = cluster_->worker(best);
    const net::NodeId src_fid = cluster::Cluster::worker_fabric_id(best);
    const SimTime src_edge = cluster_->controller_edge(best);
    const Bytes bytes = param.bytes;
    const std::string label = tracing ? "p2p" + std::to_string(best) + "->" +
                                            std::to_string(worker) + ":" + directory_.name_of(id)
                                      : std::string{};
    MemoryGovernor* gov = governor_.get();
    fabric.send_command(
        cluster::Cluster::controller_id(), src_fid, 0,
        [&src, &engine, &fabric, gov, src_edge, dst_edge, src_fid, dst_fid, id, bytes, label,
         arrival, best] {
          runtime::Submission staged = src.stage_send(id);
          staged.done->on_complete([&engine, &fabric, gov, src_edge, dst_edge, src_fid, dst_fid,
                                    id, bytes, label, arrival, best] {
            engine.schedule_at(
                engine.now() + src_edge,
                [&engine, &fabric, gov, dst_edge, src_fid, dst_fid, id, bytes, label, arrival,
                 best] {
                  const gpusim::EventPtr wire =
                      fabric.transfer_into(src_fid, dst_fid, bytes, dst_edge, label);
                  wire->on_complete([&engine, gov, dst_edge, id, arrival, best] {
                    arrival->complete(engine.now());
                    engine.schedule_at(engine.now() + dst_edge,
                                       [gov, id, best] { gov->unpin(best, id); });
                  });
                });
          });
        },
        /*reliable=*/true);
    ++metrics_.p2p_sends;
  }
  metrics_.bytes_planned += param.bytes;
  directory_.add_worker_copy(id, worker);
  return arrival;
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
  if (!directory_.holders(array).any()) {
    // Every copy died with its worker(s): rebuild one from DAG lineage.
    GROUT_CHECK(config_.lineage_recovery,
                "no holder for array (and lineage recovery is disabled)");
    recover_array(array);
    if (directory_.up_to_date_on_controller(array)) return wait_controller_copy(array);
  }
  const LocationSet& holders = directory_.holders(array);
  GROUT_CHECK(holders.any(), "no holder for array");
  // Fastest live route to the controller; zero-bandwidth routes disqualify
  // a source rather than being silently picked as the first holder.
  std::size_t best = 0;
  double best_bps = 0.0;
  bool found = false;
  holders.for_each_worker([&](std::size_t s) {
    const double bps = cluster_->fabric()
                           .bandwidth(cluster::Cluster::worker_fabric_id(s),
                                      cluster::Cluster::controller_id())
                           .bps();
    if (bps > best_bps) {
      best_bps = bps;
      best = s;
      found = true;
    }
  });
  GROUT_CHECK(found,
              "array unreachable: every route from an up-to-date holder to the "
              "controller has zero bandwidth");
  // Pin the staging source so the governor cannot free the allocation out
  // from under the host-side gather. The staging itself runs on the
  // source worker (a reliable command reaches it one edge later), its
  // completion acks back, and the controller then starts the wire
  // transfer home — `landed` is the controller-side proxy the event loop
  // below waits on.
  governor_->pin(best, array);
  const gpusim::EventPtr landed = gpusim::make_event();
  {
    sim::Simulator& engine = cluster_->simulator();
    net::NetworkFabric& fabric = cluster_->fabric();
    cluster::Worker& src = cluster_->worker(best);
    const net::NodeId src_fid = cluster::Cluster::worker_fabric_id(best);
    const SimTime edge = cluster_->controller_edge(best);
    const Bytes bytes = directory_.bytes_of(array);
    const std::string label =
        cluster_->tracer().enabled() ? "fetch:" + directory_.name_of(array) : std::string{};
    MemoryGovernor* gov = governor_.get();
    fabric.send_command(
        cluster::Cluster::controller_id(), src_fid, 0,
        [&src, &engine, &fabric, gov, edge, src_fid, array, bytes, label, landed, best] {
          runtime::Submission staged = src.stage_send(array);
          staged.done->on_complete(
              [&engine, &fabric, gov, edge, src_fid, array, bytes, label, landed, best] {
                engine.schedule_at(
                    engine.now() + edge,
                    [&engine, &fabric, gov, src_fid, array, bytes, label, landed, best] {
                      const gpusim::EventPtr wire = fabric.transfer(
                          src_fid, cluster::Cluster::controller_id(), bytes, label);
                      wire->on_complete([&engine, gov, array, landed, best] {
                        gov->unpin(best, array);
                        landed->complete(engine.now());
                      });
                    });
              });
        },
        /*reliable=*/true);
  }

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
  // Mirror the fabric's control-lane reliability counters so callers see a
  // single coherent metrics block.
  const net::NetworkFabric& fabric = cluster_->fabric();
  metrics_.control_retries = fabric.control_retries();
  metrics_.control_timeouts = fabric.control_timeouts();
  metrics_.control_drops = fabric.control_drops();
  // Snapshot the governor's per-worker replica accounting.
  metrics_.worker_resident = governor_->resident_by_worker();
  metrics_.worker_resident_peak.resize(cluster_->worker_count());
  for (std::size_t w = 0; w < cluster_->worker_count(); ++w) {
    metrics_.worker_resident_peak[w] = governor_->high_water(w);
  }
  // Per-tenant accounting (empty outside serve runs).
  metrics_.tenant_resident = governor_->resident_by_tenant();
  metrics_.tenant_quota = governor_->quota_by_tenant();
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
    total.prefetch_issued += s.prefetch_issued;
    total.prefetch_useful += s.prefetch_useful;
  }
  return total;
}

}  // namespace grout::core
