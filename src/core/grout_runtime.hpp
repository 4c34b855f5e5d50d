// GroutRuntime: the Controller (Figure 3) and the node-level half of the
// hierarchical scheduler (Algorithm 1).
//
// The user program allocates logical arrays, initializes them on the
// controller, and launches kernel CEs; the runtime
//   1. inserts each CE into the Global DAG (frontier + redundant-edge
//      filtering),
//   2. applies the selected inter-node policy to pick a Worker,
//   3. plans the implied data movements (controller->worker send, or P2P
//      between workers) and wires them as events,
//   4. forwards the CE to the Worker's GrCUDA intra-node runtime, which
//      picks a CUDA stream and inserts the async waits (Algorithm 2).
//
// All of this is real scheduler code; only kernels, PCIe and the network
// advance the virtual clock.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/directory.hpp"
#include "core/memory_governor.hpp"
#include "core/metrics.hpp"
#include "core/policies.hpp"
#include "dag/dependency_dag.hpp"
#include "net/fault.hpp"

namespace grout::core {

struct GroutConfig {
  cluster::ClusterConfig cluster{};
  PolicyKind policy{PolicyKind::VectorStep};
  std::vector<std::uint32_t> step_vector{1};
  ExplorationLevel exploration{ExplorationLevel::Medium};
  /// When set, overrides the exploration level with a raw viability
  /// threshold in [0, 1] for the min-transfer policies (ablation sweeps).
  std::optional<double> exploration_threshold_override{};
  /// Per-run execution cap (the paper caps single runs at 2.5 hours).
  SimTime run_cap = SimTime::from_seconds(9000.0);
  /// Deterministic fault schedule (empty = fault-free run). Its kills are
  /// the only membership changes a run sees: the worker set is otherwise
  /// fixed at construction.
  net::FaultPlan fault_plan{};
  /// Control-lane retry behaviour (timeout + exponential backoff).
  net::ControlRetryConfig control_retry{};
  /// Rebuild arrays whose only copy died by replaying their producer CEs
  /// from the Global DAG. Disable to observe the unrecovered failure mode.
  bool lineage_recovery{true};
  /// Per-worker replica-cache budget in bytes (--worker-mem). nullopt =
  /// derive from the node's combined GPU memory x worker_mem_headroom; an
  /// explicit 0 = unbounded (the pre-governor behavior).
  std::optional<Bytes> worker_mem{};
  /// Headroom multiplier for the derived default budget. Replicas are
  /// staged through host DRAM, which the evaluation nodes provision at
  /// several times the GPU capacity.
  double worker_mem_headroom{8.0};
};

/// Handle to a launched CE.
struct CeTicket {
  dag::VertexId global_vertex{dag::kNoVertex};
  std::size_t worker{0};
  gpusim::EventPtr done;
};

class GroutRuntime {
 public:
  explicit GroutRuntime(GroutConfig config);

  GroutRuntime(const GroutRuntime&) = delete;
  GroutRuntime& operator=(const GroutRuntime&) = delete;

  // -- user program surface -------------------------------------------------

  /// Allocate a logical array; the controller holds the initial copy.
  /// `tenant` attributes the array to a serving tenant: its replicas count
  /// against that tenant's cluster-wide resident bytes and quota.
  GlobalArrayId alloc(Bytes bytes, std::string name, TenantId tenant = kNoTenant);

  /// Cap a serving tenant's cluster-wide resident replica bytes
  /// (0 = unlimited). Enforced at placement admission; the serving
  /// frontend's admission controller consults the same accounting.
  void set_tenant_quota(TenantId tenant, Bytes quota);

  /// Controller-side initialization (Listing 1's host writes): the
  /// controller copy becomes the single authoritative one.
  void host_init(GlobalArrayId array);

  /// Record a device-agnostic memory advise (e.g. ReadMostly); it is
  /// applied to every worker's local allocation, present and future.
  void advise(GlobalArrayId array, uvm::Advise advise);

  /// Launch a kernel CE; `spec.params[*].array` hold GlobalArrayIds.
  CeTicket launch(gpusim::KernelLaunchSpec spec);

  /// Make the controller copy current (e.g. before printing results).
  /// Blocks — advances virtual time — until the gather completes. Returns
  /// false if the run cap (GroutConfig::run_cap) expired before the data
  /// landed: the paper's out-of-time condition, reported instead of
  /// spinning the event loop forever.
  [[nodiscard]] bool host_fetch(GlobalArrayId array);

  /// Drain all outstanding work. Returns false if the run cap expired with
  /// work still pending (the paper's out-of-time condition).
  bool synchronize();

  [[nodiscard]] SimTime now() const { return cluster_->simulator().now(); }

  // -- introspection ---------------------------------------------------------

  [[nodiscard]] cluster::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] const CoherenceDirectory& directory() const { return directory_; }
  [[nodiscard]] const MemoryGovernor& governor() const { return *governor_; }
  [[nodiscard]] const dag::DependencyDag& global_dag() const { return global_dag_; }
  /// Scheduler metrics; control-lane counters are synced from the fabric on
  /// every call so callers always see current retry/timeout totals.
  [[nodiscard]] SchedulerMetrics& metrics();
  [[nodiscard]] PolicyKind policy() const { return policy_->kind(); }
  [[nodiscard]] bool worker_alive(std::size_t w) const {
    GROUT_REQUIRE(w < alive_.size(), "worker index out of range");
    return alive_[w];
  }

  /// Aggregated UVM stats over all workers (storm counters etc.).
  [[nodiscard]] uvm::UvmStats aggregated_uvm_stats() const;

 private:
  /// Bookkeeping for every CE the runtime has dispatched. `done` is the
  /// *logical* completion event handed out in the CeTicket: it survives
  /// rescheduling onto another worker after a fault. `attempt` guards
  /// against completions arriving from a dead worker's stale dispatch.
  struct CeRecord {
    gpusim::KernelLaunchSpec spec;
    std::size_t worker{0};
    std::uint32_t attempt{0};
    bool completed{false};
    /// This CE's dispatch is on the call stack. Lineage recovery reaching
    /// it as a producer found an in-place cycle (the dispatch's own input
    /// loop is what asked), which single-level replay cannot rebuild.
    bool dispatching{false};
    gpusim::EventPtr done;
  };

  /// Append the record of Global-DAG vertex `v` (just inserted) for `spec`.
  CeRecord& add_record(dag::VertexId v, gpusim::KernelLaunchSpec spec);
  /// The record of vertex `v`; nullptr for a host-init vertex.
  [[nodiscard]] CeRecord* find_record(dag::VertexId v) {
    return v < record_slot_.size() && record_slot_[v] != kNoRecord ? &records_[record_slot_[v]]
                                                                   : nullptr;
  }
  [[nodiscard]] CeRecord& record(dag::VertexId v) {
    CeRecord* rec = find_record(v);
    GROUT_CHECK(rec != nullptr, "no dispatch record for vertex");
    return *rec;
  }

  /// Plan and wire the transfers needed so `worker` holds `param` (Alg. 1,
  /// data-movement loop). Returns the network arrival event — the CE
  /// bundle adopts the copy (Worker::accept_receive) at delivery time — or
  /// nullptr if no movement was needed. A P2P source stages the array on
  /// its own worker: a reliable command reaches it one edge later, the
  /// staging completion acks back, and the controller then starts the wire
  /// transfer.
  gpusim::EventPtr plan_movement(const PlacementParam& param, std::size_t worker);

  /// Place, stage data for, and send the recorded CE `v` to a live worker.
  void dispatch(dag::VertexId v);
  /// Completion callback from the worker-side submission of attempt
  /// `attempt`; ignored when a newer attempt superseded it.
  void on_ce_complete(dag::VertexId v, std::uint32_t attempt);
  /// Fault-injector callback: worker `w` died at the current sim time.
  void handle_worker_death(std::size_t w);
  /// Rebuild an array with zero holders by replaying its last producer CE
  /// (Spark-RDD-style lineage recovery over the Global DAG).
  void recover_array(GlobalArrayId id);
  /// Re-execute completed vertex `v` as a fresh DAG vertex on a survivor.
  void replay_vertex(dag::VertexId v);
  /// Drive the event loop (never past the run cap) until a pending spill
  /// backing the controller's copy of `array` has landed, if any.
  bool wait_controller_copy(GlobalArrayId array);
  /// The CE's global array ids, deduplicated (pin/unpin bookkeeping).
  static std::vector<GlobalArrayId> unique_arrays(const gpusim::KernelLaunchSpec& spec);
  /// Record a completion event in `pending_`, sweeping out already-completed
  /// entries whenever the list doubles so long programs hold O(in-flight)
  /// events instead of one per CE/transfer for the life of the run.
  void track_pending(gpusim::EventPtr event);

  GroutConfig config_;
  std::unique_ptr<cluster::Cluster> cluster_;
  CoherenceDirectory directory_;
  std::unique_ptr<MemoryGovernor> governor_;
  dag::DependencyDag global_dag_;
  std::unique_ptr<InterNodePolicy> policy_;
  SchedulerMetrics metrics_;
  /// Completion events of submitted CEs and transfers still in flight;
  /// completed entries are pruned by track_pending's periodic sweep.
  std::vector<gpusim::EventPtr> pending_;
  std::size_t pending_sweep_at_{64};  ///< next pending_ size triggering a sweep
  /// CE wire buffer reused across dispatches (encode_ce resets it).
  std::vector<std::byte> wire_buffer_;
  /// Device-agnostic advises to apply to worker-local allocations, indexed
  /// by GlobalArrayId (nullopt = none).
  std::vector<std::optional<uvm::Advise>> advises_;
  /// Dispatch records in launch order. A deque never moves its elements on
  /// push_back, so a record reference dispatch() holds stays valid across
  /// the replays that nested lineage recovery appends.
  std::deque<CeRecord> records_;
  /// records_ slot of each Global-DAG vertex; host-init vertices have none.
  static constexpr std::size_t kNoRecord = ~std::size_t{0};
  std::vector<std::size_t> record_slot_;
  /// Liveness per worker: what PlacementQuery::alive sees. Only a
  /// fault-plan death clears an entry.
  std::vector<bool> alive_;
  /// Arrays whose recovery is on the call stack: re-entering for the same
  /// array means its producer consumes the lost copy — unrecoverable.
  std::unordered_set<GlobalArrayId> recovering_;
  std::unique_ptr<net::FaultInjector> injector_;
};

}  // namespace grout::core
