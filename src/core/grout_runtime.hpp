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
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/directory.hpp"
#include "core/memory_governor.hpp"
#include "core/metrics.hpp"
#include "core/policies.hpp"
#include "dag/dependency_dag.hpp"
#include "sim/slab.hpp"

namespace grout::core {

struct GroutConfig {
  cluster::ClusterConfig cluster{};
  PolicyKind policy{PolicyKind::VectorStep};
  std::vector<std::uint32_t> step_vector{1};
  /// Viability threshold in [0, 1] of the min-transfer policies (Section
  /// V-E); exploration_threshold() names the paper's three levels.
  double exploration_threshold{core::exploration_threshold(ExplorationLevel::Medium)};
  /// Per-run execution cap (the paper caps single runs at 2.5 hours).
  SimTime run_cap = SimTime::from_seconds(9000.0);
  /// Per-worker replica-cache budget in bytes (--worker-mem). nullopt =
  /// derive from the node's combined GPU memory x 8 (replicas are staged
  /// through host DRAM, which the evaluation nodes provision at several
  /// times the GPU capacity); an explicit 0 = unbounded (the pre-governor
  /// behavior).
  std::optional<Bytes> worker_mem{};
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
  /// toward that tenant's cluster-wide resident bytes.
  GlobalArrayId alloc(Bytes bytes, std::string name, TenantId tenant = kNoTenant);

  /// Controller-side initialization (Listing 1's host writes): the
  /// controller copy becomes the single authoritative one.
  void host_init(GlobalArrayId array);

  /// Record a memory advise (ReadMostly, or None to drop it); it is
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
  /// Scheduler metrics; the governor and directory totals are synced on
  /// every call so callers always see current values.
  [[nodiscard]] SchedulerMetrics& metrics();
  [[nodiscard]] PolicyKind policy() const { return policy_->kind(); }

  /// Aggregated UVM stats over all workers (storm counters etc.).
  [[nodiscard]] uvm::UvmStats aggregated_uvm_stats() const;

 private:
  /// Plan and wire the transfers needed so `worker` holds `param` (Alg. 1,
  /// data-movement loop). Returns the network arrival event — the CE
  /// bundle adopts the copy (Worker::accept_receive) at delivery time — or
  /// nullptr if no movement was needed. A P2P copy takes the staged-copy
  /// protocol (Cluster::send_staged).
  gpusim::EventPtr plan_movement(const PlacementParam& param, std::size_t worker);
  /// The up-to-date worker holding `id` with the fastest route to
  /// fabric node `dst_fid`; at least one worker must hold it.
  [[nodiscard]] std::size_t fastest_holder(GlobalArrayId id, net::NodeId dst_fid) const;

  /// One array a CE bundle materializes on the worker at delivery time.
  struct EnsureOp {
    GlobalArrayId id{0};
    Bytes bytes{0};
    std::optional<uvm::Advise> advise;
  };
  /// One inbound copy a CE bundle adopts (Worker::accept_receive) at
  /// delivery time.
  struct AdoptOp {
    GlobalArrayId id{0};
    gpusim::EventPtr arrival;
  };
  /// A dispatched CE, from its dispatch to its completion ack: the bundle
  /// the worker runs on delivery and the controller state the ack
  /// releases. The bundle's callbacks capture only the record's index.
  struct CeRecord {
    std::size_t worker{0};
    gpusim::KernelLaunchSpec spec;
    std::vector<EnsureOp> ensures;
    std::vector<AdoptOp> adopts;
    /// The CE's arrays, deduplicated, in the order they were pinned.
    std::vector<GlobalArrayId> pins;
    gpusim::EventPtr done;
  };

  /// Place, stage data for, and send the CE of Global-DAG vertex `v` to a
  /// worker.
  CeTicket dispatch(dag::VertexId v, gpusim::KernelLaunchSpec spec);
  /// The bundle of CE record `c` reached its worker: materialize, adopt,
  /// submit the kernel and ack its completion.
  void deliver_ce(std::uint32_t c);
  /// CE record `c` completed: release its pins, re-enforce its worker's
  /// budget, free the record and fire `done`. The controller keeps nothing
  /// of a CE past this call.
  void on_ce_complete(std::uint32_t c);
  /// Drive the event loop (never past the run cap) until a pending spill
  /// backing the controller's copy of `array` has landed, if any.
  bool wait_controller_copy(GlobalArrayId array);
  /// The CE's global array ids, deduplicated, into `ids` (pin/unpin
  /// bookkeeping).
  static void unique_arrays(const gpusim::KernelLaunchSpec& spec,
                            std::vector<GlobalArrayId>& ids);

  GroutConfig config_;
  std::unique_ptr<cluster::Cluster> cluster_;
  CoherenceDirectory directory_;
  std::unique_ptr<MemoryGovernor> governor_;
  dag::DependencyDag global_dag_;
  /// Global-DAG insert scratch, reused across inserts (the DAG copies
  /// both into its pools).
  std::string label_;
  std::vector<dag::AccessSummary> accesses_;
  std::unique_ptr<InterNodePolicy> policy_;
  SchedulerMetrics metrics_;
  /// Placement-query scratch, reused across dispatches.
  std::vector<PlacementParam> params_;
  /// Records of the dispatched CEs; a reused record keeps its vectors'
  /// capacity.
  sim::Slab<CeRecord> ces_;
  /// CE wire buffer reused across dispatches (encode_ce resets it).
  std::vector<std::byte> wire_buffer_;
  /// Device-agnostic advises to apply to worker-local allocations, indexed
  /// by GlobalArrayId (nullopt = none).
  std::vector<std::optional<uvm::Advise>> advises_;
};

}  // namespace grout::core
