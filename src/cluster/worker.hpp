// A GrOUT Worker: one multi-GPU server running the GrCUDA intra-node
// runtime, receiving CEs and array copies from the Controller.
#pragma once

#include <vector>

#include "gpusim/gpu_node.hpp"
#include "net/fabric.hpp"
#include "runtime/intra_node_runtime.hpp"

namespace grout::cluster {

/// Global (controller-assigned) array identifier.
using GlobalArrayId = std::uint32_t;

class Worker {
 public:
  Worker(sim::Simulator& simulator, gpusim::GpuNodeConfig node_config, net::NodeId fabric_id,
         runtime::StreamPolicyKind stream_policy, std::size_t streams_per_gpu,
         sim::Tracer* tracer = nullptr);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  [[nodiscard]] net::NodeId fabric_id() const { return fabric_id_; }
  [[nodiscard]] gpusim::GpuNode& node() { return node_; }
  [[nodiscard]] const gpusim::GpuNode& node() const { return node_; }
  [[nodiscard]] runtime::IntraNodeRuntime& runtime() { return runtime_; }

  /// Map a global array to this node's local allocation (lazily created).
  uvm::ArrayId ensure_array(GlobalArrayId global, Bytes bytes);

  [[nodiscard]] bool has_array(GlobalArrayId global) const {
    return global < local_ids_.size() && local_ids_[global] != uvm::kInvalidArray;
  }
  [[nodiscard]] uvm::ArrayId local_array(GlobalArrayId global) const;

  /// Forget the global->local mapping (and the local runtime's state for
  /// the allocation) and free the local allocation. When `after` is set
  /// the UvmSpace free is deferred until it completes (an
  /// in-flight staged send may still read the allocation); the mapping is
  /// dropped immediately either way, so a re-ensure allocates afresh. A
  /// global id this worker does not hold is a no-op.
  void release_array(GlobalArrayId global, gpusim::EventPtr after = nullptr);

  /// Execute a kernel CE whose params refer to *global* array ids; they are
  /// translated to this node's local allocations.
  runtime::Submission execute_kernel(gpusim::KernelLaunchSpec spec);

  /// Prepare an array for sending: gathers GPU-resident pages to host
  /// memory after local writers finish. The returned submission's event
  /// marks "host copy consistent, safe to put on the wire".
  runtime::Submission stage_send(GlobalArrayId global);

  /// Install an incoming copy once `arrival` (network) fires, ordered
  /// against local readers/writers of the same array.
  runtime::Submission accept_receive(GlobalArrayId global, gpusim::EventPtr arrival);

 private:
  gpusim::GpuNode node_;
  runtime::IntraNodeRuntime runtime_;
  net::NodeId fabric_id_;
  /// Local allocation of each global array, indexed by GlobalArrayId
  /// (kInvalidArray = not held). The controller hands global ids out
  /// densely, so the table is as long as the highest id this worker held.
  std::vector<uvm::ArrayId> local_ids_;
};

}  // namespace grout::cluster
