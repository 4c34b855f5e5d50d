// GrCUDA-style intra-node runtime (Parravicini et al., IPDPS'21; the
// paper's Worker-side scheduler, Algorithm 2).
//
// Each submitted Computational Element is inserted into the Local DAG, a
// CUDA stream is selected by the active policy, asynchronous waits on the
// ancestors' end events are pushed into that stream, and the kernel is
// enqueued. Host read/write CEs go through the same DAG so that
// transfer/compute overlap never violates correctness.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dag/dependency_dag.hpp"
#include "gpusim/gpu_node.hpp"
#include "runtime/stream_policy.hpp"

namespace grout::runtime {

/// Handle to a submitted CE.
struct Submission {
  dag::VertexId vertex{dag::kNoVertex};
  gpusim::EventPtr done;  ///< completes when the CE has fully executed
};

class IntraNodeRuntime {
 public:
  IntraNodeRuntime(gpusim::GpuNode& node, StreamPolicyKind policy = StreamPolicyKind::LeastLoaded,
                   std::size_t streams_per_gpu = 2);

  IntraNodeRuntime(const IntraNodeRuntime&) = delete;
  IntraNodeRuntime& operator=(const IntraNodeRuntime&) = delete;

  /// Submit a kernel CE. Dependencies are derived from `spec.params`; when
  /// `external` is set, the kernel additionally waits for it (e.g. the
  /// arrival of the controller's control message carrying this CE).
  Submission submit_kernel(gpusim::KernelLaunchSpec spec,
                           gpusim::EventPtr external = nullptr);

  /// Submit a host access CE (array initialization, result read-back, or a
  /// network send/receive landing in host memory). Executes once every DAG
  /// ancestor finished; `extra_duration` models work beyond the migration
  /// itself (e.g. the host-side loop body or a network serialization cost).
  Submission submit_host_access(uvm::ArrayId array, uvm::AccessMode mode,
                                SimTime extra_duration = SimTime::zero(),
                                std::string label = "host-access");

  /// Submit a host-side barrier CE over explicit arrays without touching
  /// memory (used by the distributed layer to order sends).
  Submission submit_fence(std::vector<dag::AccessSummary> accesses, std::string label = "fence");

  /// Submit a CE that waits for the local DAG ancestors AND an external
  /// event (e.g. a network arrival), then installs the received bytes as
  /// this node's current host copy of `array`.
  Submission submit_adopt(uvm::ArrayId array, gpusim::EventPtr external,
                          std::string label = "adopt");

  /// The node freed `array` and will never name it again (UvmSpace ids are
  /// not reused): drop its Local-DAG track and stream affinity.
  void forget_array(uvm::ArrayId array);

  [[nodiscard]] const dag::DependencyDag& local_dag() const { return dag_; }
  [[nodiscard]] gpusim::GpuNode& node() { return node_; }
  [[nodiscard]] StreamPolicyKind policy() const { return policy_; }

  /// Event that completes when all CEs submitted so far have finished.
  [[nodiscard]] gpusim::EventPtr quiescent_event();

 private:
  struct StreamRef {
    gpusim::Gpu* gpu{nullptr};
    gpusim::Stream* stream{nullptr};
  };

  StreamRef& select_stream(const gpusim::KernelLaunchSpec& spec);
  StreamRef& least_loaded_stream(std::size_t gpu_filter);  // SIZE_MAX = any gpu
  std::vector<gpusim::EventPtr> ancestor_events(dag::VertexId v) const;
  void track(dag::VertexId v, gpusim::EventPtr done);

  gpusim::GpuNode& node_;
  StreamPolicyKind policy_;
  std::vector<StreamRef> streams_;
  std::size_t rr_cursor_{0};
  dag::DependencyDag dag_;
  std::vector<gpusim::EventPtr> vertex_events_;  // indexed by VertexId
  /// Schedule-time data-locality map: array -> GPU of its last placement
  /// (like GrCUDA, locality is tracked logically, not via residency).
  std::unordered_map<uvm::ArrayId, std::size_t> affinity_;
};

}  // namespace grout::runtime
