// GrCUDA-style intra-node runtime (Parravicini et al., IPDPS'21; the
// paper's Worker-side scheduler, Algorithm 2).
//
// Each submitted Computational Element is inserted into the Local DAG, a
// CUDA stream is selected by the active policy, asynchronous waits on the
// still-pending ancestors' end events are pushed into that stream, and the
// kernel is enqueued. Host read/write CEs go through the same DAG so that
// transfer/compute overlap never violates correctness. A vertex's end
// event is held only until it completes.
#pragma once

#include <cstdint>
#include <memory>
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

  /// Submit a kernel CE. Dependencies are derived from `spec.params`.
  Submission submit_kernel(gpusim::KernelLaunchSpec spec);

  /// Submit a host access CE (array initialization, result read-back, or
  /// the gather before a network send). Executes once every DAG ancestor
  /// finished.
  Submission submit_host_access(uvm::ArrayId array, uvm::AccessMode mode);

  /// Submit a CE that waits for the local DAG ancestors AND an external
  /// event (e.g. a network arrival), then installs the received bytes as
  /// this node's current host copy of `array`.
  Submission submit_adopt(uvm::ArrayId array, gpusim::EventPtr external);

  /// The node freed `array` and will never name it again (UvmSpace ids are
  /// not reused): drop its Local-DAG track and stream affinity.
  void forget_array(uvm::ArrayId array);

  [[nodiscard]] const dag::DependencyDag& local_dag() const { return dag_; }
  [[nodiscard]] gpusim::GpuNode& node() { return node_; }
  [[nodiscard]] StreamPolicyKind policy() const { return policy_; }

  /// Slots in the end-event window: from the oldest pending Local-DAG
  /// vertex to the newest vertex; 0 once every submitted CE completed.
  [[nodiscard]] std::size_t event_window() const {
    return vertex_events_.size() - events_head_;
  }

 private:
  struct StreamRef {
    gpusim::Gpu* gpu{nullptr};
    gpusim::Stream* stream{nullptr};
  };

  StreamRef& select_stream(const gpusim::KernelLaunchSpec& spec);
  StreamRef& least_loaded_stream(std::size_t gpu_filter);  // SIZE_MAX = any gpu
  /// Fill waits_ with the end events of `v`'s pending ancestors.
  void collect_waits(dag::VertexId v);
  void track(dag::VertexId v, gpusim::EventPtr done);

  gpusim::GpuNode& node_;
  StreamPolicyKind policy_;
  std::vector<StreamRef> streams_;
  std::size_t rr_cursor_{0};
  dag::DependencyDag dag_;
  /// Local-DAG insert scratch, reused across submissions.
  std::vector<dag::AccessSummary> accesses_;
  /// Events a submission waits on, reused across submissions and cleared
  /// after each so it holds no event past its submission.
  std::vector<gpusim::EventPtr> waits_;
  /// End events of a window of Local-DAG vertices, in id order: slot i
  /// holds vertex events_base_ + i. A slot is null once its CE completed
  /// (nothing waits on a finished CE). Slots below events_head_ are all
  /// null; they are erased once they are at least half the window, so the
  /// vector stays within twice the span from the oldest pending vertex to
  /// the newest. A vertex below events_base_ has completed.
  std::vector<gpusim::EventPtr> vertex_events_;
  std::size_t events_head_{0};
  dag::VertexId events_base_{0};
  /// Schedule-time data locality (DataLocal only): the GPU of each local
  /// array's last placement, indexed by UvmSpace id, kNoGpu if none yet
  /// (like GrCUDA, locality is tracked logically, not via residency).
  static constexpr std::uint32_t kNoGpu = ~std::uint32_t{0};
  std::vector<std::uint32_t> affinity_;
  /// DataLocal scratch: input bytes last placed on each GPU.
  std::vector<Bytes> located_;
};

}  // namespace grout::runtime
