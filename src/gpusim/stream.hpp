// CUDA-stream analogue: a FIFO of operations executed in order, with
// cross-stream synchronization via CudaEvents (cudaStreamWaitEvent).
#pragma once

#include <deque>
#include <variant>

#include "gpusim/event.hpp"
#include "gpusim/kernel.hpp"

namespace grout::gpusim {

class Gpu;  // owner; executes kernel ops

class Stream {
 public:
  explicit Stream(Gpu& gpu) : gpu_{gpu} {}

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Enqueue a kernel; `end_event` completes when it finishes.
  void enqueue_kernel(KernelLaunchSpec spec, EventPtr end_event);

  /// Enqueue a wait: later ops do not start until `event` completes.
  void enqueue_wait(EventPtr event);

  /// Enqueue a cudaMemPrefetchAsync of a whole array to this GPU or host.
  void enqueue_prefetch(uvm::ArrayId array, uvm::DeviceId target, EventPtr end_event);

  /// Virtual time at which the last enqueued op is currently known to end;
  /// grows as ops execute. Used by stream-selection policies.
  [[nodiscard]] SimTime last_known_end() const { return last_known_end_; }

  [[nodiscard]] std::size_t queued_ops() const { return queue_.size(); }

 private:
  friend class Gpu;

  struct KernelOp {
    KernelLaunchSpec spec;
    EventPtr end_event;
  };
  struct WaitOp {
    EventPtr event;
  };
  struct PrefetchOp {
    uvm::ArrayId array;
    uvm::DeviceId target;
    EventPtr end_event;
  };
  using Op = std::variant<KernelOp, WaitOp, PrefetchOp>;

  /// Advance the FIFO as far as possible.
  void pump();

  Gpu& gpu_;
  std::deque<Op> queue_;
  bool busy_{false};
  SimTime last_known_end_{SimTime::zero()};
};

}  // namespace grout::gpusim
