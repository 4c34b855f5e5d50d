// CUDA-stream analogue: a FIFO of operations executed in order, with
// cross-stream synchronization via CudaEvents (cudaStreamWaitEvent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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

  [[nodiscard]] std::size_t queued_ops() const { return queue_.size() - head_; }

 private:
  friend class Gpu;

  enum class OpKind : std::uint8_t { Kernel, Wait, Prefetch };
  struct Op {
    OpKind kind{OpKind::Wait};
    KernelLaunchSpec spec;      ///< Kernel
    uvm::ArrayId array{0};      ///< Prefetch
    uvm::DeviceId target{0};    ///< Prefetch
    /// Wait: the awaited event; Kernel/Prefetch: the end event (may be null).
    EventPtr event;
  };

  /// Advance the FIFO as far as possible.
  void pump();
  /// Drop the front op.
  void pop_front();

  Gpu& gpu_;
  /// The FIFO: queue_[head_..] in order. A popped slot is emptied at once;
  /// the popped prefix is erased once it is half the vector, and nothing
  /// is allocated before the first op.
  std::vector<Op> queue_;
  std::size_t head_{0};
  bool busy_{false};
  SimTime last_known_end_{SimTime::zero()};
};

}  // namespace grout::gpusim
