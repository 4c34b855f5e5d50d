// CUDA-driver-style API over one simulated multi-GPU node.
//
// The paper's framework intercepts the CUDA driver API; this module is the
// equivalent surface in the simulator: contexts, managed allocations,
// streams, events, kernel launches, prefetch/advise and synchronization.
// The host program runs imperatively and enqueues asynchronous work; the
// synchronize calls advance the discrete-event simulation until the awaited
// work has completed, exactly like blocking on a real driver.
//
// Handles are opaque integers (0 is the null handle), mirroring CUdeviceptr
// and friends; a RAII C++ convenience layer sits on top in managed.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/gpu_node.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace grout::driver {

enum class GrResult : std::uint32_t {
  Success = 0,
  InvalidValue,
  InvalidHandle,
  NotReady,   ///< synchronization target can never complete (nothing pending)
};

const char* to_string(GrResult r);

using GrDeviceptr = std::uint64_t;  ///< managed allocation handle
using GrStream = std::uint64_t;
using GrEvent = std::uint64_t;

/// One driver context == one node (host + GPUs + UVM space + simulator).
class Context {
 public:
  explicit Context(gpusim::GpuNodeConfig config = {});

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // -- memory --------------------------------------------------------------

  /// cuMemAllocManaged: allocate `size` bytes of unified memory.
  GrResult mem_alloc_managed(GrDeviceptr* out, Bytes size, std::string name = "managed");

  /// cuMemFree.
  GrResult mem_free(GrDeviceptr ptr);

  /// cuMemAdvise.
  GrResult mem_advise(GrDeviceptr ptr, uvm::Advise advise, int device = -1);

  /// cuMemPrefetchAsync (whole allocation; device -1 = host).
  GrResult mem_prefetch_async(GrDeviceptr ptr, int device, GrStream stream);

  /// Host-side access to managed memory (triggers CPU page faults).
  /// Blocks (advances simulation) until the migration completes.
  GrResult host_access(GrDeviceptr ptr, uvm::AccessMode mode, uvm::ByteRange range = {});

  [[nodiscard]] Bytes allocation_size(GrDeviceptr ptr) const;

  // -- streams & events ----------------------------------------------------

  /// cuStreamCreate on a specific GPU of the node.
  GrResult stream_create(GrStream* out, std::size_t gpu_index = 0);

  GrResult event_create(GrEvent* out);

  /// cuEventRecord: the event completes when prior work on `stream` is done.
  GrResult event_record(GrEvent event, GrStream stream);

  /// cuStreamWaitEvent.
  GrResult stream_wait_event(GrStream stream, GrEvent event);

  // -- execution -----------------------------------------------------------

  /// cuLaunchKernel. `spec.params[*].array` fields must hold GrDeviceptr
  /// handles converted via array_of(); use launch() below for convenience.
  GrResult launch_kernel(GrStream stream, gpusim::KernelLaunchSpec spec,
                         GrEvent completion_event = 0);

  // -- synchronization -----------------------------------------------------

  /// cuCtxSynchronize: advance the simulation until all work has drained.
  GrResult ctx_synchronize();

  /// cuStreamSynchronize.
  GrResult stream_synchronize(GrStream stream);

  /// cuEventSynchronize.
  GrResult event_synchronize(GrEvent event);

  [[nodiscard]] bool event_query(GrEvent event) const;

  // -- plumbing ------------------------------------------------------------

  /// Translate a handle to the underlying UVM array id (for launch specs).
  [[nodiscard]] uvm::ArrayId array_of(GrDeviceptr ptr) const;

  [[nodiscard]] SimTime now() const { return sim_.now(); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] gpusim::GpuNode& node() { return *node_; }
  [[nodiscard]] sim::Tracer& tracer() { return tracer_; }

 private:
  struct StreamInfo {
    gpusim::Stream* stream{nullptr};
    std::size_t gpu{0};
  };

  [[nodiscard]] bool valid_ptr(GrDeviceptr ptr) const;
  [[nodiscard]] bool valid_stream(GrStream s) const;
  [[nodiscard]] bool valid_event(GrEvent e) const;

  sim::Simulator sim_;
  sim::Tracer tracer_;
  std::unique_ptr<gpusim::GpuNode> node_;
  std::vector<StreamInfo> streams_;
  std::vector<gpusim::EventPtr> events_;
  std::vector<bool> live_ptr_;
};

}  // namespace grout::driver
