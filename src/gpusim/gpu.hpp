// One simulated GPU: owns streams, runs kernels against the node's UvmSpace.
#pragma once

#include <memory>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/stream.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "uvm/uvm_space.hpp"

namespace grout::gpusim {

class Gpu {
 public:
  Gpu(sim::Simulator& simulator, uvm::UvmSpace& uvm_space, uvm::DeviceId device_id,
      DeviceSpec spec, sim::Tracer* tracer = nullptr, std::string location = {});

  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  [[nodiscard]] uvm::DeviceId device_id() const { return device_id_; }
  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] uvm::UvmSpace& uvm() { return uvm_; }

  /// Create a new stream; streams are never destroyed before the Gpu.
  Stream& create_stream();
  [[nodiscard]] Stream& stream(std::uint32_t id);
  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }

  /// Compute-roofline duration for `flops` of work over `bytes` of data.
  [[nodiscard]] SimTime compute_time(double flops, Bytes bytes_touched) const;

  /// Kernels this GPU has executed. Per-kernel timing is in the tracer's
  /// Kernel spans; per-kernel UVM outcomes are summed in UvmStats.
  [[nodiscard]] std::uint64_t kernel_count() const { return kernels_; }

 private:
  friend class Stream;

  /// Called by a Stream to execute a kernel op at the current virtual time.
  /// Returns the absolute completion time.
  SimTime execute_kernel(const KernelLaunchSpec& spec);

  sim::Simulator& sim_;
  uvm::UvmSpace& uvm_;
  uvm::DeviceId device_id_;
  DeviceSpec spec_;
  sim::Tracer* tracer_;
  std::string location_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::uint64_t kernels_{0};
  /// The SM array: concurrent kernels from different streams of the same
  /// GPU serialize their compute occupancy here (transfers still overlap).
  std::unique_ptr<sim::Resource> sm_;
};

}  // namespace grout::gpusim
