// A multi-GPU server: host memory plus N GPUs sharing one UVM space.
//
// This is the unit the paper calls a "node": the evaluation platform has
// two V100-16GB per worker, so oversubscription factor 1x = 32 GiB.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gpusim/gpu.hpp"
#include "uvm/tuning.hpp"

namespace grout::gpusim {

struct GpuNodeConfig {
  std::string name{"node"};
  std::size_t gpu_count{2};
  DeviceSpec device = v100();
  uvm::UvmTuning tuning{};
  uvm::EvictionPolicyKind eviction{uvm::EvictionPolicyKind::ClockLru};
  std::uint64_t seed{0x5eedULL};
};

class GpuNode {
 public:
  GpuNode(sim::Simulator& simulator, GpuNodeConfig config, sim::Tracer* tracer = nullptr);

  GpuNode(const GpuNode&) = delete;
  GpuNode& operator=(const GpuNode&) = delete;

  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] uvm::UvmSpace& uvm() { return *uvm_; }
  [[nodiscard]] const uvm::UvmSpace& uvm() const { return *uvm_; }
  [[nodiscard]] Gpu& gpu(std::size_t i);
  [[nodiscard]] std::size_t gpu_count() const { return gpus_.size(); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Combined device memory (the paper's 1x oversubscription reference).
  [[nodiscard]] Bytes total_gpu_memory() const;

 private:
  sim::Simulator& sim_;
  GpuNodeConfig config_;
  std::unique_ptr<uvm::UvmSpace> uvm_;
  std::vector<std::unique_ptr<Gpu>> gpus_;
};

}  // namespace grout::gpusim
