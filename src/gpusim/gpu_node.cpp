#include "gpusim/gpu_node.hpp"

namespace grout::gpusim {

GpuNode::GpuNode(sim::Simulator& simulator, GpuNodeConfig config, sim::Tracer* tracer)
    : sim_{simulator}, config_{std::move(config)} {
  GROUT_REQUIRE(config_.gpu_count >= 1, "a node needs at least one GPU");

  std::vector<uvm::DeviceConfig> device_configs;
  device_configs.reserve(config_.gpu_count);
  for (std::size_t i = 0; i < config_.gpu_count; ++i) {
    uvm::DeviceConfig dc;
    dc.name = config_.name + "/gpu" + std::to_string(i);
    dc.capacity = config_.device.memory;
    dc.pcie_bw = config_.device.pcie_bw;
    dc.pcie_latency = config_.device.pcie_latency;
    device_configs.push_back(std::move(dc));
  }
  uvm_ = std::make_unique<uvm::UvmSpace>(sim_, config_.tuning, std::move(device_configs),
                                         config_.eviction, config_.seed);

  gpus_.reserve(config_.gpu_count);
  for (std::size_t i = 0; i < config_.gpu_count; ++i) {
    gpus_.push_back(std::make_unique<Gpu>(sim_, *uvm_, static_cast<uvm::DeviceId>(i),
                                          config_.device, tracer,
                                          config_.name + "/gpu" + std::to_string(i)));
  }
}

Gpu& GpuNode::gpu(std::size_t i) {
  GROUT_REQUIRE(i < gpus_.size(), "gpu index out of range");
  return *gpus_[i];
}

Bytes GpuNode::total_gpu_memory() const {
  return config_.device.memory * gpus_.size();
}

}  // namespace grout::gpusim
