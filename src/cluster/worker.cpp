#include "cluster/worker.hpp"

#include <utility>

namespace grout::cluster {

Worker::Worker(sim::Simulator& simulator, gpusim::GpuNodeConfig node_config,
               net::NodeId fabric_id, runtime::StreamPolicyKind stream_policy,
               std::size_t streams_per_gpu, sim::Tracer* tracer)
    : node_{simulator, std::move(node_config), tracer},
      runtime_{node_, stream_policy, streams_per_gpu},
      fabric_id_{fabric_id} {}

uvm::ArrayId Worker::ensure_array(GlobalArrayId global, Bytes bytes) {
  if (global >= local_ids_.size()) local_ids_.resize(std::size_t{global} + 1, uvm::kInvalidArray);
  uvm::ArrayId& local = local_ids_[global];
  if (local != uvm::kInvalidArray) {
    GROUT_REQUIRE(node_.uvm().array_bytes(local) == bytes,
                  "global array re-ensured with a different byte size");
    return local;
  }
  local = node_.uvm().alloc(bytes, {});
  return local;
}

uvm::ArrayId Worker::local_array(GlobalArrayId global) const {
  GROUT_REQUIRE(has_array(global), "array not present on this worker");
  return local_ids_[global];
}

void Worker::release_array(GlobalArrayId global, gpusim::EventPtr after) {
  if (!has_array(global)) return;
  const uvm::ArrayId local = std::exchange(local_ids_[global], uvm::kInvalidArray);
  // Every submission names a local id through local_ids_, so none can name
  // this one again; a re-ensure allocates a fresh id.
  runtime_.forget_array(local);
  if (after == nullptr || after->completed()) {
    node_.uvm().free_array(local);
  } else {
    after->on_complete([this, local] { node_.uvm().free_array(local); });
  }
}

runtime::Submission Worker::execute_kernel(gpusim::KernelLaunchSpec spec) {
  for (auto& p : spec.params) {
    p.array = local_array(static_cast<GlobalArrayId>(p.array));
  }
  return runtime_.submit_kernel(std::move(spec));
}

runtime::Submission Worker::stage_send(GlobalArrayId global) {
  const uvm::ArrayId local = local_array(global);
  return runtime_.submit_host_access(local, uvm::AccessMode::Read);
}

runtime::Submission Worker::accept_receive(GlobalArrayId global, gpusim::EventPtr arrival) {
  const uvm::ArrayId local = local_array(global);
  return runtime_.submit_adopt(local, std::move(arrival));
}

}  // namespace grout::cluster
