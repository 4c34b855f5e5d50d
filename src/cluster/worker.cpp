#include "cluster/worker.hpp"

namespace grout::cluster {

Worker::Worker(sim::Simulator& simulator, gpusim::GpuNodeConfig node_config,
               net::NodeId fabric_id, runtime::StreamPolicyKind stream_policy,
               std::size_t streams_per_gpu, sim::Tracer* tracer)
    : node_{simulator, std::move(node_config), tracer},
      runtime_{node_, stream_policy, streams_per_gpu},
      fabric_id_{fabric_id} {}

uvm::ArrayId Worker::ensure_array(GlobalArrayId global, Bytes bytes, const std::string& name) {
  const auto it = local_ids_.find(global);
  if (it != local_ids_.end()) {
    GROUT_REQUIRE(node_.uvm().array_bytes(it->second) == bytes,
                  "global array re-ensured with a different byte size");
    return it->second;
  }
  const uvm::ArrayId local = node_.uvm().alloc(bytes, name + "@" + node_.name());
  local_ids_.emplace(global, local);
  return local;
}

uvm::ArrayId Worker::local_array(GlobalArrayId global) const {
  const auto it = local_ids_.find(global);
  GROUT_REQUIRE(it != local_ids_.end(), "array not present on this worker");
  return it->second;
}

void Worker::release_array(GlobalArrayId global, gpusim::EventPtr after) {
  const auto it = local_ids_.find(global);
  if (it == local_ids_.end()) return;
  const uvm::ArrayId local = it->second;
  local_ids_.erase(it);
  if (after == nullptr || after->completed()) {
    node_.uvm().free_array(local);
  } else {
    after->on_complete([this, local] { node_.uvm().free_array(local); });
  }
}

void Worker::release_all() {
  // The mapping is gone immediately, but the node may still be simulating
  // work submitted before it died (stale kernels, staged sends); freeing
  // under those would trip "use of freed array". Defer the UVM frees until
  // everything submitted so far has drained.
  std::vector<uvm::ArrayId> locals;
  locals.reserve(local_ids_.size());
  for (const auto& [global, local] : local_ids_) locals.push_back(local);
  local_ids_.clear();
  if (locals.empty()) return;
  const gpusim::EventPtr quiescent = runtime_.quiescent_event();
  if (quiescent == nullptr || quiescent->completed()) {
    for (const uvm::ArrayId local : locals) node_.uvm().free_array(local);
  } else {
    quiescent->on_complete([this, locals = std::move(locals)] {
      for (const uvm::ArrayId local : locals) node_.uvm().free_array(local);
    });
  }
}

runtime::Submission Worker::execute_kernel(gpusim::KernelLaunchSpec spec,
                                           gpusim::EventPtr ready) {
  for (auto& p : spec.params) {
    p.array = local_array(static_cast<GlobalArrayId>(p.array));
  }
  return runtime_.submit_kernel(std::move(spec), std::move(ready));
}

runtime::Submission Worker::stage_send(GlobalArrayId global) {
  const uvm::ArrayId local = local_array(global);
  return runtime_.submit_host_access(local, uvm::AccessMode::Read, SimTime::zero(),
                                     "stage-send:" + node_.uvm().array_name(local));
}

runtime::Submission Worker::accept_receive(GlobalArrayId global, gpusim::EventPtr arrival) {
  const uvm::ArrayId local = local_array(global);
  return runtime_.submit_adopt(local, std::move(arrival),
                               "receive:" + node_.uvm().array_name(local));
}

}  // namespace grout::cluster
