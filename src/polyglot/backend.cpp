#include "polyglot/backend.hpp"

namespace grout::polyglot {

const char* to_string(BackendKind k) {
  switch (k) {
    case BackendKind::GrCUDA: return "GrCUDA";
    case BackendKind::GrOUT: return "GrOUT";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// GrCudaBackend
// ---------------------------------------------------------------------------

GrCudaBackend::GrCudaBackend(gpusim::GpuNodeConfig node_config,
                             runtime::StreamPolicyKind stream_policy,
                             std::size_t streams_per_gpu, SimTime run_cap)
    : sim_{std::make_unique<sim::Simulator>()},
      node_{std::make_unique<gpusim::GpuNode>(*sim_, std::move(node_config))},
      runtime_{std::make_unique<runtime::IntraNodeRuntime>(*node_, stream_policy,
                                                           streams_per_gpu)},
      run_cap_{run_cap} {}

ArrayRef GrCudaBackend::alloc(Bytes bytes, std::string name) {
  // Local ids align with ArrayRefs 1:1 on the single node.
  return runtime_->node().uvm().alloc(bytes, std::move(name));
}

void GrCudaBackend::notify_host_write(ArrayRef array) {
  runtime_->submit_host_access(array, uvm::AccessMode::Write);
}

void GrCudaBackend::advise(ArrayRef array, uvm::Advise advise) {
  runtime_->node().uvm().advise(array, advise);
}

void GrCudaBackend::ensure_host_readable(ArrayRef array) {
  const runtime::Submission sub =
      runtime_->submit_host_access(array, uvm::AccessMode::Read);
  while (!sub.done->completed()) {
    GROUT_CHECK(sim_->step(), "deadlock waiting for a host read");
  }
}

void GrCudaBackend::launch(gpusim::KernelLaunchSpec spec) {
  runtime_->submit_kernel(std::move(spec));
}

bool GrCudaBackend::synchronize() { return sim_->run_until(run_cap_); }

// ---------------------------------------------------------------------------
// GroutBackend
// ---------------------------------------------------------------------------

GroutBackend::GroutBackend(core::GroutConfig config)
    : runtime_{std::make_unique<core::GroutRuntime>(std::move(config))} {}

ArrayRef GroutBackend::alloc(Bytes bytes, std::string name) {
  return runtime_->alloc(bytes, std::move(name));
}

void GroutBackend::notify_host_write(ArrayRef array) { runtime_->host_init(array); }

void GroutBackend::advise(ArrayRef array, uvm::Advise advise) {
  runtime_->advise(array, advise);
}

void GroutBackend::ensure_host_readable(ArrayRef array) {
  GROUT_CHECK(runtime_->host_fetch(array),
              "host fetch ran out of time (run cap expired before the data landed)");
}

void GroutBackend::launch(gpusim::KernelLaunchSpec spec) { runtime_->launch(std::move(spec)); }

bool GroutBackend::synchronize() { return runtime_->synchronize(); }

}  // namespace grout::polyglot
