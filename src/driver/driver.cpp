#include "driver/driver.hpp"

#include "sim/simulator.hpp"

namespace grout::driver {

const char* to_string(GrResult r) {
  switch (r) {
    case GrResult::Success: return "success";
    case GrResult::InvalidValue: return "invalid value";
    case GrResult::InvalidHandle: return "invalid handle";
    case GrResult::NotReady: return "not ready";
  }
  return "?";
}

Context::Context(gpusim::GpuNodeConfig config)
    : node_{std::make_unique<gpusim::GpuNode>(sim_, std::move(config), &tracer_)} {}

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

GrResult Context::mem_alloc_managed(GrDeviceptr* out, Bytes size, std::string name) {
  if (out == nullptr || size == 0) return GrResult::InvalidValue;
  const uvm::ArrayId id = node_->uvm().alloc(size, std::move(name));
  if (live_ptr_.size() <= id) live_ptr_.resize(id + 1, false);
  live_ptr_[id] = true;
  *out = static_cast<GrDeviceptr>(id) + 1;
  return GrResult::Success;
}

GrResult Context::mem_free(GrDeviceptr ptr) {
  if (!valid_ptr(ptr)) return GrResult::InvalidHandle;
  node_->uvm().free_array(array_of(ptr));
  live_ptr_[ptr - 1] = false;
  return GrResult::Success;
}

GrResult Context::mem_advise(GrDeviceptr ptr, uvm::Advise advise, int device) {
  if (!valid_ptr(ptr)) return GrResult::InvalidHandle;
  node_->uvm().advise(array_of(ptr), advise, device);
  return GrResult::Success;
}

GrResult Context::mem_prefetch_async(GrDeviceptr ptr, int device, GrStream stream) {
  if (!valid_ptr(ptr) || !valid_stream(stream)) return GrResult::InvalidHandle;
  if (device >= static_cast<int>(node_->gpu_count())) return GrResult::InvalidValue;
  streams_[stream - 1].stream->enqueue_prefetch(array_of(ptr),
                                                static_cast<uvm::DeviceId>(device), nullptr);
  return GrResult::Success;
}

GrResult Context::host_access(GrDeviceptr ptr, uvm::AccessMode mode, uvm::ByteRange range) {
  if (!valid_ptr(ptr)) return GrResult::InvalidHandle;
  // A CPU touch of device-dirty memory implicitly synchronizes with the
  // GPUs first (the real driver serializes via page faults): drain pending
  // work before replaying the host access.
  ctx_synchronize();
  const uvm::HostAccessReport report = node_->uvm().host_access(array_of(ptr), mode, range);
  // Block the host for the migration duration.
  const SimTime target = sim_.now() + report.duration;
  sim_.schedule_at(target, [] {});
  sim_.run_until(target);
  return GrResult::Success;
}

Bytes Context::allocation_size(GrDeviceptr ptr) const {
  GROUT_REQUIRE(valid_ptr(ptr), "invalid device pointer");
  return node_->uvm().array_bytes(array_of(ptr));
}

// ---------------------------------------------------------------------------
// Streams & events
// ---------------------------------------------------------------------------

GrResult Context::stream_create(GrStream* out, std::size_t gpu_index) {
  if (out == nullptr) return GrResult::InvalidValue;
  if (gpu_index >= node_->gpu_count()) return GrResult::InvalidValue;
  StreamInfo info;
  info.stream = &node_->gpu(gpu_index).create_stream();
  info.gpu = gpu_index;
  streams_.push_back(info);
  *out = streams_.size();
  return GrResult::Success;
}

GrResult Context::event_create(GrEvent* out) {
  if (out == nullptr) return GrResult::InvalidValue;
  events_.push_back(gpusim::make_event());
  *out = events_.size();
  return GrResult::Success;
}

GrResult Context::event_record(GrEvent event, GrStream stream) {
  if (!valid_event(event) || !valid_stream(stream)) return GrResult::InvalidHandle;
  streams_[stream - 1].stream->enqueue_record(events_[event - 1]);
  return GrResult::Success;
}

GrResult Context::stream_wait_event(GrStream stream, GrEvent event) {
  if (!valid_event(event) || !valid_stream(stream)) return GrResult::InvalidHandle;
  streams_[stream - 1].stream->enqueue_wait(events_[event - 1]);
  return GrResult::Success;
}

// ---------------------------------------------------------------------------
// Execution & synchronization
// ---------------------------------------------------------------------------

GrResult Context::launch_kernel(GrStream stream, gpusim::KernelLaunchSpec spec,
                                GrEvent completion_event) {
  if (!valid_stream(stream)) return GrResult::InvalidHandle;
  if (completion_event != 0 && !valid_event(completion_event)) return GrResult::InvalidHandle;
  for (const auto& p : spec.params) {
    if (p.array == uvm::kInvalidArray) return GrResult::InvalidValue;
  }
  gpusim::EventPtr ev =
      completion_event != 0 ? events_[completion_event - 1] : nullptr;
  streams_[stream - 1].stream->enqueue_kernel(std::move(spec), std::move(ev));
  return GrResult::Success;
}

GrResult Context::ctx_synchronize() {
  sim_.run();
  return GrResult::Success;
}

GrResult Context::stream_synchronize(GrStream stream) {
  if (!valid_stream(stream)) return GrResult::InvalidHandle;
  gpusim::Stream* s = streams_[stream - 1].stream;
  while (!s->idle()) {
    if (!sim_.step()) return GrResult::NotReady;
  }
  return GrResult::Success;
}

GrResult Context::event_synchronize(GrEvent event) {
  if (!valid_event(event)) return GrResult::InvalidHandle;
  const gpusim::EventPtr& ev = events_[event - 1];
  while (!ev->completed()) {
    if (!sim_.step()) return GrResult::NotReady;
  }
  return GrResult::Success;
}

bool Context::event_query(GrEvent event) const {
  GROUT_REQUIRE(valid_event(event), "invalid event handle");
  return events_[event - 1]->completed();
}

// ---------------------------------------------------------------------------
// Plumbing
// ---------------------------------------------------------------------------

uvm::ArrayId Context::array_of(GrDeviceptr ptr) const {
  GROUT_REQUIRE(valid_ptr(ptr), "invalid device pointer");
  return static_cast<uvm::ArrayId>(ptr - 1);
}

bool Context::valid_ptr(GrDeviceptr ptr) const {
  return ptr != 0 && ptr - 1 < live_ptr_.size() && live_ptr_[ptr - 1];
}

bool Context::valid_stream(GrStream s) const { return s != 0 && s <= streams_.size(); }

bool Context::valid_event(GrEvent e) const { return e != 0 && e <= events_.size(); }

}  // namespace grout::driver
