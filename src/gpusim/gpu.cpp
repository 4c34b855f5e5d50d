#include "gpusim/gpu.hpp"

#include <algorithm>

namespace grout::gpusim {

// ---------------------------------------------------------------------------
// Stream
// ---------------------------------------------------------------------------

void Stream::enqueue_kernel(KernelLaunchSpec spec, EventPtr end_event) {
  queue_.push_back(Op{OpKind::Kernel, std::move(spec), 0, 0, std::move(end_event)});
  pump();
}

void Stream::enqueue_wait(EventPtr event) {
  GROUT_REQUIRE(static_cast<bool>(event), "waiting on a null event");
  queue_.push_back(Op{OpKind::Wait, {}, 0, 0, std::move(event)});
  pump();
}

void Stream::enqueue_prefetch(uvm::ArrayId array, uvm::DeviceId target, EventPtr end_event) {
  queue_.push_back(Op{OpKind::Prefetch, {}, array, target, std::move(end_event)});
  pump();
}

void Stream::pump() {
  while (!busy_ && head_ < queue_.size()) {
    Op& front = queue_[head_];
    if (front.kind == OpKind::Wait) {
      if (!front.event->completed()) {
        // Park until the event fires, then resume pumping.
        front.event->on_complete([this] { pump(); });
        return;
      }
      pop_front();
      continue;
    }
    Op op = std::move(front);
    pop_front();
    busy_ = true;
    const SimTime end = op.kind == OpKind::Kernel ? gpu_.execute_kernel(op.spec)
                                                  : gpu_.uvm().prefetch(op.array, op.target);
    last_known_end_ = std::max(last_known_end_, end);
    gpu_.simulator().schedule_at(end, [this, ev = std::move(op.event)] {
      busy_ = false;
      if (ev) ev->complete(gpu_.simulator().now());
      pump();
    });
  }
}

void Stream::pop_front() {
  queue_[head_].event = nullptr;  // release the op's event now
  if (++head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  } else if (2 * head_ >= queue_.size()) {
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

// ---------------------------------------------------------------------------
// Gpu
// ---------------------------------------------------------------------------

Gpu::Gpu(sim::Simulator& simulator, uvm::UvmSpace& uvm_space, uvm::DeviceId device_id,
         DeviceSpec spec, sim::Tracer* tracer, std::string location)
    : sim_{simulator},
      uvm_{uvm_space},
      device_id_{device_id},
      spec_{std::move(spec)},
      tracer_{tracer},
      location_{std::move(location)} {
  if (location_.empty()) location_ = spec_.name;
  sm_ = std::make_unique<sim::Resource>(sim_, location_ + "/sm",
                                        Bandwidth::bytes_per_sec(1.0), SimTime::zero());
}

Stream& Gpu::create_stream() {
  streams_.push_back(std::make_unique<Stream>(*this));
  return *streams_.back();
}

Stream& Gpu::stream(std::uint32_t id) {
  GROUT_REQUIRE(id < streams_.size(), "unknown stream id");
  return *streams_[id];
}

SimTime Gpu::compute_time(double flops, Bytes bytes_touched) const {
  const double flop_seconds = flops / (spec_.fp32_tflops * 1e12);
  const double mem_seconds = static_cast<double>(bytes_touched) / spec_.hbm_bw.bps();
  return SimTime::from_seconds(std::max(flop_seconds, mem_seconds));
}

SimTime Gpu::execute_kernel(const KernelLaunchSpec& spec) {
  const SimTime start = sim_.now();
  const uvm::DeviceAccessResult access =
      uvm_.device_access(device_id_, spec.params, spec.parallelism);
  const uvm::AccessReport& mem = access.report;

  const SimTime compute = compute_time(spec.flops, mem.bytes_touched);
  // Concurrent kernels on this GPU time-share the SMs: occupancy queues on
  // the per-device compute resource (transfers overlap independently).
  const SimTime compute_done = sm_->submit_duration(compute);

  SimTime end;
  if (mem.storm) {
    // Fault replay storms stall the SMs; no transfer/compute overlap left.
    end = std::max(access.h2d_done, access.d2h_done) + compute;
  } else {
    // Healthy/eviction regimes: migration pipelines with compute.
    end = std::max({compute_done, access.h2d_done, access.d2h_done});
  }
  end += spec_.launch_overhead;

  ++kernels_;
  if (tracer_) {
    tracer_->record(sim::TraceCategory::Kernel, spec.name, location_, start, end, spec.tenant);
    if (mem.fault_time > SimTime::zero()) {
      tracer_->record(sim::TraceCategory::Migration, spec.name + "/faults", location_, start,
                      start + mem.fault_time, spec.tenant);
    }
  }
  return end;
}

}  // namespace grout::gpusim
