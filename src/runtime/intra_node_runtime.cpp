#include "runtime/intra_node_runtime.hpp"

#include <algorithm>
#include <limits>

namespace grout::runtime {

const char* to_string(StreamPolicyKind k) {
  switch (k) {
    case StreamPolicyKind::RoundRobin: return "round-robin";
    case StreamPolicyKind::LeastLoaded: return "least-loaded";
    case StreamPolicyKind::DataLocal: return "data-local";
  }
  return "?";
}

IntraNodeRuntime::IntraNodeRuntime(gpusim::GpuNode& node, StreamPolicyKind policy,
                                   std::size_t streams_per_gpu)
    : node_{node}, policy_{policy} {
  GROUT_REQUIRE(streams_per_gpu >= 1, "at least one stream per GPU");
  // Interleave across GPUs so that tie-breaking between equally idle
  // streams naturally spreads work over all devices.
  for (std::size_t s = 0; s < streams_per_gpu; ++s) {
    for (std::size_t g = 0; g < node_.gpu_count(); ++g) {
      streams_.push_back(StreamRef{&node_.gpu(g), &node_.gpu(g).create_stream()});
    }
  }
}

Submission IntraNodeRuntime::submit_kernel(gpusim::KernelLaunchSpec spec) {
  accesses_.clear();
  for (const auto& p : spec.params) {
    accesses_.push_back(dag::AccessSummary{p.array, uvm::writes(p.mode)});
  }
  const dag::VertexId v = dag_.add({}, accesses_);

  StreamRef& ref = select_stream(spec);
  // Algorithm 2: async waits on every ancestor's end event, then execute.
  collect_waits(v);
  for (gpusim::EventPtr& ev : waits_) ref.stream->enqueue_wait(std::move(ev));
  waits_.clear();
  gpusim::EventPtr done = gpusim::make_event();
  ref.stream->enqueue_kernel(std::move(spec), done);
  track(v, done);
  return Submission{v, std::move(done)};
}

Submission IntraNodeRuntime::submit_host_access(uvm::ArrayId array, uvm::AccessMode mode) {
  accesses_.assign(1, dag::AccessSummary{array, uvm::writes(mode)});
  const dag::VertexId v = dag_.add({}, accesses_);
  gpusim::EventPtr done = gpusim::make_event();
  sim::Simulator& sim = node_.simulator();
  collect_waits(v);
  gpusim::when_all(waits_, [this, &sim, array, mode, done] {
    const uvm::HostAccessReport report = node_.uvm().host_access(array, mode);
    const SimTime end = sim.now() + report.duration;
    sim.schedule_at(end, [done, end] { done->complete(end); });
  });
  waits_.clear();
  track(v, done);
  return Submission{v, std::move(done)};
}

Submission IntraNodeRuntime::submit_adopt(uvm::ArrayId array, gpusim::EventPtr external) {
  GROUT_REQUIRE(static_cast<bool>(external), "adopt requires an external event");
  accesses_.assign(1, dag::AccessSummary{array, true});
  const dag::VertexId v = dag_.add({}, accesses_);
  gpusim::EventPtr done = gpusim::make_event();
  sim::Simulator& sim = node_.simulator();
  collect_waits(v);
  waits_.push_back(std::move(external));
  gpusim::when_all(waits_, [this, &sim, array, done] {
    node_.uvm().adopt_host_copy(array);
    done->complete(sim.now());
  });
  waits_.clear();
  track(v, done);
  return Submission{v, std::move(done)};
}

void IntraNodeRuntime::forget_array(uvm::ArrayId array) {
  dag_.forget(array);
  if (array < affinity_.size()) affinity_[array] = kNoGpu;
}

IntraNodeRuntime::StreamRef& IntraNodeRuntime::least_loaded_stream(std::size_t gpu_filter) {
  // Cyclic scan starting after the last pick so that ties between equally
  // idle streams rotate over the GPUs instead of always winning at index 0.
  StreamRef* best = nullptr;
  const auto load = [](const StreamRef& r) {
    return std::pair{r.stream->last_known_end(), r.stream->queued_ops()};
  };
  for (std::size_t k = 0; k < streams_.size(); ++k) {
    StreamRef& ref = streams_[(rr_cursor_ + k) % streams_.size()];
    if (gpu_filter != SIZE_MAX &&
        ref.gpu->device_id() != static_cast<uvm::DeviceId>(gpu_filter)) {
      continue;
    }
    if (best == nullptr || load(ref) < load(*best)) best = &ref;
  }
  GROUT_CHECK(best != nullptr, "no stream matches the GPU filter");
  rr_cursor_ = (static_cast<std::size_t>(best - streams_.data()) + 1) % streams_.size();
  return *best;
}

IntraNodeRuntime::StreamRef& IntraNodeRuntime::select_stream(
    const gpusim::KernelLaunchSpec& spec) {
  switch (policy_) {
    case StreamPolicyKind::RoundRobin: {
      StreamRef& ref = streams_[rr_cursor_];
      rr_cursor_ = (rr_cursor_ + 1) % streams_.size();
      return ref;
    }
    case StreamPolicyKind::LeastLoaded:
      return least_loaded_stream(SIZE_MAX);
    case StreamPolicyKind::DataLocal: {
      // Score each GPU by the bytes of input parameters last placed there
      // (schedule-time locality, like GrCUDA). A weak signal (< 25% of the
      // inputs) falls back to least-loaded, which also balances first
      // touches across GPUs.
      located_.assign(node_.gpu_count(), 0);
      Bytes total = 0;
      for (const auto& p : spec.params) {
        const Bytes b = node_.uvm().array_bytes(p.array);
        total += b;
        if (p.array >= affinity_.size()) affinity_.resize(std::size_t{p.array} + 1, kNoGpu);
        if (affinity_[p.array] != kNoGpu) located_[affinity_[p.array]] += b;
      }
      const std::size_t best_gpu = static_cast<std::size_t>(
          std::max_element(located_.begin(), located_.end()) - located_.begin());
      StreamRef& chosen = (total == 0 || located_[best_gpu] * 4 < total)
                              ? least_loaded_stream(SIZE_MAX)
                              : least_loaded_stream(best_gpu);
      const auto gpu = static_cast<std::uint32_t>(chosen.gpu->device_id());
      for (const auto& p : spec.params) affinity_[p.array] = gpu;
      return chosen;
    }
  }
  GROUT_CHECK(false, "unhandled stream policy");
  return streams_.front();
}

void IntraNodeRuntime::collect_waits(dag::VertexId v) {
  waits_.clear();
  for (const dag::VertexId a : dag_.ancestors(v)) {
    GROUT_CHECK(a < events_base_ + vertex_events_.size(), "ancestor without a tracked event");
    // An ancestor below the window or in a released slot has finished:
    // waiting on it is a no-op.
    if (a >= events_base_ && vertex_events_[a - events_base_]) {
      waits_.push_back(vertex_events_[a - events_base_]);
    }
  }
}

void IntraNodeRuntime::track(dag::VertexId v, gpusim::EventPtr done) {
  GROUT_CHECK(v == events_base_ + vertex_events_.size(), "vertex events out of sync with DAG");
  vertex_events_.push_back(done);
  // The completion releases the slot and drops the finished prefix of the
  // window; whoever completes the event holds its own reference, so this
  // never destroys the event mid-completion.
  done->on_complete([this, v] {
    vertex_events_[v - events_base_] = nullptr;
    while (events_head_ < vertex_events_.size() && !vertex_events_[events_head_]) ++events_head_;
    if (2 * events_head_ >= vertex_events_.size()) {
      vertex_events_.erase(vertex_events_.begin(),
                           vertex_events_.begin() + static_cast<std::ptrdiff_t>(events_head_));
      events_base_ += events_head_;
      events_head_ = 0;
    }
  });
}

}  // namespace grout::runtime
