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

Submission IntraNodeRuntime::submit_kernel(gpusim::KernelLaunchSpec spec,
                                           gpusim::EventPtr external) {
  std::vector<dag::AccessSummary> accesses;
  accesses.reserve(spec.params.size());
  for (const auto& p : spec.params) {
    accesses.push_back(dag::AccessSummary{p.array, uvm::writes(p.mode)});
  }
  const dag::VertexId v = dag_.add(spec.name, std::move(accesses));

  StreamRef& ref = select_stream(spec);
  // Algorithm 2: async waits on every ancestor's end event, then execute.
  if (external) ref.stream->enqueue_wait(std::move(external));
  for (const gpusim::EventPtr& ev : ancestor_events(v)) {
    ref.stream->enqueue_wait(ev);
  }
  gpusim::EventPtr done = gpusim::make_event();
  ref.stream->enqueue_kernel(std::move(spec), done);
  track(v, done);
  return Submission{v, std::move(done)};
}

Submission IntraNodeRuntime::submit_host_access(uvm::ArrayId array, uvm::AccessMode mode,
                                                SimTime extra_duration, std::string label) {
  const dag::VertexId v =
      dag_.add(std::move(label), {dag::AccessSummary{array, uvm::writes(mode)}});
  gpusim::EventPtr done = gpusim::make_event();
  sim::Simulator& sim = node_.simulator();
  gpusim::when_all(ancestor_events(v), [this, &sim, array, mode, extra_duration, done] {
    const uvm::HostAccessReport report = node_.uvm().host_access(array, mode);
    const SimTime end = sim.now() + report.duration + extra_duration;
    sim.schedule_at(end, [done, end] { done->complete(end); });
  });
  track(v, done);
  return Submission{v, std::move(done)};
}

Submission IntraNodeRuntime::submit_fence(std::vector<dag::AccessSummary> accesses,
                                          std::string label) {
  const dag::VertexId v = dag_.add(std::move(label), std::move(accesses));
  gpusim::EventPtr done = gpusim::make_event();
  sim::Simulator& sim = node_.simulator();
  gpusim::when_all(ancestor_events(v),
                   [&sim, done] { done->complete(sim.now()); });
  track(v, done);
  return Submission{v, std::move(done)};
}

Submission IntraNodeRuntime::submit_adopt(uvm::ArrayId array, gpusim::EventPtr external,
                                          std::string label) {
  GROUT_REQUIRE(static_cast<bool>(external), "adopt requires an external event");
  const dag::VertexId v = dag_.add(std::move(label), {dag::AccessSummary{array, true}});
  gpusim::EventPtr done = gpusim::make_event();
  sim::Simulator& sim = node_.simulator();
  std::vector<gpusim::EventPtr> waits = ancestor_events(v);
  waits.push_back(std::move(external));
  gpusim::when_all(waits, [this, &sim, array, done] {
    node_.uvm().adopt_host_copy(array);
    done->complete(sim.now());
  });
  track(v, done);
  return Submission{v, std::move(done)};
}

void IntraNodeRuntime::forget_array(uvm::ArrayId array) {
  dag_.forget(array);
  affinity_.erase(array);
}

gpusim::EventPtr IntraNodeRuntime::quiescent_event() {
  gpusim::EventPtr done = gpusim::make_event();
  sim::Simulator& sim = node_.simulator();
  gpusim::when_all(vertex_events_, [&sim, done] { done->complete(sim.now()); });
  return done;
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
      std::vector<Bytes> located(node_.gpu_count(), 0);
      Bytes total = 0;
      for (const auto& p : spec.params) {
        const Bytes b = node_.uvm().array_bytes(p.array);
        total += b;
        if (const auto it = affinity_.find(p.array); it != affinity_.end()) {
          located[it->second] += b;
        }
      }
      const std::size_t best_gpu = static_cast<std::size_t>(
          std::max_element(located.begin(), located.end()) - located.begin());
      StreamRef& chosen = (total == 0 || located[best_gpu] * 4 < total)
                              ? least_loaded_stream(SIZE_MAX)
                              : least_loaded_stream(best_gpu);
      const auto gpu = static_cast<std::size_t>(chosen.gpu->device_id());
      for (const auto& p : spec.params) affinity_[p.array] = gpu;
      return chosen;
    }
  }
  GROUT_CHECK(false, "unhandled stream policy");
  return streams_.front();
}

std::vector<gpusim::EventPtr> IntraNodeRuntime::ancestor_events(dag::VertexId v) const {
  std::vector<gpusim::EventPtr> events;
  for (const dag::VertexId a : dag_.ancestors(v)) {
    GROUT_CHECK(a < vertex_events_.size(), "ancestor without a tracked event");
    events.push_back(vertex_events_[a]);
  }
  return events;
}

void IntraNodeRuntime::track(dag::VertexId v, gpusim::EventPtr done) {
  GROUT_CHECK(v == vertex_events_.size(), "vertex events out of sync with DAG");
  done->on_complete([this, v] { dag_.mark_done(v); });
  vertex_events_.push_back(std::move(done));
}

}  // namespace grout::runtime
