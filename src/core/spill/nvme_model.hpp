// NVMe-class storage device model for the deep spill tier.
//
// A drive is `queue_depth` parallel channels, each a sim::Resource, so up
// to queue_depth operations proceed concurrently and the rest queue behind
// the earliest-free channel — the same saturation behaviour a real device
// shows once its submission queues fill. Reads and writes share the
// channels but carry their own bandwidths (flash is read/write
// asymmetric); every operation pays the per-op latency.
//
// Channel selection is deterministic (earliest available_at, lowest index
// on ties) so runs stay bit-reproducible.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "gpusim/event.hpp"
#include "sim/resource.hpp"

namespace grout::core::spill {

struct NvmeSpec {
  Bandwidth read_bw = Bandwidth::gib_per_sec(3.2);
  Bandwidth write_bw = Bandwidth::gib_per_sec(1.4);
  /// Per-operation latency (submission + flash access), paid by every op.
  SimTime latency = SimTime::from_us(80.0);
  /// Concurrent operations the device sustains; further ops queue.
  std::size_t queue_depth = 8;
  /// Tier capacity in bytes; 0 = unbounded.
  Bytes capacity = 0;
};

class NvmeModel {
 public:
  NvmeModel(sim::Simulator& sim, const NvmeSpec& spec) : sim_{sim}, spec_{spec} {
    GROUT_REQUIRE(spec.queue_depth > 0, "NVMe queue depth must be positive");
    GROUT_REQUIRE(spec.read_bw.valid(), "NVMe read bandwidth must be positive");
    GROUT_REQUIRE(spec.write_bw.valid(), "NVMe write bandwidth must be positive");
    GROUT_REQUIRE(spec.latency >= SimTime::zero(), "NVMe latency must be non-negative");
    channels_.reserve(spec.queue_depth);
    for (std::size_t i = 0; i < spec.queue_depth; ++i) {
      channels_.push_back(std::make_unique<sim::Resource>(
          sim, "nvme-ch" + std::to_string(i), spec.read_bw, spec.latency));
    }
  }

  NvmeModel(const NvmeModel&) = delete;
  NvmeModel& operator=(const NvmeModel&) = delete;

  /// Write `bytes` to the device, optionally ordered after `after` (e.g. a
  /// demotion may only start once the spill it persists has landed in host
  /// DRAM). Returns the durability event.
  gpusim::EventPtr write(Bytes bytes, gpusim::EventPtr after = nullptr) {
    return submit(/*is_write=*/true, bytes, std::move(after));
  }

  /// Read `bytes` back into host DRAM, optionally ordered after `after`
  /// (a promotion of data whose demotion write is still in flight).
  gpusim::EventPtr read(Bytes bytes, gpusim::EventPtr after = nullptr) {
    return submit(/*is_write=*/false, bytes, std::move(after));
  }

  [[nodiscard]] const NvmeSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] Bytes bytes_read() const { return bytes_read_; }
  [[nodiscard]] Bytes bytes_written() const { return bytes_written_; }
  /// Operations submitted but not yet complete, and the peak of that count
  /// over the run (the device-queue depth the workload actually reached).
  [[nodiscard]] std::uint64_t inflight() const { return inflight_; }
  [[nodiscard]] std::uint64_t queue_peak() const { return queue_peak_; }

 private:
  gpusim::EventPtr submit(bool is_write, Bytes bytes, gpusim::EventPtr after) {
    auto done = gpusim::make_event();
    ++inflight_;
    queue_peak_ = std::max(queue_peak_, inflight_);
    if (after != nullptr && !after->completed()) {
      after->on_complete([this, is_write, bytes, done] { issue(is_write, bytes, done); });
    } else {
      issue(is_write, bytes, done);
    }
    return done;
  }

  void issue(bool is_write, Bytes bytes, const gpusim::EventPtr& done) {
    // Earliest-free channel, lowest index on ties: deterministic.
    sim::Resource* channel = channels_.front().get();
    for (const auto& c : channels_) {
      if (c->available_at() < channel->available_at()) channel = c.get();
    }
    const Bandwidth bw = is_write ? spec_.write_bw : spec_.read_bw;
    const SimTime duration = spec_.latency + bw.transfer_time(bytes);
    if (is_write) {
      ++writes_;
      bytes_written_ += bytes;
    } else {
      ++reads_;
      bytes_read_ += bytes;
    }
    sim::Simulator* simp = &sim_;
    channel->submit_duration(duration, bytes, [this, done, simp] {
      --inflight_;
      done->complete(simp->now());
    });
  }

  sim::Simulator& sim_;
  NvmeSpec spec_;
  std::vector<std::unique_ptr<sim::Resource>> channels_;
  std::uint64_t reads_{0};
  std::uint64_t writes_{0};
  Bytes bytes_read_{0};
  Bytes bytes_written_{0};
  std::uint64_t inflight_{0};
  std::uint64_t queue_peak_{0};
};

}  // namespace grout::core::spill
