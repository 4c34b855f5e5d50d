// FIFO bandwidth server.
//
// Models any serial transport: a PCIe link, a copy engine, a NIC. Requests
// queue behind one another; a request of `size` bytes occupies the resource
// for `latency + size / bandwidth`. Used for every data movement in the
// system so that overlapping transfers serialize realistically.
#pragma once

#include <string>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace grout::sim {

class Resource {
 public:
  Resource(Simulator& simulator, std::string name, Bandwidth bandwidth, SimTime latency)
      : sim_{simulator}, name_{std::move(name)}, bandwidth_{bandwidth}, latency_{latency} {
    GROUT_REQUIRE(bandwidth.valid(), "resource requires positive bandwidth");
  }

  /// Enqueue a transfer of `size` bytes; returns its completion time and,
  /// if `on_done` is non-null, schedules it at that time.
  SimTime submit(Bytes size, Callback on_done = nullptr) {
    return submit_duration(latency_ + bandwidth_.transfer_time(size), size, std::move(on_done));
  }

  /// Enqueue an occupancy of a fixed duration (e.g. a fault-handling stall).
  SimTime submit_duration(SimTime duration, Bytes accounted_bytes = 0,
                          Callback on_done = nullptr) {
    const SimTime start = busy_until_ > sim_.now() ? busy_until_ : sim_.now();
    busy_until_ = start + duration;
    bytes_moved_ += accounted_bytes;
    if (on_done) sim_.schedule_at(busy_until_, std::move(on_done));
    return busy_until_;
  }

  /// Earliest time a new request could start.
  [[nodiscard]] SimTime available_at() const {
    return busy_until_ > sim_.now() ? busy_until_ : sim_.now();
  }

  [[nodiscard]] SimTime busy_until() const { return busy_until_; }
  [[nodiscard]] Bytes bytes_moved() const { return bytes_moved_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Bandwidth bandwidth() const { return bandwidth_; }
  [[nodiscard]] SimTime latency() const { return latency_; }

 private:
  Simulator& sim_;
  std::string name_;
  Bandwidth bandwidth_;
  SimTime latency_;
  SimTime busy_until_{SimTime::zero()};
  Bytes bytes_moved_{0};
};

}  // namespace grout::sim
