#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace grout::sim {

void Simulator::schedule_at(SimTime t, Callback fn) {
  GROUT_REQUIRE(t >= now_, "cannot schedule an event in the past");
  GROUT_REQUIRE(static_cast<bool>(fn), "null event callback");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    GROUT_CHECK(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                "too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(Event{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event ev = heap_.back();
  heap_.pop_back();
  GROUT_CHECK(ev.time >= now_, "event queue time went backwards");
  // The callback leaves its slot before it runs: it may schedule events,
  // which can reuse the slot or grow the slot array.
  Callback fn = std::move(slots_[ev.slot]);
  free_slots_.push_back(ev.slot);
  now_ = ev.time;
  ++executed_;
  fn();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

bool Simulator::run_until(SimTime deadline) {
  while (!heap_.empty()) {
    if (heap_.front().time > deadline) return false;
    step();
  }
  return true;
}

}  // namespace grout::sim
