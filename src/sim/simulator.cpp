#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace grout::sim {

void Simulator::schedule_at(SimTime t, Callback fn) {
  GROUT_REQUIRE(t >= now_, "cannot schedule an event in the past");
  GROUT_REQUIRE(static_cast<bool>(fn), "null event callback");
  heap_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  GROUT_CHECK(ev.time >= now_, "event queue time went backwards");
  now_ = ev.time;
  ++executed_;
  ev.fn();
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
