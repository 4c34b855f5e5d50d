// Discrete-event engine.
//
// Single-threaded and deterministic. Events are ordered by (time, seq):
// `seq` is one global submission counter, so events stamped with the same
// time fire in the order they were scheduled, whether they were scheduled
// from inside an event callback or from outside execution. All simulated
// subsystems (GPUs, UVM, network, cluster nodes) hang off one Simulator.
//
// The heap holds (time, seq, slot) triples; a pending event's callback sits
// in a slot array whose freed slots are reused, so a heap sift moves 24-byte
// plain structs and a warm engine schedules and runs events without touching
// the allocator.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/callback.hpp"

namespace grout::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Inside an event callback this is the event's
  /// timestamp; outside execution it is the timestamp of the last executed
  /// event (zero before any event ran).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must not be in the past).
  void schedule_at(SimTime t, Callback fn);

  /// Schedule `fn` after `delay` from now.
  void schedule_after(SimTime delay, Callback fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Run a single event (the next one); returns false if the queue is
  /// empty. Must not be called from inside an event callback.
  bool step();

  /// Run until the event queue drains.
  void run();

  /// Run until the queue drains or virtual time would exceed `deadline`.
  /// Events stamped exactly at the deadline still execute. Returns true if
  /// it drained; false if it stopped at the deadline with events still
  /// pending (the paper's 2.5 h per-run cap uses this).
  bool run_until(SimTime deadline);

  /// Drive the engine one event at a time until `done()` holds, never
  /// executing an event stamped past `deadline`. This is the single
  /// definition of the "wait for a condition under the run cap" loop the
  /// runtime's host-side waits (spill landings, host fetches) share.
  /// Returns true when `done()` held; false when the deadline cut the wait
  /// short. Throws InternalError (tagged with `what`) if the queue drains
  /// while `done()` is still false — that is a deadlock, not a timeout.
  template <typename Done>
  bool run_until_done(SimTime deadline, Done&& done, std::string_view what) {
    while (!done()) {
      GROUT_CHECK(pending_events() > 0, what);
      if (next_event_time() > deadline) return false;
      step();
    }
    return true;
  }

  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Timestamp of the next pending event (SimTime::max() when idle); lets
  /// callers that drive step() themselves honor a deadline the way
  /// run_until() does, without executing past it.
  [[nodiscard]] SimTime next_event_time() const {
    return heap_.empty() ? SimTime::max() : heap_.front().time;
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into slots_
  };
  // std::push_heap/pop_heap build a max-heap, so "later fires last" means
  // the comparator orders by the *later* key: the heap front is the
  // earliest event.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_{SimTime::zero()};
  std::uint64_t executed_{0};
  std::uint64_t next_seq_{0};
  std::vector<Event> heap_;
  /// Callbacks of pending events; a slot is free once its event ran.
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace grout::sim
