// CUDA-event analogue: a one-shot completion flag with subscribers.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace grout::gpusim {

class CudaEvent {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] bool completed() const { return completed_; }

  /// Completion timestamp; only valid once completed.
  [[nodiscard]] SimTime when() const {
    GROUT_REQUIRE(completed_, "event not yet completed");
    return when_;
  }

  /// Mark complete and fire all waiters (at the current simulation time).
  void complete(SimTime t) {
    GROUT_CHECK(!completed_, "event completed twice");
    completed_ = true;
    when_ = t;
    std::vector<Callback> waiters = std::move(waiters_);
    waiters_.clear();
    for (auto& w : waiters) w();
  }

  /// Invoke `cb` when the event completes (immediately if it already has).
  void on_complete(Callback cb) {
    if (completed_) {
      cb();
    } else {
      waiters_.push_back(std::move(cb));
    }
  }

 private:
  bool completed_{false};
  SimTime when_{SimTime::zero()};
  std::vector<Callback> waiters_;
};

using EventPtr = std::shared_ptr<CudaEvent>;

inline EventPtr make_event() { return std::make_shared<CudaEvent>(); }

/// Invoke `cb` once every event in `events` has completed (immediately when
/// the list is empty or all are already done).
inline void when_all(const std::vector<EventPtr>& events, CudaEvent::Callback cb) {
  auto remaining = std::make_shared<std::size_t>(events.size());
  if (*remaining == 0) {
    cb();
    return;
  }
  auto shared_cb = std::make_shared<CudaEvent::Callback>(std::move(cb));
  for (const EventPtr& e : events) {
    GROUT_REQUIRE(static_cast<bool>(e), "when_all over a null event");
    e->on_complete([remaining, shared_cb] {
      if (--*remaining == 0) (*shared_cb)();
    });
  }
}

}  // namespace grout::gpusim
