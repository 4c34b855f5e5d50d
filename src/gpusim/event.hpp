// CUDA-event analogue: a one-shot completion flag with subscribers.
//
// Events are shared by the streams, runtimes and transfers that wait on
// them through EventPtr, an 8-byte intrusively counted handle (the engine
// is single-threaded, so the count is a plain integer). The first waiter
// is stored in the 64-byte event itself; only an event with more waiters
// allocates, one array for all of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/callback.hpp"

namespace grout::gpusim {

class EventPtr;

namespace detail {

/// An event's waiters after the first, in subscription order: one heap
/// block holding the count, the capacity and the callbacks, grown by
/// doubling. One pointer wide, so an event stays at 64 bytes.
class WaiterArray {
 public:
  WaiterArray() noexcept = default;
  WaiterArray(WaiterArray&& other) noexcept : block_{std::exchange(other.block_, nullptr)} {}
  WaiterArray(const WaiterArray&) = delete;
  WaiterArray& operator=(const WaiterArray&) = delete;
  WaiterArray& operator=(WaiterArray&&) = delete;
  ~WaiterArray() {
    if (block_ == nullptr) return;
    for (sim::Callback& cb : *this) cb.~Callback();
    ::operator delete(block_);
  }

  void push_back(sim::Callback cb) {
    if (block_ == nullptr || block_->size == block_->capacity) grow();
    ::new (static_cast<void*>(items() + block_->size)) sim::Callback(std::move(cb));
    ++block_->size;
  }

  sim::Callback* begin() noexcept { return block_ == nullptr ? nullptr : items(); }
  sim::Callback* end() noexcept { return block_ == nullptr ? nullptr : items() + block_->size; }

 private:
  struct Block {
    std::uint32_t size;
    std::uint32_t capacity;
  };
  static_assert(sizeof(Block) % alignof(sim::Callback) == 0);

  sim::Callback* items() noexcept { return reinterpret_cast<sim::Callback*>(block_ + 1); }

  void grow() {
    const std::uint32_t capacity = block_ == nullptr ? 1 : 2 * block_->capacity;
    auto* fresh = static_cast<Block*>(
        ::operator new(sizeof(Block) + std::size_t{capacity} * sizeof(sim::Callback)));
    fresh->size = 0;
    fresh->capacity = capacity;
    auto* to = reinterpret_cast<sim::Callback*>(fresh + 1);
    for (sim::Callback& cb : *this) {
      ::new (static_cast<void*>(to + fresh->size++)) sim::Callback(std::move(cb));
      cb.~Callback();
    }
    ::operator delete(block_);
    block_ = fresh;
  }

  Block* block_{nullptr};
};

}  // namespace detail

class CudaEvent {
 public:
  CudaEvent() = default;
  CudaEvent(const CudaEvent&) = delete;
  CudaEvent& operator=(const CudaEvent&) = delete;

  [[nodiscard]] bool completed() const { return completed_; }

  /// Completion timestamp; only valid once completed.
  [[nodiscard]] SimTime when() const {
    GROUT_REQUIRE(completed_, "event not yet completed");
    return when_;
  }

  /// Mark complete and fire all waiters in subscription order (at the
  /// current simulation time).
  void complete(SimTime t) {
    GROUT_CHECK(!completed_, "event completed twice");
    completed_ = true;
    when_ = t;
    // The waiters leave the event before any runs: a waiter may drop the
    // last handle to it.
    sim::Callback first = std::move(first_);
    detail::WaiterArray more = std::move(more_);
    if (first) first();
    for (sim::Callback& w : more) w();
  }

  /// Invoke `cb` when the event completes (immediately if it already has).
  void on_complete(sim::Callback cb) {
    if (completed_) {
      cb();
    } else if (!first_) {
      first_ = std::move(cb);
    } else {
      more_.push_back(std::move(cb));
    }
  }

 private:
  friend class EventPtr;

  std::uint32_t refs_{0};
  bool completed_{false};
  SimTime when_{SimTime::zero()};
  sim::Callback first_;
  detail::WaiterArray more_;
};

static_assert(sizeof(CudaEvent) == 64, "an event is one cache line");

/// Counted handle to a heap CudaEvent; the event is deleted with its last
/// handle. Null-constructible and comparable like a smart pointer.
class EventPtr {
 public:
  EventPtr() noexcept = default;
  EventPtr(std::nullptr_t) noexcept {}  // NOLINT: implicit, like shared_ptr

  EventPtr(const EventPtr& other) noexcept : p_{other.p_} {
    if (p_ != nullptr) ++p_->refs_;
  }
  EventPtr(EventPtr&& other) noexcept : p_{std::exchange(other.p_, nullptr)} {}

  EventPtr& operator=(const EventPtr& other) noexcept {
    EventPtr(other).swap(*this);
    return *this;
  }
  EventPtr& operator=(EventPtr&& other) noexcept {
    EventPtr(std::move(other)).swap(*this);
    return *this;
  }

  ~EventPtr() {
    if (p_ != nullptr && --p_->refs_ == 0) delete p_;
  }

  void swap(EventPtr& other) noexcept { std::swap(p_, other.p_); }

  [[nodiscard]] CudaEvent* get() const noexcept { return p_; }
  CudaEvent* operator->() const noexcept { return p_; }
  CudaEvent& operator*() const noexcept { return *p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }

  friend bool operator==(const EventPtr& a, const EventPtr& b) noexcept { return a.p_ == b.p_; }
  friend bool operator==(const EventPtr& a, std::nullptr_t) noexcept { return a.p_ == nullptr; }

 private:
  friend EventPtr make_event();
  explicit EventPtr(CudaEvent* p) noexcept : p_{p} { ++p_->refs_; }

  CudaEvent* p_{nullptr};
};

static_assert(sizeof(EventPtr) == sizeof(void*), "EventPtr is one pointer");

inline EventPtr make_event() { return EventPtr{new CudaEvent}; }

namespace detail {

/// The shared state of one when_all: the pending count and the callback.
/// Each per-event waiter holds a counted reference; the last one frees it.
struct Join {
  std::uint32_t refs;
  std::uint32_t remaining;
  sim::Callback cb;
};

class JoinWaiter {
 public:
  explicit JoinWaiter(Join* join) noexcept : join_{join} { ++join_->refs; }
  JoinWaiter(JoinWaiter&& other) noexcept : join_{std::exchange(other.join_, nullptr)} {}
  JoinWaiter(const JoinWaiter&) = delete;
  JoinWaiter& operator=(const JoinWaiter&) = delete;
  JoinWaiter& operator=(JoinWaiter&&) = delete;
  ~JoinWaiter() {
    if (join_ != nullptr && --join_->refs == 0) delete join_;
  }

  void operator()() {
    if (--join_->remaining == 0) join_->cb();
  }

 private:
  Join* join_;
};

}  // namespace detail

/// Invoke `cb` once every event in `events` has completed (immediately when
/// the list is empty or all are already done). It fires from the waiter
/// list of the last pending event, as if it had subscribed to each.
inline void when_all(const std::vector<EventPtr>& events, sim::Callback cb) {
  std::uint32_t pending = 0;
  const EventPtr* last = nullptr;
  for (const EventPtr& e : events) {
    GROUT_REQUIRE(static_cast<bool>(e), "when_all over a null event");
    if (!e->completed()) {
      ++pending;
      last = &e;
    }
  }
  if (pending == 0) {
    cb();
  } else if (pending == 1) {
    (*last)->on_complete(std::move(cb));
  } else {
    auto* join = new detail::Join{0, pending, std::move(cb)};
    for (const EventPtr& e : events) {
      if (!e->completed()) e->on_complete(detail::JoinWaiter{join});
    }
  }
}

}  // namespace grout::gpusim
