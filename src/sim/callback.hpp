// Move-only `void()` callable with fixed inline storage.
//
// Every event of the engine carries one: the Simulator's pending events,
// a CudaEvent's waiters, a fabric command's delivery. The capture lives in
// a kCapacity-byte buffer inside the Callback; there is no heap fallback.
// A capture that is larger than the buffer, over-aligned or not nothrow
// movable does not satisfy the constructor's constraint, so it fails to
// compile instead of allocating. A closure that needs more state keeps it
// in a record its owner holds and captures `this` plus an index.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace grout::sim {

class Callback {
 public:
  /// Inline capture limit in bytes: four words, e.g. `this`, an index, an
  /// EventPtr and one more word.
  static constexpr std::size_t kCapacity = 32;
  static constexpr std::size_t kAlignment = alignof(void*);

  /// Whether a callable of type F is stored inline (the only way it can be
  /// stored).
  template <typename F>
  static constexpr bool fits = sizeof(F) <= kCapacity && alignof(F) <= kAlignment &&
                               std::is_nothrow_move_constructible_v<F>;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: implicit, so `= nullptr` reads as empty

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, Callback> && std::is_invocable_r_v<void, D&> && fits<D>)
  Callback(F&& f) {  // NOLINT: implicit, so a lambda converts at the call site
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  Callback(Callback&& other) noexcept { take(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invoke the stored callable (which must be set).
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into `dst` and destroy `src`; nullptr = bitwise copy.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr = trivially destructible.
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr Ops kOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              ::new (dst) D(std::move(*static_cast<D*>(src)));
              static_cast<D*>(src)->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* p) noexcept { static_cast<D*>(p)->~D(); },
  };

  void take(Callback& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      // The whole buffer, whatever the capture's size: bytes past it are
      // indeterminate, and copying indeterminate bytes is well defined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
      std::memcpy(buf_, other.buf_, kCapacity);
#pragma GCC diagnostic pop
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(kAlignment) std::byte buf_[kCapacity];
  const Ops* ops_{nullptr};
};

static_assert(sizeof(Callback) == Callback::kCapacity + sizeof(void*),
              "a Callback is its inline buffer plus one table pointer");

}  // namespace grout::sim
