// Set of cluster locations (controller + workers) holding an up-to-date
// copy of an array.
//
// Worker membership is a packed 64-bit-word bitmask so the placement
// policies can test and enumerate holders without touching one bool per
// worker: `worker()` is a bit test, `for_each_worker` walks set bits via
// countr_zero, and `holder_count` is a popcount — all O(W/64 + holders)
// rather than O(W) per probe loop. The first word (workers 0-63) lives
// inline, so on clusters of up to 64 workers a probe never leaves the
// directory entry; only larger clusters touch the heap words.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace grout::core {

class LocationSet {
 public:
  explicit LocationSet(std::size_t workers = 0) : slots_{workers}, rest_(extra_words(workers), 0) {}

  [[nodiscard]] std::size_t worker_slots() const { return slots_; }

  [[nodiscard]] bool controller() const { return controller_; }
  [[nodiscard]] bool worker(std::size_t i) const {
    GROUT_REQUIRE(i < slots_, "worker index out of range");
    return (word(i) >> (i & 63)) & 1;
  }

  /// Widen the set to `workers` slots (elastic hot-join: every directory
  /// entry gains capacity for the new worker ids). Existing membership is
  /// preserved; shrinking is not supported — a drained worker keeps its
  /// slot so indices stay stable.
  void grow(std::size_t workers) {
    GROUT_REQUIRE(workers >= slots_, "LocationSet cannot shrink");
    slots_ = workers;
    rest_.resize(extra_words(workers), 0);
  }

  void add_controller() { controller_ = true; }
  void add_worker(std::size_t i) {
    GROUT_REQUIRE(i < slots_, "worker index out of range");
    word(i) |= std::uint64_t{1} << (i & 63);
  }
  /// Forget a worker's copy (e.g. the worker died). May leave the set
  /// empty; the caller is responsible for restoring the holder invariant.
  void remove_worker(std::size_t i) {
    GROUT_REQUIRE(i < slots_, "worker index out of range");
    word(i) &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Exclusive ownership after a write.
  void reset_to_controller() {
    controller_ = true;
    clear_workers();
  }
  void reset_to_worker(std::size_t i) {
    GROUT_REQUIRE(i < slots_, "worker index out of range");
    controller_ = false;
    clear_workers();
    word(i) = std::uint64_t{1} << (i & 63);
  }

  [[nodiscard]] std::size_t holder_count() const {
    std::size_t n = (controller_ ? 1 : 0) + static_cast<std::size_t>(std::popcount(first_));
    for (const std::uint64_t w : rest_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  [[nodiscard]] bool any() const {
    if (controller_ || first_ != 0) return true;
    for (const std::uint64_t w : rest_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Visit every worker holder in ascending order without allocating.
  template <typename Fn>
  void for_each_worker(Fn&& fn) const {
    visit_bits(first_, 0, fn);
    for (std::size_t k = 0; k < rest_.size(); ++k) visit_bits(rest_[k], (k + 1) * 64, fn);
  }

  /// Worker holders, ascending.
  [[nodiscard]] std::vector<std::size_t> worker_holders() const {
    std::vector<std::size_t> out;
    for_each_worker([&out](std::size_t i) { out.push_back(i); });
    return out;
  }

 private:
  static std::size_t extra_words(std::size_t workers) {
    return workers > 64 ? (workers - 1) / 64 : 0;
  }
  template <typename Fn>
  static void visit_bits(std::uint64_t m, std::size_t base, Fn& fn) {
    while (m != 0) {
      fn(base + static_cast<std::size_t>(std::countr_zero(m)));
      m &= m - 1;
    }
  }
  [[nodiscard]] std::uint64_t word(std::size_t i) const {
    return i < 64 ? first_ : rest_[(i >> 6) - 1];
  }
  std::uint64_t& word(std::size_t i) { return i < 64 ? first_ : rest_[(i >> 6) - 1]; }
  void clear_workers() {
    first_ = 0;
    std::fill(rest_.begin(), rest_.end(), 0);
  }

  bool controller_{false};
  std::size_t slots_{0};
  std::uint64_t first_{0};           ///< workers 0-63
  std::vector<std::uint64_t> rest_;  ///< workers 64 and up, 64 per word
};

}  // namespace grout::core
