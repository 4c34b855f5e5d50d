// Records addressed by a 32-bit index, with a free list.
//
// A protocol whose stages run as separate events keeps its payload in a
// slab record and has each stage's callback capture only the record's
// index, which keeps the callback within sim::Callback's inline limit.
// Each record is its own heap block, so it never moves while the slab
// grows, and a released record keeps its storage (and its members'
// capacity) for the next acquire. An empty slab owns no heap memory.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hpp"

namespace grout::sim {

template <typename T>
class Slab {
 public:
  /// A free record's index (a fresh, value-initialized one if none is free).
  /// A reused record holds whatever its last user left in it.
  std::uint32_t acquire() {
    if (free_.empty()) {
      GROUT_CHECK(records_.size() < std::numeric_limits<std::uint32_t>::max(),
                  "slab index overflow");
      records_.push_back(std::make_unique<T>());
      return static_cast<std::uint32_t>(records_.size() - 1);
    }
    const std::uint32_t i = free_.back();
    free_.pop_back();
    return i;
  }

  /// Return record `i` for reuse.
  void release(std::uint32_t i) { free_.push_back(i); }

  T& operator[](std::uint32_t i) { return *records_[i]; }

 private:
  std::vector<std::unique_ptr<T>> records_;
  std::vector<std::uint32_t> free_;
};

}  // namespace grout::sim
