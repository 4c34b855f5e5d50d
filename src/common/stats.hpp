// Small statistics helpers used by the benchmark harness and the tracer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace grout {

/// Streaming mean / variance / extrema (Welford).
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Collects samples for percentile queries.
///
/// Default-constructed sets keep every sample verbatim. Constructed with a
/// capacity, the set becomes a seeded reservoir (Vitter's Algorithm R): memory
/// stays bounded on arbitrarily long serve runs while percentile() keeps the
/// same API and stays deterministic for a fixed seed and add() sequence.
class SampleSet {
 public:
  SampleSet() = default;

  SampleSet(std::size_t capacity, std::uint64_t seed) : capacity_{capacity}, rng_{seed} {
    GROUT_REQUIRE(capacity > 0, "SampleSet reservoir capacity must be positive");
    samples_.reserve(capacity);
  }

  void add(double x) {
    ++seen_;
    if (capacity_ == 0 || samples_.size() < capacity_) {
      samples_.push_back(x);
    } else {
      // Replace a uniformly random element with probability capacity/seen;
      // each seen sample ends up in the reservoir with equal probability.
      const std::uint64_t j = rng_.next_below(seen_);
      if (j < capacity_) samples_[j] = x;
      else return;
    }
    sorted_ = false;
  }

  /// Number of samples observed (not the reservoir occupancy).
  [[nodiscard]] std::size_t count() const { return seen_; }

  /// Linear-interpolated percentile, p in [0, 100].
  [[nodiscard]] double percentile(double p) {
    GROUT_REQUIRE(!samples_.empty(), "percentile of empty sample set");
    GROUT_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of range");
    ensure_sorted();
    if (samples_.size() == 1) return samples_.front();
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  [[nodiscard]] double median() { return percentile(50.0); }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }
  std::vector<double> samples_;
  std::size_t seen_{0};
  std::size_t capacity_{0};  // 0: unbounded, keep samples verbatim
  Rng rng_{0};
  bool sorted_{true};
};

}  // namespace grout
