// KPI-driven autoscaling heuristic (Section V-F).
//
// The paper observes a direct link between execution time and the
// oversubscription factor and suggests a heuristic model that allocates
// more nodes once the steep region is reached. This component implements
// that suggestion: it watches each node's UVM counters and recommends the
// smallest worker count that would keep every node's eviction intensity
// under the storm threshold. It is an offline heuristic: a caller feeds it
// one run's counters, then reruns on the recommended size (cluster
// membership is fixed for the life of a run).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "uvm/tuning.hpp"
#include "uvm/uvm_space.hpp"

namespace grout::core {

struct AutoscaleDecision {
  bool scale_out{false};
  std::size_t recommended_workers{1};
  std::string reason;
};

class KpiAutoscaler {
 public:
  /// The KPI keeps every device's oversubscription pressure under the storm
  /// threshold with some margin, which avoids the cliff entirely.
  explicit KpiAutoscaler(const uvm::UvmTuning& tuning, double margin = 0.8,
                         std::size_t max_workers = 16)
      : intensity_kpi_{tuning.storm_oversubscription_threshold * margin},
        max_workers_{max_workers} {
    GROUT_REQUIRE(margin > 0.0 && margin <= 1.0, "margin must be in (0, 1]");
  }

  /// Feed one node's counters (once per node of the run).
  void observe(const uvm::UvmStats& stats) {
    peak_intensity_ = std::max(peak_intensity_, stats.peak_oversubscription);
    storms_ += stats.storm_kernels;
    kernels_ += stats.kernels;
  }

  [[nodiscard]] double peak_intensity() const { return peak_intensity_; }
  [[nodiscard]] std::size_t observed_storms() const { return storms_; }

  /// Recommend a worker count for the observed pressure. Splitting a
  /// working set over k nodes divides each node's eviction intensity by
  /// roughly k (row-partitioned data), so the smallest satisfying count is
  /// ceil(peak / kpi) relative to the current one.
  [[nodiscard]] AutoscaleDecision recommend(std::size_t current_workers) const {
    AutoscaleDecision d;
    d.recommended_workers = current_workers;
    if (kernels_ == 0 || peak_intensity_ <= intensity_kpi_) {
      d.reason = "eviction intensity within KPI";
      return d;
    }
    const double factor = peak_intensity_ / intensity_kpi_;
    const std::size_t target = std::min(
        max_workers_,
        std::max<std::size_t>(current_workers + 1,
                              static_cast<std::size_t>(std::ceil(
                                  static_cast<double>(current_workers) * factor))));
    d.scale_out = target > current_workers;
    d.recommended_workers = target;
    d.reason = str_cat("peak device oversubscription ", std::to_string(peak_intensity_),
                       " exceeds KPI ", std::to_string(intensity_kpi_));
    return d;
  }

 private:
  double intensity_kpi_;
  std::size_t max_workers_;
  double peak_intensity_{0.0};
  std::size_t storms_{0};
  std::size_t kernels_{0};
};

}  // namespace grout::core
