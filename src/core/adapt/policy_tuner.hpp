// PolicyTuner: turns AccessProfiler classes into live policy retunes.
//
// Consumes the per-array classifications and retunes three knob sites that
// were static before this subsystem existed:
//
//   * per-array prefetch — sequential classes (streaming, reuse) force the
//     UVM sequential prefetcher ON for the array, random classes force it
//     OFF (the prefetcher fetches garbage neighbours); unknown arrays keep
//     the global default;
//   * dead-replica prediction — a streaming-classified array that has not
//     been touched for a full profile window is predicted dead: its
//     replicas are sunk cost, and the governor evicts them ahead of
//     refetch-cost LRU victims;
//   * per-query exploration thresholds — a CE whose inputs are
//     streaming-dominant explores aggressively (high threshold: spreading
//     a single-pass stream is cheap), reuse-dominant CEs exploit (low
//     threshold: moving a hot set is expensive), random/mixed CEs keep the
//     medium default. Values come from a validated ThresholdTable;
//   * automatic ReadMostly — a shared (unowned) array whose write-share
//     stays under the configured bound is advised ReadMostly, so the
//     contention-serving read storm duplicates instead of ping-ponging.
//
// The tuner mutates nothing itself: sweep() returns the actions and the
// runtime applies them (and emits `adapt:` trace spans), keeping all state
// changes on the controller side at sweep boundaries only.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/adapt/access_profiler.hpp"
#include "core/policies.hpp"

namespace grout::core::adapt {

/// One policy change decided by a retune sweep.
struct RetuneAction {
  enum class Kind : std::uint8_t {
    PrefetchOn,        ///< force the array's prefetcher on
    PrefetchOff,       ///< force it off
    PrefetchDefault,   ///< drop the override (back to the global flag)
    AdviseReadMostly,  ///< read-duplicate the shared array
  };
  GlobalArrayId array{0};
  Kind kind{Kind::PrefetchDefault};
  AccessClass cls{AccessClass::Unknown};  ///< class that drove the action
};

class PolicyTuner {
 public:
  explicit PolicyTuner(AdaptConfig cfg,
                       const ThresholdTable& table = ThresholdTable::defaults());

  /// Per-query exploration threshold for a CE over `inputs`, from the
  /// majority class of its classified input arrays; nullopt when nothing
  /// is classified yet (the policy keeps its configured threshold).
  [[nodiscard]] std::optional<double> query_threshold(
      const AccessProfiler& profiler, const std::vector<GlobalArrayId>& inputs) const;

  /// One retune sweep: reclassify, refresh the predicted-dead set, and
  /// return the prefetch/advise actions whose desired setting changed.
  /// `is_shared` reports whether an array is unowned (eligible for the
  /// automatic ReadMostly advise); arrays already advised are skipped via
  /// the tuner's own bookkeeping.
  std::vector<RetuneAction> sweep(AccessProfiler& profiler,
                                  const std::function<bool(GlobalArrayId)>& is_shared);

  /// True when the last sweep predicted the array's replicas dead (the
  /// governor's victim-scoring hook). Stable between sweeps.
  [[nodiscard]] bool predicted_dead(GlobalArrayId array) const;

  [[nodiscard]] std::uint64_t retunes() const { return retunes_; }
  [[nodiscard]] std::uint64_t prefetch_overrides() const { return prefetch_overrides_; }
  [[nodiscard]] std::uint64_t auto_advises() const { return auto_advises_; }
  [[nodiscard]] std::size_t predicted_dead_count() const;

 private:
  AdaptConfig cfg_;
  const ThresholdTable& table_;
  /// Current override per array id (nullopt = default), mirroring what the
  /// runtime applied — actions are emitted only on change.
  std::vector<std::optional<bool>> applied_prefetch_;
  std::vector<bool> advised_read_mostly_;
  std::vector<bool> dead_;
  std::uint64_t retunes_{0};
  std::uint64_t prefetch_overrides_{0};
  std::uint64_t auto_advises_{0};
};

}  // namespace grout::core::adapt
