// Online access-pattern profiling for adaptive oversubscription management.
//
// The AccessProfiler maintains one sliding-window profile per (tenant x
// array) from the dispatch/completion stream the runtime already observes:
//
//   * a sequentiality score — the fraction of recent dispatches that touch
//     the array with a sequential (streaming / strided) declared pattern;
//   * a compact reuse-distance sketch — a log2-bucketed histogram of the
//     number of dispatches between successive touches of the array, plus
//     the window's reuse/random pattern shares and an EWMA page-hit rate
//     from the UVM fault reports;
//   * a write-share — the fraction of recent touches that write.
//
// From those features each array is classified online as *streaming*
// (sequential single-pass, replicas die after the pass), *reuse* (hot
// working set, replicas pay off), or *random* (no spatial locality, the
// sequential prefetcher fetches garbage). The PolicyTuner consumes the
// classes to retune prefetch, eviction and exploration policy live.
//
// Determinism: the profiler is plain controller-side state. It is fed
// exclusively from controller-side events (dispatch decisions and the
// completion acks that ship each worker's AccessReport back to the
// controller), so profiles, classes and every retune decision derived
// from them replay identically on every run of the same seed.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "uvm/access.hpp"

namespace grout::core::adapt {

using GlobalArrayId = std::uint32_t;

/// Online classification of one array's observed access pattern.
enum class AccessClass : std::uint8_t { Unknown, Streaming, Reuse, Random };

const char* to_string(AccessClass c);

/// Adaptive-management knobs (the --adapt CLI surface).
struct AdaptConfig {
  bool enabled{false};
  /// Sliding-window length per array, in dispatch observations.
  std::size_t window{32};
  /// Cadence of the tuner's periodic retune sweeps on the engine.
  SimTime interval = SimTime::from_ms(50.0);
  /// Observations required before an array is classified (and tuned).
  std::size_t min_samples{4};
  /// Write-share below which an unowned (shared-pool) array is advised
  /// ReadMostly automatically.
  double read_mostly_write_share{0.05};

  /// Dies loudly on nonsensical values (parse-time for the CLI knobs).
  void validate() const;
};

/// One array's current profile — the features plus the derived class.
struct ArrayProfile {
  std::string name;
  TenantId tenant{kNoTenant};
  AccessClass cls{AccessClass::Unknown};
  /// Total dispatch observations ever (monotone; invariant-checked).
  std::uint64_t samples{0};
  /// Window features, recomputed at classification sweeps.
  double sequentiality{0.0};  ///< streaming/strided share of the window
  double reuse_share{0.0};    ///< hot-reuse share of the window
  double random_share{0.0};   ///< random share of the window
  double write_share{0.0};    ///< writing touches / touches
  double hit_rate{0.0};       ///< EWMA of per-CE UVM page-hit fraction
  /// log2-bucketed reuse distances (dispatches between touches): bucket 0
  /// is distance 1, bucket i covers [2^i, 2^(i+1)). Monotone counters.
  std::uint32_t reuse_hist[8]{};
  /// Times the classification sweep changed this array's class (monotone).
  std::uint64_t reclassifications{0};
  /// Dispatch tick of the most recent touch (for dead-replica prediction).
  std::uint64_t last_touch_tick{0};
};

class AccessProfiler {
 public:
  explicit AccessProfiler(AdaptConfig cfg);

  /// Controller-side, at CE dispatch: advance the dispatch tick once per CE
  /// (reuse distances are measured in CEs between touches)...
  void begin_ce() { ++tick_; }

  /// ...then record each parameter access of the CE being placed. The
  /// declared pattern is the ground-truth sequentiality signal.
  void observe_dispatch(TenantId tenant, GlobalArrayId array, const std::string& name,
                        const uvm::ParamAccess& access);

  /// Controller-side, from the completion ack: the worker's UVM report for
  /// one CE, attributed to the arrays the CE touched (CE-granular, so the
  /// hit rate is a heuristic blend across the CE's parameters).
  void observe_report(const std::vector<GlobalArrayId>& arrays,
                      const uvm::AccessReport& report);

  /// Recompute features and classes from the current windows; returns the
  /// arrays whose class changed. Called by the tuner's periodic sweep only
  /// (never mid-dispatch), so retunes happen at sweep boundaries alone.
  std::vector<GlobalArrayId> classify();

  /// Profile of `array`, or nullptr when it was never observed.
  [[nodiscard]] const ArrayProfile* profile(GlobalArrayId array) const;

  /// Every observed array id, ascending (deterministic iteration order).
  [[nodiscard]] std::vector<GlobalArrayId> observed_arrays() const;

  [[nodiscard]] const AdaptConfig& config() const { return cfg_; }
  /// Total dispatch observations across all arrays (monotone).
  [[nodiscard]] std::uint64_t total_samples() const { return total_samples_; }
  /// Classification sweeps run so far (monotone).
  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_; }
  /// Global dispatch tick (one per observed CE — monotone).
  [[nodiscard]] std::uint64_t tick() const { return tick_; }
  /// Arrays currently holding each class.
  [[nodiscard]] std::size_t class_count(AccessClass c) const;

 private:
  struct Sample {
    bool sequential{false};
    bool reuse{false};
    bool random{false};
    bool write{false};
  };

  struct State {
    ArrayProfile profile;
    std::deque<Sample> window;
  };

  State& state_of(TenantId tenant, GlobalArrayId array, const std::string& name);

  AdaptConfig cfg_;
  /// Dense by array id — ids are small and dense in this runtime.
  std::vector<State> arrays_;
  std::vector<bool> known_;
  std::uint64_t tick_{0};
  std::uint64_t total_samples_{0};
  std::uint64_t sweeps_{0};
};

}  // namespace grout::core::adapt
