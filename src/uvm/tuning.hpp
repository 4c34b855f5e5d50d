// Calibration constants of the UVM model.
//
// The mechanisms (page residency, LRU-style eviction, dirty write-back,
// fault batching) are simulated outright; these constants calibrate the
// service rates of the three pressure regimes. Defaults follow published
// UVM measurements (Zheng et al. HPCA'16 fault latencies; Shao et al.
// ICPE'22 oversubscription regimes) on a V100-class device.
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "uvm/types.hpp"

namespace grout::uvm {

struct UvmTuning {
  /// Migration granularity while the driver can coalesce (healthy regime).
  Bytes page_size = 2_MiB;

  /// Fault granularity once coalescing collapses (storm regime).
  Bytes fine_page_size = 64_KiB;

  /// GPU-side fault handling round-trip per replayable-fault batch.
  SimTime fault_batch_latency = SimTime::from_us(30.0);

  /// Fine-granularity pages serviced per batch in the storm regime.
  std::size_t fine_batch_pages = 2;

  /// Fraction of PCIe bandwidth sustained while evicting on the critical
  /// path (unmap + TLB shootdown + evict-then-fetch serialization).
  double eviction_efficiency = 0.65;

  /// Fixed cost charged per victim page while in the eviction regime.
  SimTime eviction_overhead_per_page = SimTime::from_us(2.0);

  /// Oversubscription factor — live managed allocation over total device
  /// memory, the paper's own definition — beyond which fault coalescing
  /// collapses into the storm regime whenever eviction is active. The
  /// paper observes the cliff between 2x and 3x.
  double storm_oversubscription_threshold = 2.6;

  /// Storm service degrades further as oversubscription deepens
  /// (outstanding faults scale with the unresident footprint): effective
  /// bandwidth is divided by 1 + compound * (rho - threshold)^2.
  double storm_compound = 0.9;

  /// Fault-buffer replay multipliers per kernel parallelism class. The
  /// massive class models grid-wide fault storms that overflow the fault
  /// buffer outright (the paper's MV runs exceed the 2.5 h cap at 3x).
  double replay_moderate = 8.0;
  double replay_high = 24.0;
  double replay_massive = 700.0;

  /// Bandwidth efficiency of remote (AccessedBy) mappings over PCIe.
  double remote_access_efficiency = 0.5;

  /// Volta-style access counters: a remote-mapped page touched this many
  /// times is promoted (migrated) to the accessing device. 0 disables
  /// promotion (pages stay remote forever). At most 255: the per-page
  /// counter is 8 bits wide.
  std::uint32_t access_counter_threshold = 3;

  /// Sequential-prefetcher on: coalesces healthy faults so batch latency is
  /// fully amortized and the link runs at full bandwidth. Off: healthy
  /// fetches pay one batch latency per `healthy_batch_pages` and only reach
  /// `no_prefetch_bw_factor` of the link (fault-driven streaming measures
  /// ~0.5-0.7x of prefetched bandwidth on real UVM).
  bool prefetcher_enabled = true;
  std::size_t healthy_batch_pages = 4;
  double no_prefetch_bw_factor = 0.6;

  [[nodiscard]] double replay_factor(Parallelism p) const {
    switch (p) {
      case Parallelism::Moderate: return replay_moderate;
      case Parallelism::High: return replay_high;
      case Parallelism::Massive: return replay_massive;
    }
    return replay_high;
  }

  /// Effective storm-mode service bandwidth for a given parallelism.
  [[nodiscard]] Bandwidth storm_bandwidth(Parallelism p) const {
    const double bytes_per_batch =
        static_cast<double>(fine_batch_pages) * static_cast<double>(fine_page_size);
    const double batch_seconds = fault_batch_latency.seconds() * replay_factor(p);
    return Bandwidth::bytes_per_sec(bytes_per_batch / batch_seconds);
  }
};

/// Victim selection strategy for device memory eviction.
enum class EvictionPolicyKind : std::uint8_t {
  ClockLru,  ///< insertion order with second-chance for the running kernel's pages
  Fifo,      ///< strict insertion order
  Random,    ///< uniform random resident page
};

const char* to_string(EvictionPolicyKind k);

}  // namespace grout::uvm
