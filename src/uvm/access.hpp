// Access pattern descriptors.
//
// A kernel does not execute instructions in the simulator; instead each
// parameter carries a pattern describing which pages it touches and in what
// order. The fault engine replays the pattern against the device's residency
// state, which is what makes thrashing emerge mechanistically.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/units.hpp"
#include "uvm/types.hpp"

namespace grout::uvm {

/// Touch the range sequentially, front to back, `passes` times.
struct StreamingPattern {
  std::uint32_t passes{1};
};

/// The whole range is re-touched throughout the kernel (e.g. the dense `x`
/// vector of a matrix-vector product): pages are referenced continuously and
/// therefore protected from second-chance eviction while the kernel runs.
struct HotReusePattern {};

/// Touch a uniformly random subset of pages covering `fraction` of the range.
struct RandomPattern {
  double fraction{1.0};
  std::uint64_t seed{0};
};

using AccessPattern = std::variant<StreamingPattern, HotReusePattern, RandomPattern>;

/// One kernel parameter access.
struct ParamAccess {
  ArrayId array{kInvalidArray};
  ByteRange range;  ///< empty range means "the whole allocation"
  AccessMode mode{AccessMode::Read};
  AccessPattern pattern{StreamingPattern{}};
};

/// Outcome of replaying one kernel's accesses on a device.
struct AccessReport {
  Bytes bytes_touched{0};     ///< unique bytes referenced (hits + misses)
  Bytes bytes_hit{0};         ///< already resident
  Bytes healthy_fetch{0};     ///< migrated with free space available
  Bytes evict_fetch{0};       ///< migrated after evicting a victim
  Bytes populate_alloc{0};    ///< first-touch of never-populated pages (no H2D copy)
  Bytes writeback{0};         ///< dirty victim traffic device->host
  std::uint64_t faults{0};    ///< page-granular fault count
  std::uint64_t evictions{0};
  double eviction_intensity{0.0};  ///< evicted bytes / device capacity
  /// Device oversubscription ratio: distinct bytes ever faulted on the
  /// device / capacity (the black-box driver's working-set pressure).
  double oversubscription{0.0};
  bool storm{false};  ///< fault coalescing collapsed
  SimTime fault_time{SimTime::zero()};      ///< host->device service time
  SimTime writeback_time{SimTime::zero()};  ///< device->host victim traffic
  /// Total memory-system stall attributable to UVM for this kernel.
  [[nodiscard]] SimTime stall_time() const {
    return fault_time > writeback_time ? fault_time : writeback_time;
  }
};

/// Outcome of a host-side (CPU) access.
struct HostAccessReport {
  Bytes bytes_migrated{0};  ///< device->host migrations triggered
  SimTime duration{SimTime::zero()};
};

}  // namespace grout::uvm
