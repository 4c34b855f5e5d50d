// UvmSpace: the unified-virtual-memory simulator for one node.
//
// Host DRAM plus N GPU memories form one coherent space. Pages (default
// 2 MiB) migrate on demand: a device touch of a non-resident page faults and
// fetches it over that device's PCIe link; a full device evicts a victim
// first (write-back when the victim is the only up-to-date copy). Three
// service regimes emerge from pressure:
//
//   healthy   free space available          -> PCIe-bandwidth-bound
//   eviction  victims on the critical path  -> PCIe * eviction_efficiency
//   storm     eviction intensity beyond the -> fine-granularity faults,
//             coalescing threshold             replay-latency-bound
//
// The storm regime is the mechanistic source of the paper's oversubscription
// cliff (Figs 1/6a); its constants live in UvmTuning.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "uvm/access.hpp"
#include "uvm/tuning.hpp"
#include "uvm/types.hpp"

namespace grout::uvm {

/// Static description of one GPU memory attached to the space.
struct DeviceConfig {
  std::string name;
  Bytes capacity{16_GiB};
  Bandwidth pcie_bw = Bandwidth::gib_per_sec(16.0);
  SimTime pcie_latency = SimTime::from_us(5.0);
};

/// Aggregate counters across the lifetime of the space.
struct UvmStats {
  Bytes bytes_fetched{0};
  Bytes bytes_written_back{0};
  std::uint64_t faults{0};
  std::uint64_t evictions{0};
  std::uint64_t storm_kernels{0};
  std::uint64_t kernels{0};
  /// Bytes brought in by explicit prefetch() calls, and the subset whose
  /// pages were later hit by a device touch before being evicted.
  Bytes prefetch_issued{0};
  Bytes prefetch_useful{0};
};

/// Result of a device access, including link-queue completion times.
struct DeviceAccessResult {
  AccessReport report;
  SimTime h2d_done;  ///< PCIe host->device queue drained for this access
  SimTime d2h_done;  ///< PCIe device->host queue drained (write-backs)
};

class UvmSpace {
 public:
  UvmSpace(sim::Simulator& simulator, UvmTuning tuning, std::vector<DeviceConfig> devices,
           EvictionPolicyKind eviction = EvictionPolicyKind::ClockLru,
           std::uint64_t seed = 0x5eedULL);

  UvmSpace(const UvmSpace&) = delete;
  UvmSpace& operator=(const UvmSpace&) = delete;

  // -- allocation ----------------------------------------------------------

  /// Allocate `bytes` of managed memory; initially resident on the host.
  ArrayId alloc(Bytes bytes, std::string name);

  /// Release an allocation and all its resident pages.
  void free_array(ArrayId id);

  [[nodiscard]] Bytes array_bytes(ArrayId id) const;
  [[nodiscard]] const std::string& array_name(ArrayId id) const;
  [[nodiscard]] std::size_t live_arrays() const { return live_arrays_; }

  /// Apply a cudaMemAdvise-style hint.
  void advise(ArrayId id, Advise advise, DeviceId device = kHostDevice);

  // -- accesses ------------------------------------------------------------

  /// Replay one kernel's parameter accesses on `device`, migrating pages and
  /// charging the PCIe links. Returns the traffic report and queue times.
  DeviceAccessResult device_access(DeviceId device, std::span<const ParamAccess> params,
                                   Parallelism parallelism);

  /// CPU touch of (part of) an array; migrates device-resident pages home.
  HostAccessReport host_access(ArrayId id, AccessMode mode, ByteRange range = {});

  /// Explicit bulk migration (cudaMemPrefetchAsync): full PCIe bandwidth,
  /// no fault overheads. Returns the completion time on the link queue.
  SimTime prefetch(ArrayId id, DeviceId device, ByteRange range = {});

  /// Mark the array's current content as "arrived on the host" without PCIe
  /// cost (used when a network transfer lands); device copies are dropped.
  void adopt_host_copy(ArrayId id);

  // -- inspection ----------------------------------------------------------

  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] Bytes capacity(DeviceId device) const;
  [[nodiscard]] Bytes resident_bytes(DeviceId device) const;
  /// Distinct bytes ever faulted on `device` (monotone except for frees).
  [[nodiscard]] Bytes sticky_bytes(DeviceId device) const;
  /// sticky_bytes / capacity: the device's oversubscription pressure.
  [[nodiscard]] double oversubscription(DeviceId device) const;
  /// Live managed allocation over total device memory — the paper's
  /// nominal oversubscription factor.
  [[nodiscard]] double allocation_pressure() const;
  /// Touched working set (distinct pages ever faulted, all devices) over
  /// total device memory. Drives the storm regime: for fully-touched
  /// allocations it equals the allocation pressure, while range-partitioned
  /// accesses to a shared array only count the ranges actually faulted.
  [[nodiscard]] double working_set_pressure() const;
  [[nodiscard]] Bytes live_allocated_bytes() const { return live_bytes_; }
  [[nodiscard]] bool page_resident(ArrayId id, std::uint32_t page, DeviceId device) const;
  /// Bytes of `id` currently resident on `device` (kHostDevice for host).
  [[nodiscard]] Bytes resident_bytes_of(ArrayId id, DeviceId device) const;
  [[nodiscard]] std::uint32_t page_count(ArrayId id) const;
  [[nodiscard]] const UvmStats& stats() const { return stats_; }
  [[nodiscard]] const UvmTuning& tuning() const { return tuning_; }
  [[nodiscard]] sim::Resource& h2d_link(DeviceId device);
  [[nodiscard]] sim::Resource& d2h_link(DeviceId device);

 private:
  struct PageState {
    std::uint16_t mask{1};  ///< residency bits: bit0 = host, bit (d+1) = device d
    std::uint16_t ever_mask{0};  ///< devices that ever faulted this page
    /// Epoch of the last touch if it was a hot one (HotReusePattern), else
    /// 0. A hot page is protected from second-chance eviction while that
    /// epoch is its device's current one.
    std::uint32_t hot_epoch{0};
    std::uint8_t remote_hits{0};  ///< access-counter value for AccessedBy pages
    /// False until the page holds real data (host init, device write, or a
    /// network arrival). First-touch of an unpopulated page allocates
    /// device-side directly — no host->device copy, like cudaMallocManaged
    /// memory first touched by a kernel.
    bool populated{false};
    /// Set by prefetch(); cleared (and counted useful) on the next touch
    /// hit, or silently on eviction/migration (a wasted prefetch).
    bool prefetched{false};
    /// Scratch for compact_ring: set on the page's first kept ring entry.
    bool ring_mark{false};
  };

  struct ArrayInfo {
    std::string name;
    Bytes bytes{0};
    std::vector<PageState> pages;
    Advise advise{Advise::None};
    DeviceId advise_device{kHostDevice};
    bool live{false};
  };

  struct RingEntry {
    ArrayId array;
    std::uint32_t page;
  };

  /// The eviction candidates of one device in insertion order: a
  /// contiguous circular buffer (power-of-two slots, doubled when full).
  /// Index 0 is the oldest entry.
  class Ring {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    RingEntry& operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
    RingEntry& front() { return slots_[head_]; }
    RingEntry& back() { return (*this)[size_ - 1]; }
    void push_back(RingEntry entry) {
      if (!slots_ || size_ > mask_) grow();
      ++size_;
      back() = entry;
    }
    void pop_front() {
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    void pop_back() { --size_; }
    /// Keep only the `n` oldest entries.
    void truncate(std::size_t n) { size_ = n; }

   private:
    void grow();

    std::unique_ptr<RingEntry[]> slots_;
    std::size_t mask_{0};  ///< slot count - 1
    std::size_t head_{0};
    std::size_t size_{0};
  };

  struct DeviceState {
    DeviceConfig config;
    std::uint16_t bit{0};  ///< this device's residency bit
    std::size_t capacity_pages{0};
    std::size_t used_pages{0};
    /// Distinct pages ever faulted here (the driver's working-set pressure).
    std::size_t sticky_pages{0};
    Ring ring;
    /// A fault that grows the ring past this many entries compacts it.
    std::size_t ring_limit{0};
    std::uint32_t current_epoch{0};
    std::unique_ptr<sim::Resource> h2d;
    std::unique_ptr<sim::Resource> d2h;
  };

  struct TouchCounters {
    Bytes healthy_fetch{0};
    Bytes evict_fetch{0};
    Bytes populate_alloc{0};
    Bytes writeback{0};
    Bytes hit{0};
    Bytes touched{0};
    std::uint64_t faults{0};
    std::uint64_t evictions{0};
  };

  /// One parameter's access on one device, resolved once for its range.
  struct PageRun {
    DeviceState& dev;
    ArrayInfo& arr;
    ArrayId id;
    AccessMode mode;
  };

  /// Residency mask width: the host bit plus one bit per device.
  static constexpr std::size_t kMaxDevices = 15;

  static constexpr std::uint16_t host_bit() { return 1u; }
  static constexpr std::uint16_t device_bit(DeviceId d) {
    return static_cast<std::uint16_t>(1u << (d + 1));
  }
  /// Index of the lowest device whose bit is set in `bits` (host bit clear).
  static std::size_t device_index(unsigned bits) {
    return static_cast<std::size_t>(std::countr_zero(bits) - 1);
  }

  ArrayInfo& array_ref(ArrayId id);
  const ArrayInfo& array_ref(ArrayId id) const;

  DeviceState& device_ref(DeviceId id);
  const DeviceState& device_ref(DeviceId id) const;

  [[nodiscard]] Bytes page_bytes(const ArrayInfo& arr, std::uint32_t page) const;
  [[nodiscard]] ByteRange normalize_range(const ArrayInfo& arr, ByteRange range) const;

  /// Touch pages first, first + stride, ... below last, in order.
  void replay_run(const PageRun& run, std::uint32_t first, std::uint32_t last,
                  std::uint32_t stride, bool hot, TouchCounters& c);

  /// Touch one page; classifies hit/miss, evicts if needed.
  void touch_page(const PageRun& run, std::uint32_t page, bool hot, TouchCounters& c);

  /// Evict one page from `dev`; returns false if nothing evictable.
  bool evict_one(DeviceState& dev, TouchCounters& c);

  /// Remove `dev`'s residency bit; write back if it held the only copy.
  void drop_residency(ArrayInfo& arr, std::uint32_t page, DeviceState& dev, TouchCounters& c);

  /// Free the device slot of every copy of `st` but `keep`'s (a device
  /// bit, or 0 for none). The caller then rewrites `st.mask`.
  void release_device_copies(const PageState& st, std::uint16_t keep);

  void compact_ring(DeviceState& dev);

  /// Call fn(first, last, stride, hot) for each run of pages `pattern`
  /// touches, in touch order (a random pattern is a run per touch).
  template <typename RunFn>
  void for_each_run(const ArrayInfo& arr, ByteRange range, const AccessPattern& pattern,
                    RunFn&& fn);

  sim::Simulator& sim_;
  UvmTuning tuning_;
  EvictionPolicyKind eviction_;
  Rng rng_;
  std::vector<ArrayInfo> arrays_;
  std::vector<DeviceState> devices_;
  std::size_t live_arrays_{0};
  Bytes live_bytes_{0};
  Bytes total_capacity_bytes_{0};
  std::uint32_t epoch_counter_{0};
  UvmStats stats_;
};

}  // namespace grout::uvm
