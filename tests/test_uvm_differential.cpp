// Differential test: UvmSpace's range replay against the per-page engine
// it replaced (oracle::NaiveUvm, tests/support/naive_oracles.hpp).
//
// UvmSpace resolves plain resident hits inline, services every other touch
// with pre-resolved references, keeps its eviction ring in a circular
// buffer and compacts it with per-page marks. None of that may change a
// single page's state. Both engines run side by side on one simulator,
// driven by the same seeded stream of device accesses (all four patterns,
// partial ranges, multi-pass streams, every access mode), prefetches, host
// accesses, network adoptions, frees and advises. After every call the
// test compares the call's result, the statistics, every device's resident
// and sticky bytes, and the residency of every page on every device.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "tests/support/naive_oracles.hpp"
#include "uvm/uvm_space.hpp"

namespace grout::uvm {
namespace {

struct Coverage {
  std::size_t accesses{0};
  std::size_t faults{0};
  std::size_t evictions{0};
  std::size_t hits{0};
  std::size_t remote{0};
  std::size_t prefetch_useful{0};
  std::size_t compactions{0};
};

void expect_same(const AccessReport& a, const AccessReport& b) {
  EXPECT_EQ(a.bytes_touched, b.bytes_touched);
  EXPECT_EQ(a.bytes_hit, b.bytes_hit);
  EXPECT_EQ(a.healthy_fetch, b.healthy_fetch);
  EXPECT_EQ(a.evict_fetch, b.evict_fetch);
  EXPECT_EQ(a.populate_alloc, b.populate_alloc);
  EXPECT_EQ(a.writeback, b.writeback);
  EXPECT_EQ(a.remote_access, b.remote_access);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.eviction_intensity, b.eviction_intensity);
  EXPECT_EQ(a.oversubscription, b.oversubscription);
  EXPECT_EQ(a.storm, b.storm);
  EXPECT_EQ(a.fault_time, b.fault_time);
  EXPECT_EQ(a.writeback_time, b.writeback_time);
}

void expect_same(const UvmStats& a, const UvmStats& b) {
  EXPECT_EQ(a.bytes_fetched, b.bytes_fetched);
  EXPECT_EQ(a.bytes_written_back, b.bytes_written_back);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.storm_kernels, b.storm_kernels);
  EXPECT_EQ(a.kernels, b.kernels);
  EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
  EXPECT_EQ(a.prefetch_useful, b.prefetch_useful);
}

class UvmRig {
 public:
  UvmRig(std::uint64_t seed, EvictionPolicyKind policy, std::size_t devices,
         std::size_t capacity_pages)
      : rng_{seed}, devices_{devices} {
    UvmTuning tuning;
    tuning.page_size = 1_MiB;
    tuning.fine_page_size = 64_KiB;
    // A low threshold with prefetcher-off keeps the storm regime and the
    // batch-latency path in play on these tiny devices.
    tuning.storm_oversubscription_threshold = 1.5;
    tuning.prefetcher_enabled = rng_.next_below(2) == 0;
    tuning.access_counter_threshold = static_cast<std::uint32_t>(rng_.next_below(4));
    std::vector<DeviceConfig> configs;
    for (std::size_t d = 0; d < devices; ++d) {
      DeviceConfig dc;
      dc.name = "gpu" + std::to_string(d);
      dc.capacity = capacity_pages * tuning.page_size;
      configs.push_back(dc);
    }
    space_ = std::make_unique<UvmSpace>(sim_, tuning, configs, policy);
    naive_ = std::make_unique<oracle::NaiveUvm>(sim_, tuning, configs, policy);
    for (int i = 0; i < 6; ++i) alloc();
  }

  void step() {
    const std::uint64_t op = rng_.next_below(100);
    if (op < 60) {
      device_access();
    } else if (op < 70) {
      prefetch();
    } else if (op < 80) {
      host_access();
    } else if (op < 85) {
      const ArrayId id = pick();
      space_->adopt_host_copy(id);
      naive_->adopt_host_copy(id);
    } else if (op < 92) {
      advise();
    } else {
      const std::size_t slot = rng_.next_below(live_.size());
      space_->free_array(live_[slot]);
      naive_->free_array(live_[slot]);
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(slot));
      alloc();
    }
    compare_state();
  }

  [[nodiscard]] Coverage coverage() const {
    Coverage c = coverage_;
    c.compactions = naive_->compactions();
    return c;
  }

 private:
  void alloc() {
    // 1-12 pages, the last often partial.
    const Bytes pages = 1 + rng_.next_below(12);
    const Bytes trim = rng_.next_below(2) == 0 ? 0 : rng_.next_below(1_MiB - 1) + 1;
    const Bytes bytes = pages * 1_MiB - trim;
    const std::string name = "a" + std::to_string(allocated_++);
    const ArrayId id = space_->alloc(bytes, name);
    ASSERT_EQ(naive_->alloc(bytes, name), id);
    live_.push_back(id);
    bytes_.resize(id + 1);
    bytes_[id] = bytes;
    if (rng_.next_below(2) == 0) {
      space_->host_access(id, AccessMode::Write);
      naive_->host_access(id, AccessMode::Write);
    }
  }

  ArrayId pick() { return live_[rng_.next_below(live_.size())]; }

  DeviceId pick_device() { return static_cast<DeviceId>(rng_.next_below(devices_)); }

  /// The whole array (empty range) or a random sub-range, possibly
  /// starting and ending mid-page.
  ByteRange pick_range(ArrayId id) {
    if (rng_.next_below(3) == 0) return ByteRange{};
    const Bytes size = bytes_[id];
    const Bytes a = rng_.next_below(size);
    const Bytes b = rng_.next_below(size) + 1;
    return a < b ? ByteRange{a, b} : ByteRange{b - 1, a + 1};
  }

  AccessPattern pick_pattern() {
    switch (rng_.next_below(4)) {
      case 0: return StreamingPattern{static_cast<std::uint32_t>(1 + rng_.next_below(3))};
      case 1: return HotReusePattern{};
      case 2: return RandomPattern{0.25 * static_cast<double>(1 + rng_.next_below(6)),
                                   rng_.next_u64()};
      default: return StridedPattern{static_cast<std::uint32_t>(1 + rng_.next_below(4))};
    }
  }

  void device_access() {
    std::vector<ParamAccess> params;
    const std::size_t n = 1 + rng_.next_below(3);
    for (std::size_t i = 0; i < n; ++i) {
      const ArrayId id = pick();
      params.push_back(ParamAccess{id, pick_range(id),
                                   static_cast<AccessMode>(rng_.next_below(3)),
                                   pick_pattern()});
    }
    const DeviceId device = pick_device();
    const auto par = static_cast<Parallelism>(rng_.next_below(3));
    const DeviceAccessResult got = space_->device_access(device, params, par);
    const DeviceAccessResult want = naive_->device_access(device, params, par);
    expect_same(got.report, want.report);
    EXPECT_EQ(got.h2d_done, want.h2d_done);
    EXPECT_EQ(got.d2h_done, want.d2h_done);

    ++coverage_.accesses;
    coverage_.faults += want.report.faults;
    coverage_.evictions += want.report.evictions;
    if (want.report.bytes_hit > 0) ++coverage_.hits;
    if (want.report.remote_access > 0) ++coverage_.remote;
  }

  void prefetch() {
    const ArrayId id = pick();
    const DeviceId device = rng_.next_below(4) == 0 ? kHostDevice : pick_device();
    const ByteRange range = pick_range(id);
    EXPECT_EQ(space_->prefetch(id, device, range), naive_->prefetch(id, device, range));
  }

  void host_access() {
    const ArrayId id = pick();
    const auto mode = static_cast<AccessMode>(rng_.next_below(3));
    const ByteRange range = pick_range(id);
    const HostAccessReport got = space_->host_access(id, mode, range);
    const HostAccessReport want = naive_->host_access(id, mode, range);
    EXPECT_EQ(got.bytes_migrated, want.bytes_migrated);
    EXPECT_EQ(got.duration, want.duration);
  }

  void advise() {
    const ArrayId id = pick();
    const auto advise = static_cast<Advise>(rng_.next_below(4));
    const DeviceId device = advise == Advise::PreferredLocation || advise == Advise::AccessedBy
                                ? pick_device()
                                : kHostDevice;
    space_->advise(id, advise, device);
    naive_->advise(id, advise, device);
  }

  void compare_state() {
    const std::uint64_t useful = naive_->stats().prefetch_useful;
    expect_same(space_->stats(), naive_->stats());
    if (useful > last_useful_) ++coverage_.prefetch_useful;
    last_useful_ = useful;
    for (std::size_t d = 0; d < devices_; ++d) {
      const auto device = static_cast<DeviceId>(d);
      EXPECT_EQ(space_->resident_bytes(device), naive_->resident_bytes(device));
      EXPECT_EQ(space_->sticky_bytes(device), naive_->sticky_bytes(device));
    }
    for (const ArrayId id : live_) {
      for (std::uint32_t p = 0; p < space_->page_count(id); ++p) {
        for (DeviceId d = kHostDevice; d < static_cast<DeviceId>(devices_); ++d) {
          ASSERT_EQ(space_->page_resident(id, p, d), naive_->page_resident(id, p, d))
              << "array " << id << " page " << p << " device " << d;
        }
      }
    }
  }

  Rng rng_;
  std::size_t devices_;
  sim::Simulator sim_;
  std::unique_ptr<UvmSpace> space_;
  std::unique_ptr<oracle::NaiveUvm> naive_;
  std::vector<ArrayId> live_;
  std::vector<Bytes> bytes_;
  std::size_t allocated_{0};
  std::uint64_t last_useful_{0};
  Coverage coverage_;
};

/// Runs `seeds` rigs of `steps` calls each and checks the streams reached
/// every path the comparison is meant to cover.
Coverage run_streams(EvictionPolicyKind policy, std::size_t devices, std::size_t capacity_pages,
                     std::uint64_t seeds, std::size_t steps) {
  Coverage total;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    UvmRig rig(seed * 7919 + static_cast<std::uint64_t>(policy), policy, devices,
               capacity_pages);
    for (std::size_t i = 0; i < steps && !::testing::Test::HasFatalFailure(); ++i) rig.step();
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "diverged at seed " << seed;
      break;
    }
    const Coverage c = rig.coverage();
    total.accesses += c.accesses;
    total.faults += c.faults;
    total.evictions += c.evictions;
    total.hits += c.hits;
    total.remote += c.remote;
    total.prefetch_useful += c.prefetch_useful;
    total.compactions += c.compactions;
  }
  EXPECT_GT(total.faults, 0u);
  EXPECT_GT(total.hits, 0u);
  EXPECT_GT(total.remote, 0u);
  EXPECT_GT(total.prefetch_useful, 0u);
  return total;
}

TEST(UvmDifferential, ClockLru) {
  const Coverage c = run_streams(EvictionPolicyKind::ClockLru, 2, 8, 40, 400);
  EXPECT_GT(c.evictions, 0u);
}

TEST(UvmDifferential, Fifo) {
  const Coverage c = run_streams(EvictionPolicyKind::Fifo, 3, 6, 40, 400);
  EXPECT_GT(c.evictions, 0u);
}

TEST(UvmDifferential, Random) {
  const Coverage c = run_streams(EvictionPolicyKind::Random, 2, 8, 40, 400);
  EXPECT_GT(c.evictions, 0u);
}

/// Devices large enough that evictions are rare: stale entries from pages
/// migrating between devices pile up until the ring compacts, and later
/// evictions walk the compacted ring.
TEST(UvmDifferential, RingCompaction) {
  for (const EvictionPolicyKind policy :
       {EvictionPolicyKind::ClockLru, EvictionPolicyKind::Fifo, EvictionPolicyKind::Random}) {
    const Coverage c = run_streams(policy, 2, 32, 6, 3000);
    EXPECT_GT(c.compactions, 0u) << to_string(policy);
    EXPECT_GT(c.evictions, 0u) << to_string(policy);
  }
}

/// Nine devices: residency bits above bit 7, read-duplicated pages among
/// them.
TEST(UvmDifferential, NineDevices) {
  const Coverage c = run_streams(EvictionPolicyKind::ClockLru, 9, 4, 20, 400);
  EXPECT_GT(c.evictions, 0u);
}

}  // namespace
}  // namespace grout::uvm
