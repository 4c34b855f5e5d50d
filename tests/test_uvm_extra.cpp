// Deeper UVM model tests: regime boundaries, pattern coverage, accounting
// precision, and stress cases.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "sim/simulator.hpp"
#include "uvm/uvm_space.hpp"

namespace grout::uvm {
namespace {

struct UvmExtra : ::testing::Test {
  UvmExtra() { rebuild(); }

  void rebuild(UvmTuning t = tuning_1mib(), Bytes capacity = 8_MiB, std::size_t devices = 2) {
    std::vector<DeviceConfig> configs;
    for (std::size_t i = 0; i < devices; ++i) {
      configs.push_back(DeviceConfig{str_cat("g", std::to_string(i)), capacity,
                                     Bandwidth::gib_per_sec(16.0), SimTime::zero()});
    }
    space = std::make_unique<UvmSpace>(sim, t, std::move(configs));
  }

  static UvmTuning tuning_1mib() {
    UvmTuning t;
    t.page_size = 1_MiB;
    return t;
  }

  ArrayId alloc_populated(Bytes bytes, const std::string& name = "a") {
    const ArrayId id = space->alloc(bytes, name);
    space->host_access(id, AccessMode::Write);
    return id;
  }

  AccessReport access(DeviceId dev, ArrayId id, AccessPattern pattern,
                      AccessMode mode = AccessMode::Read,
                      Parallelism par = Parallelism::High, ByteRange range = {}) {
    const ParamAccess pa{id, range, mode, pattern};
    return space->device_access(dev, std::span(&pa, 1), par).report;
  }

  sim::Simulator sim;
  std::unique_ptr<UvmSpace> space;
};

// ---------------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------------

TEST_F(UvmExtra, RandomPatternIsSeedDeterministicPerEpoch) {
  const ArrayId a = alloc_populated(8_MiB, "a");
  const AccessReport r1 = access(0, a, RandomPattern{0.5, 99});
  // Roughly half the pages are touched (duplicates allowed).
  EXPECT_GT(r1.faults, 0u);
  EXPECT_LE(r1.faults, 4u);
}

TEST_F(UvmExtra, RandomPatternFullFractionTouchesAtMostAll) {
  const ArrayId a = alloc_populated(4_MiB);
  const AccessReport r = access(0, a, RandomPattern{1.0, 7});
  EXPECT_LE(r.healthy_fetch + r.evict_fetch, 4_MiB);
  EXPECT_EQ(r.bytes_touched, 4_MiB);  // 4 draws over 4 pages
}

TEST_F(UvmExtra, PartialLastPageAccountedExactly) {
  const ArrayId id = alloc_populated(1_MiB + 512_KiB, "odd");
  const AccessReport r = access(0, id, StreamingPattern{});
  EXPECT_EQ(r.healthy_fetch, 1_MiB + 512_KiB);
  EXPECT_EQ(r.faults, 2u);
}

// ---------------------------------------------------------------------------
// Regime boundaries
// ---------------------------------------------------------------------------

TEST_F(UvmExtra, StormServiceDegradesWithDepth) {
  // Per-byte service time must grow monotonically with oversubscription.
  double last_per_byte = 0.0;
  for (const Bytes footprint : {48_MiB, 64_MiB, 96_MiB}) {  // rho = 3, 4, 6
    rebuild();
    const ArrayId filler = alloc_populated(footprint - 8_MiB, "filler");
    access(0, filler, StreamingPattern{}, AccessMode::Read, Parallelism::High);
    const ArrayId probe = alloc_populated(8_MiB, "probe");
    const AccessReport r =
        access(0, probe, StreamingPattern{}, AccessMode::Read, Parallelism::High);
    ASSERT_TRUE(r.storm) << footprint;
    const double per_byte =
        r.fault_time.seconds() / static_cast<double>(r.healthy_fetch + r.evict_fetch);
    EXPECT_GT(per_byte, last_per_byte);
    last_per_byte = per_byte;
  }
}

TEST_F(UvmExtra, ExactCapacityDoesNotEvict) {
  const ArrayId id = alloc_populated(8_MiB);
  const AccessReport r = access(0, id, StreamingPattern{});
  EXPECT_EQ(r.evictions, 0u);
  EXPECT_EQ(space->resident_bytes(0), space->capacity(0));
}

TEST_F(UvmExtra, OnePageOverCapacityEvictsExactlyOnce) {
  const ArrayId id = alloc_populated(9_MiB);
  const AccessReport r = access(0, id, StreamingPattern{});
  EXPECT_EQ(r.evictions, 1u);
  EXPECT_EQ(r.evict_fetch, 1_MiB);
  EXPECT_EQ(r.healthy_fetch, 8_MiB);
}

TEST_F(UvmExtra, FreeingArraysLowersPressureBelowStorm) {
  UvmTuning t = tuning_1mib();
  rebuild(t);
  const ArrayId big = alloc_populated(48_MiB, "big");  // rho 3 over 16 MiB
  access(0, big, StreamingPattern{}, AccessMode::Read, Parallelism::High);
  const AccessReport stormed =
      access(0, big, StreamingPattern{}, AccessMode::Read, Parallelism::High);
  EXPECT_TRUE(stormed.storm);
  space->free_array(big);
  const ArrayId small = alloc_populated(12_MiB, "small");
  const AccessReport after =
      access(0, small, StreamingPattern{}, AccessMode::Read, Parallelism::High);
  EXPECT_FALSE(after.storm);  // pressure dropped with the freed footprint
}

// ---------------------------------------------------------------------------
// Multi-device interactions
// ---------------------------------------------------------------------------

TEST_F(UvmExtra, ReadMostlyCopiesEvictIndependently) {
  const ArrayId shared = alloc_populated(4_MiB, "shared");
  space->advise(shared, Advise::ReadMostly);
  access(0, shared, HotReusePattern{});
  access(1, shared, HotReusePattern{});
  // Fill device 0 with other data; the duplicate on device 1 must survive.
  const ArrayId big = alloc_populated(12_MiB, "big");
  access(0, big, StreamingPattern{});
  EXPECT_TRUE(space->page_resident(shared, 0, 1));
}

TEST_F(UvmExtra, DuplicatedPageEvictionNeedsNoWriteback) {
  const ArrayId shared = alloc_populated(8_MiB, "shared");
  space->advise(shared, Advise::ReadMostly);
  access(0, shared, StreamingPattern{});  // duplicate: host + device0
  const ArrayId filler = space->alloc(8_MiB, "filler");  // unpopulated
  const AccessReport r = access(0, filler, StreamingPattern{}, AccessMode::Read);
  // Evicting the duplicated read-mostly pages drops them for free.
  EXPECT_GT(r.evictions, 0u);
  EXPECT_EQ(r.writeback, 0u);
}

TEST_F(UvmExtra, CrossDeviceMigrationKeepsCounts) {
  const ArrayId id = alloc_populated(4_MiB);
  access(0, id, StreamingPattern{});
  EXPECT_EQ(space->resident_bytes(0), 4_MiB);
  access(1, id, StreamingPattern{});
  EXPECT_EQ(space->resident_bytes(0), 0u);
  EXPECT_EQ(space->resident_bytes(1), 4_MiB);
  access(0, id, StreamingPattern{});
  EXPECT_EQ(space->resident_bytes(0), 4_MiB);
  EXPECT_EQ(space->resident_bytes(1), 0u);
}

TEST_F(UvmExtra, HostRangeAccessMigratesOnlyRange) {
  const ArrayId id = alloc_populated(8_MiB);
  access(0, id, StreamingPattern{});
  const HostAccessReport hr = space->host_access(id, AccessMode::Read, ByteRange{0, 2_MiB});
  EXPECT_EQ(hr.bytes_migrated, 2_MiB);
  EXPECT_TRUE(space->page_resident(id, 0, kHostDevice));
  EXPECT_TRUE(space->page_resident(id, 7, 0));  // tail stays on device
}

TEST_F(UvmExtra, PrefetchRangeMovesOnlyRange) {
  const ArrayId id = alloc_populated(8_MiB);
  space->prefetch(id, 0, ByteRange{4_MiB, 8_MiB});
  EXPECT_FALSE(space->page_resident(id, 0, 0));
  EXPECT_TRUE(space->page_resident(id, 5, 0));
  EXPECT_EQ(space->resident_bytes(0), 4_MiB);
}

// ---------------------------------------------------------------------------
// Link-queue behaviour
// ---------------------------------------------------------------------------

TEST_F(UvmExtra, ConcurrentAccessesSerializeOnTheLink) {
  const ArrayId a = alloc_populated(4_MiB, "a");
  const ArrayId b = alloc_populated(4_MiB, "b");
  const ParamAccess pa{a, {}, AccessMode::Read, StreamingPattern{}};
  const ParamAccess pb{b, {}, AccessMode::Read, StreamingPattern{}};
  const DeviceAccessResult r1 = space->device_access(0, std::span(&pa, 1), Parallelism::High);
  const DeviceAccessResult r2 = space->device_access(0, std::span(&pb, 1), Parallelism::High);
  // Same h2d link: the second fetch completes after the first.
  EXPECT_GT(r2.h2d_done, r1.h2d_done);
}

TEST_F(UvmExtra, DifferentDevicesUseSeparateLinks) {
  const ArrayId a = alloc_populated(4_MiB, "a");
  const ArrayId b = alloc_populated(4_MiB, "b");
  const ParamAccess pa{a, {}, AccessMode::Read, StreamingPattern{}};
  const ParamAccess pb{b, {}, AccessMode::Read, StreamingPattern{}};
  const DeviceAccessResult r1 = space->device_access(0, std::span(&pa, 1), Parallelism::High);
  const DeviceAccessResult r2 = space->device_access(1, std::span(&pb, 1), Parallelism::High);
  EXPECT_EQ(r1.h2d_done, r2.h2d_done);  // fully parallel fetches
}

// ---------------------------------------------------------------------------
// Stress
// ---------------------------------------------------------------------------

TEST_F(UvmExtra, RingCompactionSurvivesChurn) {
  // Alternate two over-capacity arrays for many rounds; the eviction ring
  // accumulates stale entries and must compact without losing pages.
  const ArrayId a = alloc_populated(6_MiB, "a");
  const ArrayId b = alloc_populated(6_MiB, "b");
  for (int round = 0; round < 200; ++round) {
    access(0, round % 2 == 0 ? a : b, StreamingPattern{});
    ASSERT_LE(space->resident_bytes(0), space->capacity(0));
  }
  EXPECT_GT(space->stats().evictions, 0u);
}

TEST_F(UvmExtra, ManySmallArrays) {
  std::vector<ArrayId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(alloc_populated(1_MiB, str_cat("s", std::to_string(i))));
  }
  for (const ArrayId id : ids) access(0, id, StreamingPattern{});
  EXPECT_EQ(space->resident_bytes(0), space->capacity(0));
  for (const ArrayId id : ids) space->free_array(id);
  EXPECT_EQ(space->resident_bytes(0), 0u);
  EXPECT_EQ(space->live_arrays(), 0u);
}

TEST_F(UvmExtra, MixedParamsSingleKernel) {
  // One kernel touching three arrays with different modes and patterns.
  const ArrayId in = alloc_populated(3_MiB, "in");
  const ArrayId hot = alloc_populated(1_MiB, "hot");
  const ArrayId out = space->alloc(3_MiB, "out");
  const ParamAccess params[] = {
      {in, {}, AccessMode::Read, StreamingPattern{}},
      {hot, {}, AccessMode::Read, HotReusePattern{}},
      {out, {}, AccessMode::Write, StreamingPattern{}},
  };
  const AccessReport r =
      space->device_access(0, std::span(params, 3), Parallelism::High).report;
  EXPECT_EQ(r.healthy_fetch, 4_MiB);    // in + hot carry data
  EXPECT_EQ(r.populate_alloc, 3_MiB);   // out is write-populated
  EXPECT_EQ(r.bytes_touched, 7_MiB);
}

}  // namespace
}  // namespace grout::uvm
