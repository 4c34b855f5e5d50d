// Unit and property tests for the UVM page-migration simulator.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "uvm/uvm_space.hpp"

namespace grout::uvm {
namespace {

/// Small space: pages of 1 MiB, two devices of 8 MiB each.
struct UvmFixture : ::testing::Test {
  UvmFixture() { rebuild(); }

  void rebuild(EvictionPolicyKind eviction = EvictionPolicyKind::ClockLru,
               Bytes device_capacity = 8_MiB, std::size_t devices = 2,
               UvmTuning tuning_override = small_tuning()) {
    std::vector<DeviceConfig> configs;
    for (std::size_t i = 0; i < devices; ++i) {
      DeviceConfig dc;
      dc.name = "gpu" + std::to_string(i);
      dc.capacity = device_capacity;
      dc.pcie_bw = Bandwidth::gib_per_sec(16.0);
      dc.pcie_latency = SimTime::zero();
      configs.push_back(std::move(dc));
    }
    space = std::make_unique<UvmSpace>(sim, tuning_override, std::move(configs), eviction);
  }

  static UvmTuning small_tuning() {
    UvmTuning t;
    t.page_size = 1_MiB;
    t.fine_page_size = 64_KiB;
    return t;
  }

  AccessReport stream(DeviceId dev, ArrayId array, AccessMode mode = AccessMode::Read,
                      Parallelism par = Parallelism::High) {
    const ParamAccess access{array, ByteRange{}, mode, StreamingPattern{}};
    return space->device_access(dev, std::span(&access, 1), par).report;
  }

  /// Allocate and mark host-populated (as after host initialization).
  ArrayId alloc_populated(Bytes bytes, const std::string& name) {
    const ArrayId id = space->alloc(bytes, name);
    space->host_access(id, AccessMode::Write);
    return id;
  }

  sim::Simulator sim;
  std::unique_ptr<UvmSpace> space;
};

// ---------------------------------------------------------------------------
// Allocation basics
// ---------------------------------------------------------------------------

TEST_F(UvmFixture, AllocInitiallyHostResident) {
  const ArrayId id = space->alloc(3_MiB, "a");
  EXPECT_EQ(space->array_bytes(id), 3_MiB);
  EXPECT_EQ(space->page_count(id), 3u);
  for (std::uint32_t p = 0; p < 3; ++p) {
    EXPECT_TRUE(space->page_resident(id, p, kHostDevice));
    EXPECT_FALSE(space->page_resident(id, p, 0));
  }
}

TEST_F(UvmFixture, PartialPageRoundsUp) {
  const ArrayId id = space->alloc(1_MiB + 1, "a");
  EXPECT_EQ(space->page_count(id), 2u);
}

TEST_F(UvmFixture, ZeroAllocThrows) { EXPECT_THROW(space->alloc(0, "z"), InvalidArgument); }

TEST_F(UvmFixture, UseAfterFreeThrows) {
  const ArrayId id = space->alloc(1_MiB, "a");
  space->free_array(id);
  EXPECT_THROW((void)space->array_bytes(id), InvalidArgument);
  EXPECT_THROW(stream(0, id), InvalidArgument);
}

TEST_F(UvmFixture, FreeReleasesResidency) {
  const ArrayId id = alloc_populated(4_MiB, "a");
  stream(0, id);
  EXPECT_EQ(space->resident_bytes(0), 4_MiB);
  space->free_array(id);
  EXPECT_EQ(space->resident_bytes(0), 0u);
}

TEST_F(UvmFixture, LiveArrayCounter) {
  EXPECT_EQ(space->live_arrays(), 0u);
  const ArrayId a = space->alloc(1_MiB, "a");
  const ArrayId b = space->alloc(1_MiB, "b");
  EXPECT_EQ(space->live_arrays(), 2u);
  space->free_array(a);
  EXPECT_EQ(space->live_arrays(), 1u);
  space->free_array(b);
  EXPECT_EQ(space->live_arrays(), 0u);
}

TEST_F(UvmFixture, AllocationPressureTracksLiveBytes) {
  EXPECT_DOUBLE_EQ(space->allocation_pressure(), 0.0);
  const ArrayId a = space->alloc(16_MiB, "a");  // capacity = 2 x 8 MiB
  EXPECT_DOUBLE_EQ(space->allocation_pressure(), 1.0);
  space->free_array(a);
  EXPECT_DOUBLE_EQ(space->allocation_pressure(), 0.0);
}

// ---------------------------------------------------------------------------
// Migration mechanics
// ---------------------------------------------------------------------------

TEST_F(UvmFixture, FirstTouchMigratesWholeArray) {
  const ArrayId id = alloc_populated(4_MiB, "a");
  const AccessReport r = stream(0, id);
  EXPECT_EQ(r.healthy_fetch, 4_MiB);
  EXPECT_EQ(r.evict_fetch, 0u);
  EXPECT_EQ(r.faults, 4u);
  EXPECT_EQ(r.bytes_hit, 0u);
  // Migration moves pages: host loses them.
  EXPECT_FALSE(space->page_resident(id, 0, kHostDevice));
  EXPECT_TRUE(space->page_resident(id, 0, 0));
}

TEST_F(UvmFixture, SecondAccessIsAllHits) {
  const ArrayId id = alloc_populated(4_MiB, "a");
  stream(0, id);
  const AccessReport r = stream(0, id);
  EXPECT_EQ(r.faults, 0u);
  EXPECT_EQ(r.bytes_hit, 4_MiB);
  EXPECT_EQ(r.fault_time, SimTime::zero());
}

TEST_F(UvmFixture, UnpopulatedFirstWriteIsFreeOfCopy) {
  const ArrayId id = space->alloc(4_MiB, "out");  // never host-written
  const AccessReport r = stream(0, id, AccessMode::Write);
  EXPECT_EQ(r.healthy_fetch, 0u);
  EXPECT_EQ(r.populate_alloc, 4_MiB);
  EXPECT_EQ(r.fault_time, SimTime::zero());  // no PCIe copy needed
}

TEST_F(UvmFixture, FaultTimeMatchesPcieBandwidth) {
  const ArrayId id = alloc_populated(8_MiB, "a");
  const AccessReport r = stream(0, id);
  const double expect = static_cast<double>(8_MiB) / Bandwidth::gib_per_sec(16.0).bps();
  EXPECT_NEAR(r.fault_time.seconds(), expect, 1e-9);
}

TEST_F(UvmFixture, WriteMigratesExclusively) {
  const ArrayId id = alloc_populated(2_MiB, "a");
  stream(0, id, AccessMode::ReadWrite);
  EXPECT_TRUE(space->page_resident(id, 0, 0));
  EXPECT_FALSE(space->page_resident(id, 0, kHostDevice));
  // The other device taking it over by writing invalidates device 0.
  stream(1, id, AccessMode::ReadWrite);
  EXPECT_TRUE(space->page_resident(id, 0, 1));
  EXPECT_FALSE(space->page_resident(id, 0, 0));
  EXPECT_EQ(space->resident_bytes(0), 0u);
}

TEST_F(UvmFixture, HostAccessMigratesBack) {
  const ArrayId id = alloc_populated(4_MiB, "a");
  stream(0, id, AccessMode::ReadWrite);
  const HostAccessReport hr = space->host_access(id, AccessMode::Read);
  EXPECT_EQ(hr.bytes_migrated, 4_MiB);
  EXPECT_GT(hr.duration, SimTime::zero());
  EXPECT_TRUE(space->page_resident(id, 0, kHostDevice));
  EXPECT_FALSE(space->page_resident(id, 0, 0));
}

TEST_F(UvmFixture, HostReadOfHostResidentIsFree) {
  const ArrayId id = alloc_populated(4_MiB, "a");
  const HostAccessReport hr = space->host_access(id, AccessMode::Read);
  EXPECT_EQ(hr.bytes_migrated, 0u);
  EXPECT_EQ(hr.duration, SimTime::zero());
}

TEST_F(UvmFixture, HostWriteInvalidatesDeviceCopies) {
  const ArrayId id = alloc_populated(2_MiB, "a");
  stream(0, id);
  space->host_access(id, AccessMode::Write);
  EXPECT_FALSE(space->page_resident(id, 0, 0));
  EXPECT_TRUE(space->page_resident(id, 0, kHostDevice));
  EXPECT_EQ(space->resident_bytes(0), 0u);
}

TEST_F(UvmFixture, AdoptHostCopyDropsDeviceResidency) {
  const ArrayId id = space->alloc(4_MiB, "a");
  stream(0, id, AccessMode::Write);
  space->adopt_host_copy(id);
  EXPECT_EQ(space->resident_bytes(0), 0u);
  EXPECT_TRUE(space->page_resident(id, 0, kHostDevice));
  // Adopted content is populated: the next device touch fetches it.
  const AccessReport r = stream(0, id);
  EXPECT_EQ(r.healthy_fetch, 4_MiB);
}

TEST_F(UvmFixture, RangeAccessTouchesOnlyRange) {
  const ArrayId id = alloc_populated(8_MiB, "a");
  const ParamAccess access{id, ByteRange{2_MiB, 5_MiB}, AccessMode::Read, StreamingPattern{}};
  const AccessReport r = space->device_access(0, std::span(&access, 1), Parallelism::High).report;
  EXPECT_EQ(r.healthy_fetch, 3_MiB);
  EXPECT_FALSE(space->page_resident(id, 0, 0));
  EXPECT_TRUE(space->page_resident(id, 2, 0));
  EXPECT_TRUE(space->page_resident(id, 4, 0));
  EXPECT_FALSE(space->page_resident(id, 5, 0));
}

TEST_F(UvmFixture, RangePastEndThrows) {
  const ArrayId id = space->alloc(2_MiB, "a");
  const ParamAccess access{id, ByteRange{0, 3_MiB}, AccessMode::Read, StreamingPattern{}};
  EXPECT_THROW(space->device_access(0, std::span(&access, 1), Parallelism::High),
               InvalidArgument);
}

TEST_F(UvmFixture, MultiPassStreamingCountsRepeatedTouches) {
  const ArrayId id = alloc_populated(2_MiB, "a");
  const ParamAccess access{id, ByteRange{}, AccessMode::Read, StreamingPattern{3}};
  const AccessReport r = space->device_access(0, std::span(&access, 1), Parallelism::High).report;
  EXPECT_EQ(r.bytes_touched, 6_MiB);
  EXPECT_EQ(r.healthy_fetch, 2_MiB);  // faults only once
  EXPECT_EQ(r.bytes_hit, 4_MiB);
}

// ---------------------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------------------

TEST_F(UvmFixture, EvictionKeepsDeviceWithinCapacity) {
  const ArrayId big = alloc_populated(12_MiB, "big");  // > 8 MiB device
  const AccessReport r = stream(0, big);
  EXPECT_LE(space->resident_bytes(0), space->capacity(0));
  EXPECT_GT(r.evictions, 0u);
  EXPECT_GT(r.evict_fetch, 0u);
}

TEST_F(UvmFixture, SoleCopyEvictionWritesBack) {
  const ArrayId big = alloc_populated(12_MiB, "big");
  const AccessReport r = stream(0, big);
  // Evicted pages had their only copy on the device (migrated reads), so
  // they must be written back to host memory.
  EXPECT_EQ(r.writeback, static_cast<Bytes>(r.evictions) * 1_MiB);
  EXPECT_GT(r.writeback_time, SimTime::zero());
}

TEST_F(UvmFixture, UnpopulatedEvictionIsDropped) {
  const ArrayId out = space->alloc(12_MiB, "out");
  // Read-streaming an unpopulated array: pages get mapped but carry no
  // data, so evicting them writes nothing back.
  const AccessReport r = stream(0, out, AccessMode::Read);
  EXPECT_GT(r.evictions, 0u);
  EXPECT_EQ(r.writeback, 0u);
}

TEST_F(UvmFixture, EvictedPagesReturnToHost) {
  const ArrayId big = alloc_populated(12_MiB, "big");
  stream(0, big);
  std::size_t host_pages = 0;
  std::size_t dev_pages = 0;
  for (std::uint32_t p = 0; p < space->page_count(big); ++p) {
    host_pages += space->page_resident(big, p, kHostDevice) ? 1 : 0;
    dev_pages += space->page_resident(big, p, 0) ? 1 : 0;
  }
  EXPECT_EQ(dev_pages, 8u);
  EXPECT_EQ(host_pages, 4u);
}

TEST_F(UvmFixture, HotPagesSurviveClockLruEviction) {
  // A small hot array plus a large streaming array; the hot pages must
  // stay resident (second-chance protection).
  const ArrayId hot = alloc_populated(2_MiB, "hot");
  const ArrayId big = alloc_populated(12_MiB, "big");
  const ParamAccess accesses[] = {
      {hot, ByteRange{}, AccessMode::Read, HotReusePattern{}},
      {big, ByteRange{}, AccessMode::Read, StreamingPattern{}},
  };
  space->device_access(0, std::span(accesses, 2), Parallelism::High);
  EXPECT_TRUE(space->page_resident(hot, 0, 0));
  EXPECT_TRUE(space->page_resident(hot, 1, 0));
}

TEST_F(UvmFixture, FifoEvictsHotPagesToo) {
  rebuild(EvictionPolicyKind::Fifo);
  const ArrayId hot = alloc_populated(2_MiB, "hot");
  const ArrayId big = alloc_populated(12_MiB, "big");
  const ParamAccess accesses[] = {
      {hot, ByteRange{}, AccessMode::Read, HotReusePattern{}},
      {big, ByteRange{}, AccessMode::Read, StreamingPattern{}},
  };
  space->device_access(0, std::span(accesses, 2), Parallelism::High);
  // Strict insertion order: the hot array was inserted first, so it went
  // out first.
  EXPECT_FALSE(space->page_resident(hot, 0, 0));
}

TEST_F(UvmFixture, PreferredLocationResistsEviction) {
  const ArrayId pinned = alloc_populated(2_MiB, "pinned");
  space->advise(pinned, Advise::PreferredLocation, 0);
  stream(0, pinned);
  const ArrayId big = alloc_populated(12_MiB, "big");
  stream(0, big);
  EXPECT_TRUE(space->page_resident(pinned, 0, 0));
  EXPECT_TRUE(space->page_resident(pinned, 1, 0));
}

TEST_F(UvmFixture, DevicesEvictIndependently) {
  const ArrayId a = alloc_populated(6_MiB, "a");
  const ArrayId b = alloc_populated(6_MiB, "b");
  stream(0, a);
  stream(1, b);
  EXPECT_EQ(space->resident_bytes(0), 6_MiB);
  EXPECT_EQ(space->resident_bytes(1), 6_MiB);
}

// ---------------------------------------------------------------------------
// Advise
// ---------------------------------------------------------------------------

TEST_F(UvmFixture, ReadMostlyDuplicates) {
  const ArrayId id = alloc_populated(2_MiB, "a");
  space->advise(id, Advise::ReadMostly);
  stream(0, id);
  stream(1, id);
  EXPECT_TRUE(space->page_resident(id, 0, 0));
  EXPECT_TRUE(space->page_resident(id, 0, 1));
  EXPECT_TRUE(space->page_resident(id, 0, kHostDevice));
}

TEST_F(UvmFixture, ReadMostlyWriteCollapses) {
  const ArrayId id = alloc_populated(2_MiB, "a");
  space->advise(id, Advise::ReadMostly);
  stream(0, id);
  stream(1, id);
  stream(0, id, AccessMode::ReadWrite);
  EXPECT_TRUE(space->page_resident(id, 0, 0));
  EXPECT_FALSE(space->page_resident(id, 0, 1));
  EXPECT_FALSE(space->page_resident(id, 0, kHostDevice));
}

TEST_F(UvmFixture, AccessedByServesRemotely) {
  const ArrayId id = alloc_populated(4_MiB, "a");
  space->advise(id, Advise::AccessedBy, 0);
  const AccessReport r = stream(0, id);
  EXPECT_EQ(r.remote_access, 4_MiB);
  EXPECT_EQ(r.faults, 0u);
  EXPECT_FALSE(space->page_resident(id, 0, 0));  // no migration
  EXPECT_GT(r.fault_time, SimTime::zero());      // remote traffic still costs
}

TEST_F(UvmFixture, AccessedByOnlyAffectsAdvisedDevice) {
  const ArrayId id = alloc_populated(2_MiB, "a");
  space->advise(id, Advise::AccessedBy, 0);
  const AccessReport r = stream(1, id);
  EXPECT_EQ(r.remote_access, 0u);
  EXPECT_EQ(r.healthy_fetch, 2_MiB);
}

TEST_F(UvmFixture, AccessCountersPromoteHotRemotePages) {
  // Threshold is 3: the first two streams stay remote, the third promotes.
  const ArrayId id = alloc_populated(2_MiB, "a");
  space->advise(id, Advise::AccessedBy, 0);
  ASSERT_EQ(space->tuning().access_counter_threshold, 3u);
  stream(0, id);
  const AccessReport second = stream(0, id);
  EXPECT_EQ(second.remote_access, 2_MiB);
  EXPECT_FALSE(space->page_resident(id, 0, 0));
  const AccessReport third = stream(0, id);
  EXPECT_EQ(third.remote_access, 0u);
  EXPECT_EQ(third.healthy_fetch, 2_MiB);  // promoted: migrated in
  EXPECT_TRUE(space->page_resident(id, 0, 0));
  // Once resident, further accesses are plain hits.
  const AccessReport fourth = stream(0, id);
  EXPECT_EQ(fourth.bytes_hit, 2_MiB);
}

TEST_F(UvmFixture, AccessCounterPromotionDisabled) {
  UvmTuning t = small_tuning();
  t.access_counter_threshold = 0;
  rebuild(EvictionPolicyKind::ClockLru, 8_MiB, 2, t);
  const ArrayId id = alloc_populated(2_MiB, "a");
  space->advise(id, Advise::AccessedBy, 0);
  for (int i = 0; i < 8; ++i) {
    const AccessReport r = stream(0, id);
    EXPECT_EQ(r.remote_access, 2_MiB);
  }
  EXPECT_FALSE(space->page_resident(id, 0, 0));
}

TEST_F(UvmFixture, AccessCounterThresholdAtCounterWidth) {
  // The per-page counter is 8 bits: 255 still promotes, 256 would wrap
  // before reaching the threshold and is rejected up front.
  UvmTuning t = small_tuning();
  t.access_counter_threshold = 256;
  EXPECT_THROW(rebuild(EvictionPolicyKind::ClockLru, 8_MiB, 2, t), InvalidArgument);
  t.access_counter_threshold = 255;
  rebuild(EvictionPolicyKind::ClockLru, 8_MiB, 2, t);
  const ArrayId id = alloc_populated(1_MiB, "a");
  space->advise(id, Advise::AccessedBy, 0);
  for (int i = 0; i < 254; ++i) EXPECT_EQ(stream(0, id).remote_access, 1_MiB);
  EXPECT_EQ(stream(0, id).healthy_fetch, 1_MiB);
  EXPECT_TRUE(space->page_resident(id, 0, 0));
}

TEST_F(UvmFixture, EvictionKeepsHighDeviceDuplicates) {
  // Eight one-page devices: device 7's residency bit is bit 8. Device 0
  // evicting its read-duplicate must leave device 7's copy alone.
  rebuild(EvictionPolicyKind::ClockLru, 1_MiB, 8);
  const ArrayId a = alloc_populated(1_MiB, "a");
  const ArrayId b = alloc_populated(1_MiB, "b");
  space->advise(a, Advise::ReadMostly);
  stream(7, a);
  stream(0, a);
  ASSERT_TRUE(space->page_resident(a, 0, 7));
  ASSERT_TRUE(space->page_resident(a, 0, 0));
  EXPECT_EQ(stream(0, b).evictions, 1u);
  EXPECT_FALSE(space->page_resident(a, 0, 0));
  EXPECT_TRUE(space->page_resident(a, 0, 7));
  EXPECT_TRUE(space->page_resident(a, 0, kHostDevice));
  EXPECT_EQ(space->resident_bytes(7), 1_MiB);
  EXPECT_EQ(space->resident_bytes_of(a, 7), 1_MiB);
}

TEST_F(UvmFixture, AdviseValidatesDevice) {
  const ArrayId id = space->alloc(1_MiB, "a");
  EXPECT_THROW(space->advise(id, Advise::PreferredLocation, 9), InvalidArgument);
  EXPECT_NO_THROW(space->advise(id, Advise::ReadMostly));
}

// ---------------------------------------------------------------------------
// Prefetch
// ---------------------------------------------------------------------------

TEST_F(UvmFixture, PrefetchMovesWithoutFaults) {
  const ArrayId id = alloc_populated(4_MiB, "a");
  const SimTime done = space->prefetch(id, 0);
  EXPECT_GT(done, sim.now());
  EXPECT_TRUE(space->page_resident(id, 0, 0));
  const AccessReport r = stream(0, id);
  EXPECT_EQ(r.faults, 0u);
}

TEST_F(UvmFixture, PrefetchToHost) {
  const ArrayId id = alloc_populated(2_MiB, "a");
  stream(0, id);
  space->prefetch(id, kHostDevice);
  EXPECT_TRUE(space->page_resident(id, 0, kHostDevice));
}

TEST_F(UvmFixture, PrefetchEvictsWhenFull) {
  const ArrayId a = alloc_populated(8_MiB, "a");
  space->prefetch(a, 0);
  const ArrayId b = alloc_populated(4_MiB, "b");
  space->prefetch(b, 0);
  EXPECT_LE(space->resident_bytes(0), space->capacity(0));
  EXPECT_TRUE(space->page_resident(b, 0, 0));
}

TEST_F(UvmFixture, PrefetchLargerThanDeviceCyclesThroughEviction) {
  // Oversubscribing prefetch: later pages evict the array's own earlier
  // pages via the normal victim path; residency never exceeds capacity and
  // the call completes (a cudaMemPrefetchAsync-style op on an
  // oversubscribed device does exactly this).
  rebuild(EvictionPolicyKind::ClockLru, 2_MiB, 2);
  const ArrayId a = alloc_populated(4_MiB, "a");
  const SimTime done = space->prefetch(a, 0);
  EXPECT_GE(done, sim.now());
  EXPECT_LE(space->resident_bytes(0), space->capacity(0));
  EXPECT_GT(space->resident_bytes(0), 0u);
}

TEST_F(UvmFixture, RepeatedPrefetchOfFullDeviceNeverAborts) {
  // Regression for the former GROUT_CHECK(used_pages < capacity_pages)
  // abort in prefetch(): prefetch ops can be issued under heavy
  // oversubscription, where the device is persistently full and every new
  // page must displace a victim — including advice-pinned and hot pages
  // that the clock sweep second-chances. Hammering prefetches across
  // oversubscribing arrays must complete (evicting per the normal victim
  // path, truncating when nothing is evictable) and never exceed capacity.
  rebuild(EvictionPolicyKind::ClockLru, 2_MiB, 2);
  const ArrayId a = alloc_populated(4_MiB, "a");
  const ArrayId b = alloc_populated(4_MiB, "b");
  const ArrayId c = alloc_populated(4_MiB, "c");
  space->advise(a, Advise::PreferredLocation, 0);  // pinned victims
  space->advise(c, Advise::ReadMostly);            // duplicated residency
  for (int round = 0; round < 4; ++round) {
    stream(0, a);  // heat a's pages so the clock protects them
    for (const ArrayId id : {b, c, a}) {
      space->prefetch(id, 0);
      EXPECT_LE(space->resident_bytes(0), space->capacity(0));
    }
  }
  EXPECT_GT(space->stats().prefetch_issued, 0u);
  EXPECT_GT(space->stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Storm regime
// ---------------------------------------------------------------------------

TEST_F(UvmFixture, NoStormBelowThreshold) {
  const ArrayId a = alloc_populated(16_MiB, "a");  // pressure 1.0
  const AccessReport r = stream(0, a, AccessMode::Read, Parallelism::Massive);
  EXPECT_FALSE(r.storm);
}

TEST_F(UvmFixture, StormBeyondThresholdWithEviction) {
  // Working set 48 MiB over 16 MiB total capacity: rho = 3 > 2.6.
  const ArrayId a = alloc_populated(24_MiB, "a");
  const ArrayId b = alloc_populated(24_MiB, "b");
  stream(0, a, AccessMode::Read, Parallelism::Massive);
  stream(1, b, AccessMode::Read, Parallelism::Massive);
  const AccessReport r = stream(0, a, AccessMode::Read, Parallelism::Massive);
  EXPECT_TRUE(r.storm);
  EXPECT_GE(r.oversubscription, 2.6);
}

TEST_F(UvmFixture, StormNeedsEvictionPressure) {
  // Huge allocation but a tiny touched range: pressure stays low and no
  // eviction happens -> no storm.
  const ArrayId big = alloc_populated(64_MiB, "big");
  const ParamAccess access{big, ByteRange{0, 2_MiB}, AccessMode::Read, StreamingPattern{}};
  const AccessReport r =
      space->device_access(0, std::span(&access, 1), Parallelism::Massive).report;
  EXPECT_FALSE(r.storm);
}

TEST_F(UvmFixture, StormSlowerThanEvictionRegime) {
  // Same traffic volume; compare eviction-regime vs storm service time.
  const ArrayId mid = alloc_populated(12_MiB, "mid");
  const AccessReport evict_regime = stream(0, mid, AccessMode::Read, Parallelism::Massive);
  ASSERT_FALSE(evict_regime.storm);

  rebuild();
  const ArrayId a2 = alloc_populated(12_MiB, "a2");
  const ArrayId filler = alloc_populated(36_MiB, "filler");
  stream(0, filler, AccessMode::Read, Parallelism::Massive);  // build pressure
  const AccessReport storm = stream(0, a2, AccessMode::Read, Parallelism::Massive);
  ASSERT_TRUE(storm.storm);
  EXPECT_GT(storm.fault_time.seconds() / static_cast<double>(storm.healthy_fetch +
                                                             storm.evict_fetch),
            evict_regime.fault_time.seconds() /
                static_cast<double>(evict_regime.evict_fetch + evict_regime.healthy_fetch));
}

TEST_F(UvmFixture, ReplayFactorOrdersParallelismClasses) {
  const UvmTuning t;
  EXPECT_LT(t.replay_factor(Parallelism::Moderate), t.replay_factor(Parallelism::High));
  EXPECT_LT(t.replay_factor(Parallelism::High), t.replay_factor(Parallelism::Massive));
  EXPECT_GT(t.storm_bandwidth(Parallelism::Moderate).bps(),
            t.storm_bandwidth(Parallelism::Massive).bps());
}

TEST_F(UvmFixture, WorkingSetPressureCountsTouchedOnly) {
  const ArrayId big = alloc_populated(32_MiB, "big");
  const ParamAccess access{big, ByteRange{0, 4_MiB}, AccessMode::Read, StreamingPattern{}};
  space->device_access(0, std::span(&access, 1), Parallelism::High);
  EXPECT_DOUBLE_EQ(space->working_set_pressure(), 4.0 / 16.0);
  EXPECT_DOUBLE_EQ(space->allocation_pressure(), 2.0);
}

TEST_F(UvmFixture, StickyBytesDropOnFree) {
  const ArrayId a = alloc_populated(4_MiB, "a");
  stream(0, a);
  EXPECT_EQ(space->sticky_bytes(0), 4_MiB);
  space->free_array(a);
  EXPECT_EQ(space->sticky_bytes(0), 0u);
}

// ---------------------------------------------------------------------------
// Prefetcher knob
// ---------------------------------------------------------------------------

TEST_F(UvmFixture, DisabledPrefetcherAddsBatchLatency) {
  UvmTuning t = small_tuning();
  t.prefetcher_enabled = true;
  rebuild(EvictionPolicyKind::ClockLru, 8_MiB, 2, t);
  const ArrayId a1 = alloc_populated(4_MiB, "a");
  const SimTime with_prefetcher = stream(0, a1).fault_time;

  t.prefetcher_enabled = false;
  rebuild(EvictionPolicyKind::ClockLru, 8_MiB, 2, t);
  const ArrayId a2 = alloc_populated(4_MiB, "a");
  const SimTime without = stream(0, a2).fault_time;
  EXPECT_GT(without, with_prefetcher);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

TEST_F(UvmFixture, StatsAccumulate) {
  const ArrayId a = alloc_populated(12_MiB, "a");
  stream(0, a);
  const UvmStats& s = space->stats();
  EXPECT_EQ(s.kernels, 1u);
  EXPECT_EQ(s.bytes_fetched, 12_MiB);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.faults, 0u);
}

// ---------------------------------------------------------------------------
// Property tests across eviction policies
// ---------------------------------------------------------------------------

class EvictionPolicyProperty : public ::testing::TestWithParam<EvictionPolicyKind> {};

TEST_P(EvictionPolicyProperty, InvariantsUnderRandomWorkload) {
  sim::Simulator sim;
  UvmTuning tuning;
  tuning.page_size = 1_MiB;
  std::vector<DeviceConfig> configs(2);
  configs[0] = DeviceConfig{"g0", 8_MiB, Bandwidth::gib_per_sec(16.0), SimTime::zero()};
  configs[1] = DeviceConfig{"g1", 8_MiB, Bandwidth::gib_per_sec(16.0), SimTime::zero()};
  UvmSpace space(sim, tuning, std::move(configs), GetParam());

  Rng rng(2024 + static_cast<std::uint64_t>(GetParam()));
  std::vector<ArrayId> arrays;
  for (int i = 0; i < 6; ++i) {
    arrays.push_back(space.alloc((1 + rng.next_below(6)) * 1_MiB, "arr" + std::to_string(i)));
    if (rng.next_below(2) == 0) space.host_access(arrays.back(), AccessMode::Write);
  }

  for (int step = 0; step < 300; ++step) {
    const ArrayId id = arrays[rng.next_below(arrays.size())];
    const auto dev = static_cast<DeviceId>(rng.next_below(2));
    const AccessMode mode =
        std::array{AccessMode::Read, AccessMode::Write, AccessMode::ReadWrite}[rng.next_below(3)];
    AccessPattern pattern;
    switch (rng.next_below(3)) {
      case 0: pattern = StreamingPattern{static_cast<std::uint32_t>(1 + rng.next_below(2))}; break;
      case 1: pattern = HotReusePattern{}; break;
      default: pattern = RandomPattern{0.5, rng.next_u64()}; break;
    }
    const ParamAccess access{id, ByteRange{}, mode, pattern};
    space.device_access(dev, std::span(&access, 1), Parallelism::High);

    // Invariant 1: residency never exceeds capacity.
    ASSERT_LE(space.resident_bytes(0), space.capacity(0));
    ASSERT_LE(space.resident_bytes(1), space.capacity(1));
    // Invariant 2: every page has at least one up-to-date location.
    for (const ArrayId a : arrays) {
      for (std::uint32_t p = 0; p < space.page_count(a); ++p) {
        const bool anywhere = space.page_resident(a, p, kHostDevice) ||
                              space.page_resident(a, p, 0) || space.page_resident(a, p, 1);
        ASSERT_TRUE(anywhere) << "page lost all copies";
      }
    }
  }

  // Invariant 3: after migrating everything home, devices are empty.
  for (const ArrayId a : arrays) space.host_access(a, AccessMode::Read);
  EXPECT_EQ(space.resident_bytes(0), 0u);
  EXPECT_EQ(space.resident_bytes(1), 0u);
}

TEST_P(EvictionPolicyProperty, OversubscribedStreamNeverExceedsCapacity) {
  sim::Simulator sim;
  UvmTuning tuning;
  tuning.page_size = 1_MiB;
  std::vector<DeviceConfig> configs(1);
  configs[0] = DeviceConfig{"g0", 4_MiB, Bandwidth::gib_per_sec(16.0), SimTime::zero()};
  UvmSpace space(sim, tuning, std::move(configs), GetParam());
  const ArrayId a = space.alloc(32_MiB, "big");
  space.host_access(a, AccessMode::Write);
  const ParamAccess access{a, ByteRange{}, AccessMode::Read, StreamingPattern{2}};
  const AccessReport r = space.device_access(0, std::span(&access, 1), Parallelism::High).report;
  EXPECT_LE(space.resident_bytes(0), space.capacity(0));
  // Cyclic streaming through a 4 MiB device must re-fault on every pass.
  EXPECT_EQ(r.faults, 64u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EvictionPolicyProperty,
                         ::testing::Values(EvictionPolicyKind::ClockLru,
                                           EvictionPolicyKind::Fifo,
                                           EvictionPolicyKind::Random),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param)) == "clock-lru"
                                      ? "ClockLru"
                                      : (param_info.param == EvictionPolicyKind::Fifo ? "Fifo"
                                                                                : "Random");
                         });

}  // namespace
}  // namespace grout::uvm
