#include "uvm/uvm_space.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

namespace grout::uvm {

namespace {

constexpr std::size_t kEvictionScanLimit = 64;

}  // namespace

UvmSpace::UvmSpace(sim::Simulator& simulator, UvmTuning tuning,
                   std::vector<DeviceConfig> devices, EvictionPolicyKind eviction,
                   std::uint64_t seed)
    : sim_{simulator}, tuning_{tuning}, eviction_{eviction}, rng_{seed} {
  GROUT_REQUIRE(!devices.empty(), "UvmSpace requires at least one device");
  GROUT_REQUIRE(devices.size() <= kMaxDevices,
                "at most 15 devices per node (residency mask width)");
  GROUT_REQUIRE(tuning_.page_size > 0, "page size must be positive");
  devices_.reserve(devices.size());
  for (auto& cfg : devices) {
    DeviceState dev;
    dev.bit = device_bit(static_cast<DeviceId>(devices_.size()));
    dev.capacity_pages = static_cast<std::size_t>(cfg.capacity / tuning_.page_size);
    GROUT_REQUIRE(dev.capacity_pages > 0, "device capacity smaller than one page");
    dev.ring_limit = std::max<std::size_t>(4 * dev.capacity_pages, 1024);
    dev.h2d = std::make_unique<sim::Resource>(sim_, cfg.name + "/h2d", cfg.pcie_bw,
                                              cfg.pcie_latency);
    dev.d2h = std::make_unique<sim::Resource>(sim_, cfg.name + "/d2h", cfg.pcie_bw,
                                              cfg.pcie_latency);
    dev.config = std::move(cfg);
    total_capacity_bytes_ += static_cast<Bytes>(dev.capacity_pages) * tuning_.page_size;
    devices_.push_back(std::move(dev));
  }
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

ArrayId UvmSpace::alloc(Bytes bytes, std::string name) {
  GROUT_REQUIRE(bytes > 0, "zero-byte managed allocation");
  ArrayInfo info;
  info.name = std::move(name);
  info.bytes = bytes;
  const auto pages = static_cast<std::uint32_t>((bytes + tuning_.page_size - 1) / tuning_.page_size);
  info.pages.assign(pages, PageState{});
  info.live = true;
  arrays_.push_back(std::move(info));
  ++live_arrays_;
  live_bytes_ += bytes;
  return static_cast<ArrayId>(arrays_.size() - 1);
}

void UvmSpace::free_array(ArrayId id) {
  ArrayInfo& arr = array_ref(id);
  GROUT_REQUIRE(arr.live, "double free of managed array");
  for (const PageState& st : arr.pages) {
    release_device_copies(st, 0);
    for (unsigned ever = st.ever_mask; ever != 0; ever &= ever - 1) {
      --devices_[device_index(ever)].sticky_pages;
    }
  }
  arr.live = false;
  arr.pages.clear();
  arr.pages.shrink_to_fit();
  --live_arrays_;
  live_bytes_ -= arr.bytes;
}

Bytes UvmSpace::array_bytes(ArrayId id) const { return array_ref(id).bytes; }
const std::string& UvmSpace::array_name(ArrayId id) const { return array_ref(id).name; }

void UvmSpace::advise(ArrayId id, Advise advise) { array_ref(id).advise = advise; }

// ---------------------------------------------------------------------------
// Device access (the fault engine)
// ---------------------------------------------------------------------------

DeviceAccessResult UvmSpace::device_access(DeviceId device, std::span<const ParamAccess> params,
                                           Parallelism parallelism) {
  DeviceState& dev = device_ref(device);
  dev.current_epoch = ++epoch_counter_;

  TouchCounters c;
  for (const ParamAccess& pa : params) {
    ArrayInfo& arr = array_ref(pa.array);
    const ByteRange range = normalize_range(arr, pa.range);
    if (range.empty()) continue;
    const PageRun run{dev, arr, pa.array, pa.mode};
    for_each_run(arr, range, pa.pattern, [&](std::uint32_t first, std::uint32_t last, bool hot) {
      replay_run(run, first, last, hot, c);
    });
  }

  AccessReport r;
  r.bytes_touched = c.touched;
  r.bytes_hit = c.hit;
  r.healthy_fetch = c.healthy_fetch;
  r.evict_fetch = c.evict_fetch;
  r.populate_alloc = c.populate_alloc;
  r.writeback = c.writeback;
  r.faults = c.faults;
  r.evictions = c.evictions;
  const auto capacity_bytes = static_cast<double>(dev.capacity_pages) *
                              static_cast<double>(tuning_.page_size);
  r.eviction_intensity =
      capacity_bytes > 0 ? static_cast<double>(c.evictions) *
                               static_cast<double>(tuning_.page_size) / capacity_bytes
                         : 0.0;
  r.oversubscription = working_set_pressure();
  // Fault coalescing collapses once the touched working set oversubscribes
  // the node past the threshold AND eviction is actually on the critical
  // path (Section V-C: the cliff appears between 2x and 3x).
  r.storm = r.oversubscription >= tuning_.storm_oversubscription_threshold &&
            c.evictions > 0;

  // Service-time model.
  const Bandwidth pcie = dev.config.pcie_bw;
  SimTime fault_time = SimTime::zero();
  if (r.storm) {
    // Coalescing has collapsed: every faulted byte — including pure
    // device-side allocations — is serviced at the fine-granularity replay
    // rate, which further degrades as oversubscription deepens.
    const double extra = r.oversubscription - tuning_.storm_oversubscription_threshold;
    const double slowdown = 1.0 + tuning_.storm_compound * extra * extra;
    const Bandwidth storm_bw =
        Bandwidth::bytes_per_sec(tuning_.storm_bandwidth(parallelism).bps() / slowdown);
    fault_time +=
        storm_bw.transfer_time(r.healthy_fetch + r.evict_fetch + r.populate_alloc);
  } else {
    if (r.healthy_fetch > 0) {
      // The sequential prefetcher coalesces healthy faults at full PCIe;
      // with it off they are served at the degraded rate plus per-batch
      // fault latency.
      if (tuning_.prefetcher_enabled) {
        fault_time += pcie.transfer_time(r.healthy_fetch);
      } else {
        const Bandwidth degraded =
            Bandwidth::bytes_per_sec(pcie.bps() * tuning_.no_prefetch_bw_factor);
        fault_time += degraded.transfer_time(r.healthy_fetch);
        const std::uint64_t pages = r.healthy_fetch / tuning_.page_size;
        const std::uint64_t batches =
            (pages + tuning_.healthy_batch_pages - 1) / tuning_.healthy_batch_pages;
        fault_time += tuning_.fault_batch_latency * static_cast<std::int64_t>(batches);
      }
    }
    if (r.evict_fetch > 0) {
      const Bandwidth degraded =
          Bandwidth::bytes_per_sec(pcie.bps() * tuning_.eviction_efficiency);
      fault_time += degraded.transfer_time(r.evict_fetch);
      fault_time += tuning_.eviction_overhead_per_page *
                    static_cast<std::int64_t>(r.evictions);
    }
  }
  r.fault_time = fault_time;
  r.writeback_time = r.writeback > 0 ? pcie.transfer_time(r.writeback) : SimTime::zero();

  DeviceAccessResult result;
  result.h2d_done = fault_time > SimTime::zero()
                        ? dev.h2d->submit_duration(fault_time, r.healthy_fetch + r.evict_fetch)
                        : sim_.now();
  result.d2h_done = r.writeback_time > SimTime::zero()
                        ? dev.d2h->submit_duration(r.writeback_time, r.writeback)
                        : sim_.now();

  // Global statistics.
  stats_.bytes_fetched += r.healthy_fetch + r.evict_fetch;
  stats_.bytes_written_back += r.writeback;
  stats_.faults += r.faults;
  stats_.evictions += r.evictions;
  ++stats_.kernels;
  if (r.storm) ++stats_.storm_kernels;
  stats_.peak_oversubscription = std::max(stats_.peak_oversubscription, r.oversubscription);

  result.report = r;
  return result;
}

void UvmSpace::replay_run(const PageRun& run, std::uint32_t first, std::uint32_t last,
                          bool hot, TouchCounters& c) {
  // A plain hit -- resident here, no pending prefetch and, for a write,
  // already this device's populated sole copy -- changes nothing but the
  // page's heat, so it is resolved here. Every other touch goes to
  // touch_page, in run order, exactly as if all pages went through it.
  const bool write = writes(run.mode);
  const std::uint16_t bit = run.dev.bit;
  const std::uint16_t must_match = write ? std::uint16_t{0xffff} : bit;
  const std::uint32_t hot_epoch = hot ? run.dev.current_epoch : 0;
  const std::uint32_t tail_page = static_cast<std::uint32_t>(run.arr.pages.size() - 1);
  PageState* const pages = run.arr.pages.data();
  std::uint64_t hit_pages = 0;
  Bytes tail_short = 0;  // the tail page's shortfall from a full page, if hit
  std::uint32_t page = first;
  while (page < last) {
    const std::uint32_t run_start = page;
    for (; page < last; ++page) {
      PageState& st = pages[page];
      if ((st.mask & must_match) != bit || st.prefetched || (write && !st.populated)) break;
      st.hot_epoch = hot_epoch;
    }
    if (page != run_start) {
      hit_pages += page - run_start;
      // The tail page, possibly partial, is the last page of any run it is in.
      if (page - 1 == tail_page) {
        tail_short = tuning_.page_size - page_bytes(run.arr, tail_page);
      }
    }
    if (page < last) {
      touch_page(run, page, hot, c);
      ++page;
    }
  }
  const Bytes hit_bytes = hit_pages * tuning_.page_size - tail_short;
  c.touched += hit_bytes;
  c.hit += hit_bytes;
}

void UvmSpace::touch_page(const PageRun& run, std::uint32_t page, bool hot, TouchCounters& c) {
  DeviceState& dev = run.dev;
  PageState& st = run.arr.pages[page];
  const Bytes pb = page_bytes(run.arr, page);
  const std::uint16_t bit = dev.bit;

  c.touched += pb;
  if (st.mask & bit) {
    c.hit += pb;
    if (st.prefetched) {
      st.prefetched = false;
      stats_.prefetch_useful += pb;
    }
  } else {
    ++c.faults;
    // Make room first: faulting into a full device evicts on the critical
    // path (the classification below depends on whether that happened).
    const std::uint64_t evictions_before = c.evictions;
    make_room(dev, c);
    const bool evicted_now = c.evictions != evictions_before;
    const bool needs_copy = st.populated;

    if (!writes(run.mode) && run.arr.advise == Advise::ReadMostly) {
      st.mask |= bit;  // read-duplicate
    } else {
      // A write takes exclusive ownership and a plain read migrates the
      // page: either way every other holder loses it.
      release_device_copies(st, bit);
      st.mask = bit;
    }
    ++dev.used_pages;
    if (!(st.ever_mask & bit)) {
      st.ever_mask |= bit;
      ++dev.sticky_pages;
    }
    dev.ring.push_back(RingEntry{run.id, page});
    if (dev.ring.size() > dev.ring_limit) compact_ring(dev);

    st.prefetched = false;  // migrated on a fault: any prior prefetch was wasted
    if (!needs_copy) {
      c.populate_alloc += pb;  // first touch: map device-side, no H2D copy
    } else if (evicted_now) {
      c.evict_fetch += pb;
    } else {
      c.healthy_fetch += pb;
    }
  }

  if (writes(run.mode)) {
    st.populated = true;
    if ((st.mask & ~bit) != 0) {
      // A hit that writes also invalidates the other copies.
      release_device_copies(st, bit);
      st.mask = bit;
    }
  }

  st.hot_epoch = hot ? dev.current_epoch : 0;
}

void UvmSpace::make_room(DeviceState& dev, TouchCounters& c) {
  while (dev.used_pages >= dev.capacity_pages) {
    if (!evict_one(dev, c)) break;
  }
  GROUT_CHECK(dev.used_pages < dev.capacity_pages, "device full and nothing evictable");
}

bool UvmSpace::evict_one(DeviceState& dev, TouchCounters& c) {
  const std::uint16_t bit = dev.bit;
  std::size_t second_chances = 0;

  if (eviction_ == EvictionPolicyKind::Random) {
    // Try random picks first; fall back to a head scan on bad luck.
    for (int attempt = 0; attempt < 16 && !dev.ring.empty(); ++attempt) {
      const std::size_t idx = static_cast<std::size_t>(rng_.next_below(dev.ring.size()));
      const RingEntry entry = dev.ring[idx];
      dev.ring[idx] = dev.ring.back();
      dev.ring.pop_back();
      ArrayInfo& arr = arrays_[entry.array];
      if (!arr.live || entry.page >= arr.pages.size()) continue;
      if (!(arr.pages[entry.page].mask & bit)) continue;
      drop_residency(arr, entry.page, dev, c);
      ++c.evictions;
      return true;
    }
  }

  std::size_t iterations = dev.ring.size() + kEvictionScanLimit;
  while (iterations-- > 0 && !dev.ring.empty()) {
    const RingEntry entry = dev.ring.front();
    dev.ring.pop_front();
    ArrayInfo& arr = arrays_[entry.array];
    if (!arr.live || entry.page >= arr.pages.size()) continue;
    PageState& st = arr.pages[entry.page];
    if (!(st.mask & bit)) continue;  // stale entry

    if (eviction_ == EvictionPolicyKind::ClockLru && second_chances < kEvictionScanLimit &&
        st.hot_epoch != 0 && st.hot_epoch == dev.current_epoch) {
      // A page the running kernel keeps re-touching gets a second chance.
      dev.ring.push_back(entry);
      ++second_chances;
      continue;
    }

    drop_residency(arr, entry.page, dev, c);
    ++c.evictions;
    return true;
  }
  return false;
}

void UvmSpace::drop_residency(ArrayInfo& arr, std::uint32_t page, DeviceState& dev,
                              TouchCounters& c) {
  PageState& st = arr.pages[page];
  GROUT_CHECK((st.mask & dev.bit) != 0, "dropping a page that is not resident here");
  st.mask &= static_cast<std::uint16_t>(~dev.bit);
  st.prefetched = false;  // evicted before a touch: the prefetch was wasted
  --dev.used_pages;
  if (st.mask == 0) {
    // Only copy: eviction migrates it back to host memory (unless the page
    // never held real data, in which case it is simply dropped).
    st.mask = host_bit();
    if (st.populated) c.writeback += page_bytes(arr, page);
  }
}

void UvmSpace::release_device_copies(const PageState& st, std::uint16_t keep) {
  for (unsigned held = st.mask & ~(keep | host_bit()); held != 0; held &= held - 1) {
    --devices_[device_index(held)].used_pages;
  }
}

void UvmSpace::compact_ring(DeviceState& dev) {
  // Keep the first entry of every page still resident here, in order. The
  // kept entries' pages are marked while scanning and unmarked after.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < dev.ring.size(); ++i) {
    const RingEntry entry = dev.ring[i];
    ArrayInfo& arr = arrays_[entry.array];
    if (!arr.live || entry.page >= arr.pages.size()) continue;
    PageState& st = arr.pages[entry.page];
    if (!(st.mask & dev.bit) || st.ring_mark) continue;
    st.ring_mark = true;
    dev.ring[kept++] = entry;
  }
  dev.ring.truncate(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    arrays_[dev.ring[i].array].pages[dev.ring[i].page].ring_mark = false;
  }
}

void UvmSpace::Ring::grow() {
  const std::size_t slots = std::max<std::size_t>(2 * (mask_ + 1), 16);
  auto fresh = std::make_unique_for_overwrite<RingEntry[]>(slots);
  for (std::size_t i = 0; i < size_; ++i) fresh[i] = (*this)[i];
  slots_ = std::move(fresh);
  mask_ = slots - 1;
  head_ = 0;
}

// ---------------------------------------------------------------------------
// Host access / prefetch / adoption
// ---------------------------------------------------------------------------

HostAccessReport UvmSpace::host_access(ArrayId id, AccessMode mode, ByteRange range) {
  ArrayInfo& arr = array_ref(id);
  range = normalize_range(arr, range);
  const std::uint32_t first = static_cast<std::uint32_t>(range.begin / tuning_.page_size);
  const std::uint32_t last =
      static_cast<std::uint32_t>((range.end + tuning_.page_size - 1) / tuning_.page_size);

  std::array<Bytes, kMaxDevices> d2h_traffic{};
  Bytes migrated = 0;
  for (std::uint32_t p = first; p < last && p < arr.pages.size(); ++p) {
    PageState& st = arr.pages[p];
    if (st.mask == host_bit()) {
      // Host-only already: nothing moves.
      if (writes(mode)) st.populated = true;
      continue;
    }
    if (!(st.mask & host_bit())) {
      // Page lives on some device; CPU touch migrates it home from the
      // lowest-numbered holder (one source is enough).
      const std::size_t d = device_index(st.mask);
      if (st.populated) d2h_traffic[d] += page_bytes(arr, p);
      st.mask &= static_cast<std::uint16_t>(~devices_[d].bit);
      --devices_[d].used_pages;
      migrated += page_bytes(arr, p);
      st.mask |= host_bit();
    }
    if (writes(mode)) {
      st.populated = true;
      // Host write supersedes any remaining device copies.
      release_device_copies(st, 0);
      st.mask = host_bit();
    }
  }

  SimTime done = sim_.now();
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (d2h_traffic[d] > 0) {
      const SimTime t = devices_[d].d2h->submit(d2h_traffic[d]);
      done = std::max(done, t);
    }
  }

  HostAccessReport r;
  r.bytes_migrated = migrated;
  r.duration = done - sim_.now();
  return r;
}

SimTime UvmSpace::prefetch(ArrayId id, DeviceId device, ByteRange range) {
  ArrayInfo& arr = array_ref(id);
  range = normalize_range(arr, range);
  const std::uint32_t first = static_cast<std::uint32_t>(range.begin / tuning_.page_size);
  const std::uint32_t last =
      static_cast<std::uint32_t>((range.end + tuning_.page_size - 1) / tuning_.page_size);

  if (device == kHostDevice) {
    const HostAccessReport r = host_access(id, AccessMode::Read, range);
    return sim_.now() + r.duration;
  }

  DeviceState& dev = device_ref(device);
  TouchCounters c;
  Bytes fetch = 0;
  for (std::uint32_t p = first; p < last && p < arr.pages.size(); ++p) {
    PageState& st = arr.pages[p];
    const std::uint16_t bit = dev.bit;
    if (st.mask & bit) continue;
    make_room(dev, c);
    if (arr.advise == Advise::ReadMostly) {
      st.mask |= bit;
    } else {
      release_device_copies(st, bit);
      st.mask = bit;
    }
    ++dev.used_pages;
    if (!(st.ever_mask & bit)) {
      st.ever_mask |= bit;
      ++dev.sticky_pages;
    }
    dev.ring.push_back(RingEntry{id, p});
    st.prefetched = true;
    if (st.populated) fetch += page_bytes(arr, p);
  }

  stats_.bytes_fetched += fetch;
  stats_.prefetch_issued += fetch;
  stats_.bytes_written_back += c.writeback;
  stats_.evictions += c.evictions;

  SimTime done = sim_.now();
  if (fetch > 0) done = dev.h2d->submit(fetch);
  if (c.writeback > 0) done = std::max(done, dev.d2h->submit(c.writeback));
  return done;
}

void UvmSpace::adopt_host_copy(ArrayId id) {
  ArrayInfo& arr = array_ref(id);
  for (PageState& st : arr.pages) {
    if (st.mask != host_bit()) {
      release_device_copies(st, 0);
      st.mask = host_bit();
    }
    st.populated = true;
  }
}

// ---------------------------------------------------------------------------
// Inspection & helpers
// ---------------------------------------------------------------------------

Bytes UvmSpace::capacity(DeviceId device) const {
  return static_cast<Bytes>(device_ref(device).capacity_pages) * tuning_.page_size;
}

Bytes UvmSpace::resident_bytes(DeviceId device) const {
  return static_cast<Bytes>(device_ref(device).used_pages) * tuning_.page_size;
}

Bytes UvmSpace::sticky_bytes(DeviceId device) const {
  return static_cast<Bytes>(device_ref(device).sticky_pages) * tuning_.page_size;
}

double UvmSpace::oversubscription(DeviceId device) const {
  const DeviceState& dev = device_ref(device);
  return static_cast<double>(dev.sticky_pages) / static_cast<double>(dev.capacity_pages);
}

double UvmSpace::allocation_pressure() const {
  return static_cast<double>(live_bytes_) / static_cast<double>(total_capacity_bytes_);
}

double UvmSpace::working_set_pressure() const {
  std::size_t sticky = 0;
  std::size_t capacity = 0;
  for (const DeviceState& dev : devices_) {
    sticky += dev.sticky_pages;
    capacity += dev.capacity_pages;
  }
  return static_cast<double>(sticky) / static_cast<double>(capacity);
}

bool UvmSpace::page_resident(ArrayId id, std::uint32_t page, DeviceId device) const {
  const ArrayInfo& arr = array_ref(id);
  GROUT_REQUIRE(page < arr.pages.size(), "page index out of range");
  const std::uint16_t bit = device == kHostDevice ? host_bit() : device_bit(device);
  return (arr.pages[page].mask & bit) != 0;
}

Bytes UvmSpace::resident_bytes_of(ArrayId id, DeviceId device) const {
  const ArrayInfo& arr = array_ref(id);
  const std::uint16_t bit = device == kHostDevice ? host_bit() : device_bit(device);
  Bytes total = 0;
  for (std::uint32_t p = 0; p < arr.pages.size(); ++p) {
    if (arr.pages[p].mask & bit) total += page_bytes(arr, p);
  }
  return total;
}

std::uint32_t UvmSpace::page_count(ArrayId id) const {
  return static_cast<std::uint32_t>(array_ref(id).pages.size());
}

sim::Resource& UvmSpace::h2d_link(DeviceId device) { return *device_ref(device).h2d; }
sim::Resource& UvmSpace::d2h_link(DeviceId device) { return *device_ref(device).d2h; }

UvmSpace::ArrayInfo& UvmSpace::array_ref(ArrayId id) {
  GROUT_REQUIRE(id < arrays_.size(), "unknown array id");
  ArrayInfo& arr = arrays_[id];
  GROUT_REQUIRE(arr.live, "use of freed array");
  return arr;
}

const UvmSpace::ArrayInfo& UvmSpace::array_ref(ArrayId id) const {
  GROUT_REQUIRE(id < arrays_.size(), "unknown array id");
  const ArrayInfo& arr = arrays_[id];
  GROUT_REQUIRE(arr.live, "use of freed array");
  return arr;
}

UvmSpace::DeviceState& UvmSpace::device_ref(DeviceId id) {
  GROUT_REQUIRE(id >= 0 && id < static_cast<DeviceId>(devices_.size()), "unknown device id");
  return devices_[static_cast<std::size_t>(id)];
}

const UvmSpace::DeviceState& UvmSpace::device_ref(DeviceId id) const {
  GROUT_REQUIRE(id >= 0 && id < static_cast<DeviceId>(devices_.size()), "unknown device id");
  return devices_[static_cast<std::size_t>(id)];
}

Bytes UvmSpace::page_bytes(const ArrayInfo& arr, std::uint32_t page) const {
  const Bytes begin = static_cast<Bytes>(page) * tuning_.page_size;
  return std::min(tuning_.page_size, arr.bytes - begin);
}

ByteRange UvmSpace::normalize_range(const ArrayInfo& arr, ByteRange range) const {
  if (range.empty()) return ByteRange{0, arr.bytes};
  GROUT_REQUIRE(range.end <= arr.bytes, "access range past the end of the allocation");
  return range;
}

template <typename RunFn>
void UvmSpace::for_each_run(const ArrayInfo& arr, ByteRange range, const AccessPattern& pattern,
                            RunFn&& fn) {
  const auto first = static_cast<std::uint32_t>(range.begin / tuning_.page_size);
  const auto last = static_cast<std::uint32_t>(
      std::min<Bytes>((range.end + tuning_.page_size - 1) / tuning_.page_size, arr.pages.size()));
  if (first >= last) return;
  const std::uint32_t n = last - first;

  if (const auto* s = std::get_if<StreamingPattern>(&pattern)) {
    for (std::uint32_t pass = 0; pass < s->passes; ++pass) fn(first, last, false);
  } else if (std::get_if<HotReusePattern>(&pattern)) {
    fn(first, last, true);
  } else if (const auto* r = std::get_if<RandomPattern>(&pattern)) {
    Rng rng(r->seed ^ (static_cast<std::uint64_t>(epoch_counter_) << 17));
    const auto touches = static_cast<std::uint64_t>(std::llround(r->fraction * n));
    for (std::uint64_t i = 0; i < touches; ++i) {
      const std::uint32_t page = first + static_cast<std::uint32_t>(rng.next_below(n));
      fn(page, page + 1, false);
    }
  }
}

// ---------------------------------------------------------------------------
// Enum names
// ---------------------------------------------------------------------------

const char* to_string(AccessMode m) {
  switch (m) {
    case AccessMode::Read: return "read";
    case AccessMode::Write: return "write";
    case AccessMode::ReadWrite: return "readwrite";
  }
  return "?";
}

const char* to_string(Parallelism p) {
  switch (p) {
    case Parallelism::Moderate: return "moderate";
    case Parallelism::High: return "high";
    case Parallelism::Massive: return "massive";
  }
  return "?";
}

const char* to_string(Advise a) {
  switch (a) {
    case Advise::None: return "none";
    case Advise::ReadMostly: return "read-mostly";
  }
  return "?";
}

const char* to_string(EvictionPolicyKind k) {
  switch (k) {
    case EvictionPolicyKind::ClockLru: return "clock-lru";
    case EvictionPolicyKind::Fifo: return "fifo";
    case EvictionPolicyKind::Random: return "random";
  }
  return "?";
}

}  // namespace grout::uvm
