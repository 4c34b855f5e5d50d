// Naive reference implementations pinned as differential-test oracles.
//
// These are verbatim ports of the pre-fast-path controller and UVM code:
//   NaiveDag               — DependencyDag whose filter_redundant runs the
//                            original O(k^2) pairwise ancestor test, and
//                            whose WAR reader lists grow without
//                            compaction. Each vertex keeps its full
//                            transitive ancestor set as a bit set, so one
//                            ancestor test is a bit lookup.
//   OracleMinTransferPolicy — MinTransferPolicy::assign with the original
//                            O(workers x params x holders) inner loop: a
//                            per-param holder lookup, the byte and cost sums
//                            in param order, and a checked bandwidth()
//                            probe per (holder, worker) pair.
//   NaiveGovernor          — MemoryGovernor's replica accounting with the
//                            original victim scan: a node-based map per
//                            worker, a per-CE `needed` hash set, a
//                            worker_holders() vector and checked
//                            bandwidth() probes for every replica, and a
//                            fresh scan for every eviction.
//   NaiveUvm               — UvmSpace's page engine replaying every touch
//                            through the per-page fault path, with a
//                            std::deque eviction ring and hash-set ring
//                            compaction.
//
// The production implementations must agree with these exactly — same edge
// sets, same placements — which the test_*_differential suites assert over
// randomized inputs. The scheduling-overhead bench also times them so the
// fast-path speedup is measured against the pre-PR code in the same build.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/directory.hpp"
#include "core/policies.hpp"
#include "dag/dependency_dag.hpp"
#include "net/topology.hpp"
#include "sim/resource.hpp"
#include "uvm/uvm_space.hpp"

namespace grout::oracle {

class NaiveDag {
 public:
  using VertexId = dag::VertexId;

  VertexId add(std::vector<dag::AccessSummary> accesses) {
    const VertexId v = vertices_.size();
    std::vector<VertexId> candidates;
    for (const dag::AccessSummary& a : accesses) {
      auto it = per_array_.find(a.array);
      if (it == per_array_.end()) continue;
      const ArrayTrack& track = it->second;
      if (track.last_writer != dag::kNoVertex) candidates.push_back(track.last_writer);
      if (a.write) {
        candidates.insert(candidates.end(), track.readers_since_write.begin(),
                          track.readers_since_write.end());
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

    std::vector<VertexId> ancestors = filter_redundant(candidates);

    // v's reach set: every direct ancestor plus everything it reaches.
    Vertex vertex;
    vertex.reach.assign(v / 64 + 1, 0);
    for (const VertexId a : ancestors) {
      const std::vector<std::uint64_t>& from = vertices_[a].reach;
      for (std::size_t i = 0; i < from.size(); ++i) vertex.reach[i] |= from[i];
      vertex.reach[a / 64] |= std::uint64_t{1} << (a % 64);
    }
    vertex.ancestors = ancestors;
    vertices_.push_back(std::move(vertex));
    edges_ += ancestors.size();

    for (const dag::AccessSummary& a : accesses) {
      ArrayTrack& track = per_array_[a.array];
      if (a.write) {
        track.last_writer = v;
        track.readers_since_write.clear();
      } else {
        track.readers_since_write.push_back(v);
      }
    }
    return v;
  }

  [[nodiscard]] const std::vector<VertexId>& ancestors(VertexId v) const {
    return vertices_[v].ancestors;
  }
  [[nodiscard]] std::size_t size() const { return vertices_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_; }

  [[nodiscard]] bool is_ancestor(VertexId ancestor, VertexId v) const {
    if (ancestor >= v) return false;
    return ((vertices_[v].reach[ancestor / 64] >> (ancestor % 64)) & 1) != 0;
  }

 private:
  struct Vertex {
    std::vector<VertexId> ancestors;
    /// Bit a set: vertex a reaches this one (a < this vertex's id).
    std::vector<std::uint64_t> reach;
  };
  struct ArrayTrack {
    VertexId last_writer{dag::kNoVertex};
    std::vector<VertexId> readers_since_write;
  };

  std::vector<VertexId> filter_redundant(const std::vector<VertexId>& candidates) const {
    if (candidates.size() <= 1) return candidates;
    std::vector<VertexId> kept;
    kept.reserve(candidates.size());
    for (const VertexId a : candidates) {
      bool dominated = false;
      for (const VertexId b : candidates) {
        if (a != b && is_ancestor(a, b)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) kept.push_back(a);
    }
    return kept;
  }

  std::vector<Vertex> vertices_;
  std::unordered_map<uvm::ArrayId, ArrayTrack> per_array_;
  std::size_t edges_{0};
};

class OracleMinTransferPolicy {
 public:
  OracleMinTransferPolicy(bool by_time, double threshold)
      : by_time_{by_time}, threshold_{threshold} {}

  std::size_t assign(const core::PlacementQuery& q) {
    GROUT_REQUIRE(q.workers > 0, "no workers to schedule on");
    GROUT_REQUIRE(q.params != nullptr && q.directory != nullptr,
                  "min-transfer policies need CE parameters and the directory");
    if (by_time_) {
      GROUT_REQUIRE(q.fabric != nullptr, "min-transfer-time needs the bandwidth matrix");
    }

    Bytes total_input = 0;
    for (const core::PlacementParam& p : *q.params) {
      if (p.needs_data) total_input += p.bytes;
    }
    if (total_input == 0) return next_placement_rr(q);

    double best_cost = std::numeric_limits<double>::infinity();
    std::size_t best_node = q.workers;
    for (std::size_t w = 0; w < q.workers; ++w) {
      if (!core::placement_admissible(q, w)) continue;
      Bytes available = 0;
      double cost = 0.0;
      for (const core::PlacementParam& p : *q.params) {
        if (!p.needs_data) continue;
        const core::LocationSet& holders = q.directory->holders(p.array);
        if (holders.worker(w)) {
          available += p.bytes;
          continue;
        }
        if (by_time_) {
          const net::NodeId dst = net::worker_node_id(w);
          double best_bps = 0.0;
          if (holders.controller()) {
            best_bps = q.fabric->bandwidth(net::controller_node_id(), dst).bps();
          }
          for (const std::size_t src : holders.worker_holders()) {
            best_bps = std::max(
                best_bps, q.fabric->bandwidth(net::worker_node_id(src), dst).bps());
          }
          cost += static_cast<double>(p.bytes) / best_bps;
        } else {
          cost += static_cast<double>(p.bytes);
        }
      }
      const double avail_fraction =
          static_cast<double>(available) / static_cast<double>(total_input);
      if (avail_fraction + 1e-12 < threshold_) continue;
      if (cost < best_cost) {
        best_cost = cost;
        best_node = w;
      }
    }

    if (best_node == q.workers) return next_placement_rr(q);
    return best_node;
  }

 private:
  std::size_t next_placement_rr(const core::PlacementQuery& q) {
    for (std::size_t tried = 0; tried < q.workers; ++tried) {
      const std::size_t node = (rr_cursor_ + tried) % q.workers;
      if (core::placement_admissible(q, node)) {
        rr_cursor_ = (node + 1) % q.workers;
        return node;
      }
    }
    const std::size_t node = rr_cursor_;
    rr_cursor_ = (rr_cursor_ + 1) % q.workers;
    return node;
  }

  bool by_time_;
  double threshold_;
  std::size_t rr_cursor_{0};
};

/// Mirror of MemoryGovernor's victim choice. It keeps its own replica
/// accounting and applies each eviction's directory effect (spill: the
/// controller gains the copy; then the worker's copy is removed) to the
/// directory it is given, so a test can run it beside the real governor
/// on a second directory driven by the same operations. The fabric and
/// the clock are read from the shared cluster. Every victim is logged.
class NaiveGovernor {
 public:
  NaiveGovernor(cluster::Cluster& cluster, core::CoherenceDirectory& directory,
                Bytes budget, std::size_t workers)
      : cluster_{cluster}, directory_{directory}, budget_{budget},
        resident_(workers, 0), replicas_(workers) {}

  void set_array_owner(core::GlobalArrayId id, TenantId tenant) { owner_[id] = tenant; }
  void note_ensure(std::size_t w, core::GlobalArrayId id) {
    const auto [it, fresh] = replicas_[w].try_emplace(id);
    if (!fresh) return;
    it->second.bytes = directory_.bytes_of(id);
    it->second.last_use = cluster_.simulator().now();
    resident_[w] += it->second.bytes;
  }
  void note_use(std::size_t w, core::GlobalArrayId id) {
    replicas_[w].at(id).last_use = cluster_.simulator().now();
  }
  void pin(std::size_t w, core::GlobalArrayId id) { ++replicas_[w].at(id).pins; }
  void unpin(std::size_t w, core::GlobalArrayId id) { --replicas_[w].at(id).pins; }

  void make_room(std::size_t w, const std::vector<core::PlacementParam>& params,
                 TenantId tenant) {
    Bytes incoming = 0;
    std::unordered_set<core::GlobalArrayId> needed;
    for (const core::PlacementParam& p : params) {
      if (!needed.insert(p.array).second) continue;
      if (!replicas_[w].contains(p.array)) incoming += p.bytes;
    }
    while (resident_[w] + incoming > budget_) {
      if (!evict_one(w, needed, tenant)) break;
    }
  }
  void enforce(std::size_t w) {
    const std::unordered_set<core::GlobalArrayId> keep;
    while (resident_[w] > budget_) {
      if (!evict_one(w, keep)) break;
    }
  }

  [[nodiscard]] Bytes resident_bytes(std::size_t w) const { return resident_[w]; }
  [[nodiscard]] std::vector<core::GlobalArrayId> replica_ids(std::size_t w) const {
    std::vector<core::GlobalArrayId> ids;
    for (const auto& [id, rep] : replicas_[w]) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  /// Every (worker, array) evicted so far, in order.
  [[nodiscard]] const std::vector<std::pair<std::size_t, core::GlobalArrayId>>& victims() const {
    return victims_;
  }

 private:
  struct Replica {
    Bytes bytes{0};
    SimTime last_use{SimTime::zero()};
    int pins{0};
  };

  TenantId array_owner(core::GlobalArrayId id) const {
    const auto it = owner_.find(id);
    return it == owner_.end() ? kNoTenant : it->second;
  }

  bool evict_one(std::size_t w, const std::unordered_set<core::GlobalArrayId>& keep,
                 TenantId requester = kNoTenant) {
    const net::NodeId dst = cluster::Cluster::worker_fabric_id(w);
    const net::NetworkFabric& fabric = cluster_.fabric();

    bool found = false;
    core::GlobalArrayId victim = 0;
    double victim_cost = std::numeric_limits<double>::infinity();
    SimTime victim_use = SimTime::max();
    bool victim_sole = false;
    for (const auto& [id, rep] : replicas_[w]) {
      if (rep.pins > 0 || keep.contains(id)) continue;
      const core::LocationSet& holders = directory_.holders(id);
      const bool holder = holders.worker(w);
      const bool sole = holder && holders.holder_count() == 1;
      if (requester != kNoTenant && holder) {
        const TenantId owner = array_owner(id);
        if (owner != kNoTenant && owner != requester) continue;
      }
      double cost = 0.0;
      if (holder) {
        double best_bps = 0.0;
        if (sole) {
          best_bps = fabric.bandwidth(cluster::Cluster::controller_id(), dst).bps();
        } else {
          if (holders.controller()) {
            best_bps = fabric.bandwidth(cluster::Cluster::controller_id(), dst).bps();
          }
          for (const std::size_t s : holders.worker_holders()) {
            if (s == w) continue;
            best_bps = std::max(
                best_bps, fabric.bandwidth(cluster::Cluster::worker_fabric_id(s), dst).bps());
          }
        }
        cost = static_cast<double>(rep.bytes) * (static_cast<double>(rep.bytes) / best_bps);
      }
      const bool better =
          !found || cost < victim_cost ||
          (cost == victim_cost &&
           (rep.last_use < victim_use || (rep.last_use == victim_use && id < victim)));
      if (better) {
        found = true;
        victim = id;
        victim_cost = cost;
        victim_use = rep.last_use;
        victim_sole = sole;
      }
    }
    if (!found) return false;
    if (victim_sole) directory_.add_controller_copy(victim);
    if (directory_.holders(victim).worker(w)) directory_.remove_worker_copy(victim, w);
    resident_[w] -= replicas_[w].at(victim).bytes;
    replicas_[w].erase(victim);
    victims_.emplace_back(w, victim);
    return true;
  }

  cluster::Cluster& cluster_;
  core::CoherenceDirectory& directory_;
  Bytes budget_;
  std::vector<Bytes> resident_;
  std::vector<std::unordered_map<core::GlobalArrayId, Replica>> replicas_;
  std::unordered_map<core::GlobalArrayId, TenantId> owner_;
  std::vector<std::pair<std::size_t, core::GlobalArrayId>> victims_;
};

/// UvmSpace's per-page fault engine as it was before range replay: every
/// touched page goes through touch_page (array and device looked up per
/// page), the eviction ring is a std::deque and compact_ring dedups through
/// a hash set. Only the drop_residency mask is widened to 16 bits (the old
/// 8-bit mask dropped devices 7+ from read-duplicated pages). It runs
/// beside a UvmSpace on the same simulator; the differential test compares
/// reports, statistics and residency call by call.
class NaiveUvm {
 public:
  using ArrayId = uvm::ArrayId;
  using DeviceId = uvm::DeviceId;

  NaiveUvm(sim::Simulator& simulator, uvm::UvmTuning tuning,
           std::vector<uvm::DeviceConfig> devices,
           uvm::EvictionPolicyKind eviction = uvm::EvictionPolicyKind::ClockLru,
           std::uint64_t seed = 0x5eedULL)
      : sim_{simulator}, tuning_{tuning}, eviction_{eviction}, rng_{seed} {
    for (auto& cfg : devices) {
      DeviceState dev;
      dev.capacity_pages = static_cast<std::size_t>(cfg.capacity / tuning_.page_size);
      dev.h2d = std::make_unique<sim::Resource>(sim_, cfg.name + "/h2d", cfg.pcie_bw,
                                                cfg.pcie_latency);
      dev.d2h = std::make_unique<sim::Resource>(sim_, cfg.name + "/d2h", cfg.pcie_bw,
                                                cfg.pcie_latency);
      dev.config = std::move(cfg);
      devices_.push_back(std::move(dev));
    }
  }

  ArrayId alloc(Bytes bytes, std::string name) {
    ArrayInfo info;
    info.name = std::move(name);
    info.bytes = bytes;
    const auto pages =
        static_cast<std::uint32_t>((bytes + tuning_.page_size - 1) / tuning_.page_size);
    info.pages.assign(pages, PageState{});
    info.sticky_per_device.assign(devices_.size(), 0);
    info.live = true;
    arrays_.push_back(std::move(info));
    return static_cast<ArrayId>(arrays_.size() - 1);
  }

  void free_array(ArrayId id) {
    ArrayInfo& arr = arrays_[id];
    for (std::uint32_t p = 0; p < arr.pages.size(); ++p) {
      PageState& st = arr.pages[p];
      for (DeviceId d = 0; d < device_count(); ++d) {
        if (st.mask & device_bit(d)) --devices_[d].used_pages;
      }
      st.mask = host_bit();
    }
    for (DeviceId d = 0; d < device_count(); ++d) {
      devices_[d].sticky_pages -= arr.sticky_per_device[d];
    }
    arr.live = false;
    arr.pages.clear();
    arr.pages.shrink_to_fit();
  }

  void advise(ArrayId id, uvm::Advise advise) { arrays_[id].advise = advise; }

  uvm::DeviceAccessResult device_access(DeviceId device,
                                        std::span<const uvm::ParamAccess> params,
                                        uvm::Parallelism parallelism) {
    DeviceState& dev = devices_[device];
    dev.current_epoch = ++epoch_counter_;

    TouchCounters c;
    for (const uvm::ParamAccess& pa : params) {
      ArrayInfo& arr = arrays_[pa.array];
      const uvm::ByteRange range = pa.range.empty() ? uvm::ByteRange{0, arr.bytes} : pa.range;
      if (range.empty()) continue;
      for_each_page(arr, range, pa.pattern, [&](std::uint32_t page, bool hot) {
        touch_page(device, pa.array, page, pa.mode, hot, c);
      });
    }

    uvm::AccessReport r;
    r.bytes_touched = c.touched;
    r.bytes_hit = c.hit;
    r.healthy_fetch = c.healthy_fetch;
    r.evict_fetch = c.evict_fetch;
    r.populate_alloc = c.populate_alloc;
    r.writeback = c.writeback;
    r.faults = c.faults;
    r.evictions = c.evictions;
    const auto capacity_bytes =
        static_cast<double>(dev.capacity_pages) * static_cast<double>(tuning_.page_size);
    r.eviction_intensity = capacity_bytes > 0 ? static_cast<double>(c.evictions) *
                                                    static_cast<double>(tuning_.page_size) /
                                                    capacity_bytes
                                              : 0.0;
    r.oversubscription = working_set_pressure();
    r.storm = r.oversubscription >= tuning_.storm_oversubscription_threshold && c.evictions > 0;

    const Bandwidth pcie = dev.config.pcie_bw;
    SimTime fault_time = SimTime::zero();
    if (r.storm) {
      const double extra = r.oversubscription - tuning_.storm_oversubscription_threshold;
      const double slowdown = 1.0 + tuning_.storm_compound * extra * extra;
      const Bandwidth storm_bw =
          Bandwidth::bytes_per_sec(tuning_.storm_bandwidth(parallelism).bps() / slowdown);
      fault_time += storm_bw.transfer_time(r.healthy_fetch + r.evict_fetch + r.populate_alloc);
    } else {
      if (r.healthy_fetch > 0) {
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
        fault_time +=
            tuning_.eviction_overhead_per_page * static_cast<std::int64_t>(r.evictions);
      }
    }
    r.fault_time = fault_time;
    r.writeback_time = r.writeback > 0 ? pcie.transfer_time(r.writeback) : SimTime::zero();

    uvm::DeviceAccessResult result;
    result.h2d_done = fault_time > SimTime::zero()
                          ? dev.h2d->submit_duration(fault_time, r.healthy_fetch + r.evict_fetch)
                          : sim_.now();
    result.d2h_done = r.writeback_time > SimTime::zero()
                          ? dev.d2h->submit_duration(r.writeback_time, r.writeback)
                          : sim_.now();

    stats_.bytes_fetched += r.healthy_fetch + r.evict_fetch;
    stats_.bytes_written_back += r.writeback;
    stats_.faults += r.faults;
    stats_.evictions += r.evictions;
    ++stats_.kernels;
    if (r.storm) ++stats_.storm_kernels;
    result.report = r;
    return result;
  }

  uvm::HostAccessReport host_access(ArrayId id, uvm::AccessMode mode, uvm::ByteRange range = {}) {
    ArrayInfo& arr = arrays_[id];
    if (range.empty()) range = uvm::ByteRange{0, arr.bytes};
    const auto first = static_cast<std::uint32_t>(range.begin / tuning_.page_size);
    const auto last =
        static_cast<std::uint32_t>((range.end + tuning_.page_size - 1) / tuning_.page_size);

    std::vector<Bytes> d2h_traffic(devices_.size(), 0);
    Bytes migrated = 0;
    for (std::uint32_t p = first; p < last && p < arr.pages.size(); ++p) {
      PageState& st = arr.pages[p];
      if (!(st.mask & host_bit())) {
        for (DeviceId d = 0; d < device_count(); ++d) {
          if (st.mask & device_bit(d)) {
            if (st.populated) d2h_traffic[d] += page_bytes(arr, p);
            st.mask &= static_cast<std::uint16_t>(~device_bit(d));
            --devices_[d].used_pages;
            break;
          }
        }
        migrated += page_bytes(arr, p);
        st.mask |= host_bit();
      }
      if (uvm::writes(mode)) {
        st.populated = true;
        for (DeviceId d = 0; d < device_count(); ++d) {
          if (st.mask & device_bit(d)) {
            st.mask &= static_cast<std::uint16_t>(~device_bit(d));
            --devices_[d].used_pages;
          }
        }
        st.mask = host_bit();
      }
    }

    SimTime done = sim_.now();
    for (DeviceId d = 0; d < device_count(); ++d) {
      if (d2h_traffic[d] > 0) done = std::max(done, devices_[d].d2h->submit(d2h_traffic[d]));
    }
    uvm::HostAccessReport r;
    r.bytes_migrated = migrated;
    r.duration = done - sim_.now();
    return r;
  }

  SimTime prefetch(ArrayId id, DeviceId device, uvm::ByteRange range = {}) {
    ArrayInfo& arr = arrays_[id];
    if (range.empty()) range = uvm::ByteRange{0, arr.bytes};
    const auto first = static_cast<std::uint32_t>(range.begin / tuning_.page_size);
    const auto last =
        static_cast<std::uint32_t>((range.end + tuning_.page_size - 1) / tuning_.page_size);
    if (device == uvm::kHostDevice) {
      const uvm::HostAccessReport r = host_access(id, uvm::AccessMode::Read, range);
      return sim_.now() + r.duration;
    }

    DeviceState& dev = devices_[device];
    TouchCounters c;
    Bytes fetch = 0;
    for (std::uint32_t p = first; p < last && p < arr.pages.size(); ++p) {
      PageState& st = arr.pages[p];
      const std::uint16_t bit = device_bit(device);
      if (st.mask & bit) continue;
      while (dev.used_pages >= dev.capacity_pages) {
        if (!evict_one(device, c)) break;
      }
      if (dev.used_pages >= dev.capacity_pages) break;
      if (arr.advise == uvm::Advise::ReadMostly) {
        st.mask |= bit;
      } else {
        for (DeviceId d = 0; d < device_count(); ++d) {
          if (d != device && (st.mask & device_bit(d))) {
            st.mask &= static_cast<std::uint16_t>(~device_bit(d));
            --devices_[d].used_pages;
          }
        }
        st.mask = bit;
      }
      ++dev.used_pages;
      if (!(st.ever_mask & bit)) {
        st.ever_mask |= bit;
        ++dev.sticky_pages;
        ++arr.sticky_per_device[device];
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

  void adopt_host_copy(ArrayId id) {
    for (PageState& st : arrays_[id].pages) {
      for (DeviceId d = 0; d < device_count(); ++d) {
        if (st.mask & device_bit(d)) {
          st.mask &= static_cast<std::uint16_t>(~device_bit(d));
          --devices_[d].used_pages;
        }
      }
      st.mask = host_bit();
      st.populated = true;
    }
  }

  [[nodiscard]] Bytes resident_bytes(DeviceId device) const {
    return static_cast<Bytes>(devices_[device].used_pages) * tuning_.page_size;
  }
  [[nodiscard]] Bytes sticky_bytes(DeviceId device) const {
    return static_cast<Bytes>(devices_[device].sticky_pages) * tuning_.page_size;
  }
  [[nodiscard]] bool page_resident(ArrayId id, std::uint32_t page, DeviceId device) const {
    const std::uint16_t bit = device == uvm::kHostDevice ? host_bit() : device_bit(device);
    return (arrays_[id].pages[page].mask & bit) != 0;
  }
  [[nodiscard]] const uvm::UvmStats& stats() const { return stats_; }
  /// Times any device's eviction ring was compacted.
  [[nodiscard]] std::size_t compactions() const { return compactions_; }

 private:
  struct PageState {
    std::uint16_t mask{1};
    std::uint16_t ever_mask{0};
    std::uint32_t touch_epoch{0};
    bool hot{false};
    bool populated{false};
    bool prefetched{false};
  };
  struct ArrayInfo {
    std::string name;
    Bytes bytes{0};
    std::vector<PageState> pages;
    std::vector<std::size_t> sticky_per_device;
    uvm::Advise advise{uvm::Advise::None};
    bool live{false};
  };
  struct RingEntry {
    ArrayId array;
    std::uint32_t page;
  };
  struct DeviceState {
    uvm::DeviceConfig config;
    std::size_t capacity_pages{0};
    std::size_t used_pages{0};
    std::size_t sticky_pages{0};
    std::deque<RingEntry> ring;
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

  static constexpr std::size_t kEvictionScanLimit = 64;
  static constexpr std::uint16_t host_bit() { return 1u; }
  static constexpr std::uint16_t device_bit(DeviceId d) {
    return static_cast<std::uint16_t>(1u << (d + 1));
  }
  [[nodiscard]] DeviceId device_count() const { return static_cast<DeviceId>(devices_.size()); }

  [[nodiscard]] Bytes page_bytes(const ArrayInfo& arr, std::uint32_t page) const {
    const Bytes begin = static_cast<Bytes>(page) * tuning_.page_size;
    return std::min(tuning_.page_size, arr.bytes - begin);
  }

  [[nodiscard]] double working_set_pressure() const {
    std::size_t sticky = 0;
    std::size_t capacity = 0;
    for (const DeviceState& dev : devices_) {
      sticky += dev.sticky_pages;
      capacity += dev.capacity_pages;
    }
    return static_cast<double>(sticky) / static_cast<double>(capacity);
  }

  void touch_page(DeviceId device, ArrayId id, std::uint32_t page, uvm::AccessMode mode,
                  bool hot, TouchCounters& c) {
    ArrayInfo& arr = arrays_[id];
    DeviceState& dev = devices_[device];
    PageState& st = arr.pages[page];
    const Bytes pb = page_bytes(arr, page);
    const std::uint16_t bit = device_bit(device);

    c.touched += pb;
    if (st.mask & bit) {
      c.hit += pb;
      if (st.prefetched) {
        st.prefetched = false;
        stats_.prefetch_useful += pb;
      }
    } else {
      ++c.faults;
      const std::uint64_t evictions_before = c.evictions;
      while (dev.used_pages >= dev.capacity_pages) {
        if (!evict_one(device, c)) break;
      }
      const bool evicted_now = c.evictions != evictions_before;
      GROUT_CHECK(dev.used_pages < dev.capacity_pages, "device full and nothing evictable");
      const bool needs_copy = st.populated;
      if (uvm::writes(mode)) {
        for (DeviceId d = 0; d < device_count(); ++d) {
          if (d != device && (st.mask & device_bit(d))) {
            st.mask &= static_cast<std::uint16_t>(~device_bit(d));
            --devices_[d].used_pages;
          }
        }
        st.mask = bit;
      } else if (arr.advise == uvm::Advise::ReadMostly) {
        st.mask |= bit;
      } else {
        for (DeviceId d = 0; d < device_count(); ++d) {
          if (d != device && (st.mask & device_bit(d))) {
            st.mask &= static_cast<std::uint16_t>(~device_bit(d));
            --devices_[d].used_pages;
          }
        }
        st.mask = bit;
      }
      ++dev.used_pages;
      if (!(st.ever_mask & bit)) {
        st.ever_mask |= bit;
        ++dev.sticky_pages;
        ++arr.sticky_per_device[device];
      }
      dev.ring.push_back(RingEntry{id, page});
      if (dev.ring.size() > std::max<std::size_t>(4 * dev.capacity_pages, 1024)) {
        compact_ring(dev);
      }
      st.prefetched = false;
      if (!needs_copy) {
        c.populate_alloc += pb;
      } else if (evicted_now) {
        c.evict_fetch += pb;
      } else {
        c.healthy_fetch += pb;
      }
    }

    if (uvm::writes(mode)) st.populated = true;
    if (uvm::writes(mode) && (st.mask & ~bit) != 0) {
      for (DeviceId d = 0; d < device_count(); ++d) {
        if (d != device && (st.mask & device_bit(d))) {
          st.mask &= static_cast<std::uint16_t>(~device_bit(d));
          --devices_[d].used_pages;
        }
      }
      st.mask = bit;
    }
    st.touch_epoch = dev.current_epoch;
    st.hot = hot;
  }

  bool evict_one(DeviceId device, TouchCounters& c) {
    DeviceState& dev = devices_[device];
    const std::uint16_t bit = device_bit(device);
    std::size_t second_chances = 0;

    if (eviction_ == uvm::EvictionPolicyKind::Random) {
      for (int attempt = 0; attempt < 16 && !dev.ring.empty(); ++attempt) {
        const auto idx = static_cast<std::size_t>(rng_.next_below(dev.ring.size()));
        const RingEntry entry = dev.ring[idx];
        dev.ring[idx] = dev.ring.back();
        dev.ring.pop_back();
        ArrayInfo& arr = arrays_[entry.array];
        if (!arr.live || entry.page >= arr.pages.size()) continue;
        if (!(arr.pages[entry.page].mask & bit)) continue;
        drop_residency(entry.array, entry.page, device, c);
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
      if (!(st.mask & bit)) continue;
      if (eviction_ == uvm::EvictionPolicyKind::ClockLru && second_chances < kEvictionScanLimit &&
          st.hot && st.touch_epoch == dev.current_epoch) {
        dev.ring.push_back(entry);
        ++second_chances;
        continue;
      }
      drop_residency(entry.array, entry.page, device, c);
      ++c.evictions;
      return true;
    }
    return false;
  }

  void drop_residency(ArrayId id, std::uint32_t page, DeviceId device, TouchCounters& c) {
    ArrayInfo& arr = arrays_[id];
    PageState& st = arr.pages[page];
    st.mask &= static_cast<std::uint16_t>(~device_bit(device));
    st.prefetched = false;
    --devices_[device].used_pages;
    if (st.mask == 0) {
      st.mask = host_bit();
      if (st.populated) c.writeback += page_bytes(arr, page);
    }
  }

  void compact_ring(DeviceState& dev) {
    const std::uint16_t bit = device_bit(static_cast<DeviceId>(&dev - devices_.data()));
    std::unordered_set<std::uint64_t> seen;
    std::deque<RingEntry> fresh;
    for (const RingEntry& entry : dev.ring) {
      const ArrayInfo& arr = arrays_[entry.array];
      if (!arr.live || entry.page >= arr.pages.size()) continue;
      if (!(arr.pages[entry.page].mask & bit)) continue;
      const std::uint64_t key = (static_cast<std::uint64_t>(entry.array) << 32) | entry.page;
      if (seen.insert(key).second) fresh.push_back(entry);
    }
    dev.ring = std::move(fresh);
    ++compactions_;
  }

  template <typename PageFn>
  void for_each_page(const ArrayInfo& arr, uvm::ByteRange range,
                     const uvm::AccessPattern& pattern, PageFn&& fn) {
    const auto first = static_cast<std::uint32_t>(range.begin / tuning_.page_size);
    const auto last = static_cast<std::uint32_t>(std::min<Bytes>(
        (range.end + tuning_.page_size - 1) / tuning_.page_size, arr.pages.size()));
    if (first >= last) return;
    const std::uint32_t n = last - first;
    if (const auto* s = std::get_if<uvm::StreamingPattern>(&pattern)) {
      for (std::uint32_t pass = 0; pass < s->passes; ++pass) {
        for (std::uint32_t p = first; p < last; ++p) fn(p, false);
      }
    } else if (std::get_if<uvm::HotReusePattern>(&pattern)) {
      for (std::uint32_t p = first; p < last; ++p) fn(p, true);
    } else if (const auto* r = std::get_if<uvm::RandomPattern>(&pattern)) {
      Rng rng(r->seed ^ (static_cast<std::uint64_t>(epoch_counter_) << 17));
      const auto touches = static_cast<std::uint64_t>(std::llround(r->fraction * n));
      for (std::uint64_t i = 0; i < touches; ++i) {
        fn(first + static_cast<std::uint32_t>(rng.next_below(n)), false);
      }
    }
  }

  sim::Simulator& sim_;
  uvm::UvmTuning tuning_;
  uvm::EvictionPolicyKind eviction_;
  Rng rng_;
  std::vector<ArrayInfo> arrays_;
  std::vector<DeviceState> devices_;
  std::uint32_t epoch_counter_{0};
  uvm::UvmStats stats_;
  std::size_t compactions_{0};
};

}  // namespace grout::oracle
