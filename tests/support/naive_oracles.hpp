// Naive reference implementations pinned as differential-test oracles.
//
// These are verbatim ports of the pre-fast-path controller code:
//   NaiveDag               — DependencyDag whose filter_redundant runs the
//                            original O(k^2) pairwise DFS with per-call
//                            unordered_set allocation, and whose WAR reader
//                            lists grow without compaction.
//   OracleMinTransferPolicy — MinTransferPolicy::assign with the original
//                            O(workers x params x holders) inner loop and
//                            per-pair bandwidth probes through the override
//                            map (NetworkFabric::bandwidth_uncached).
//   NaiveGovernor          — MemoryGovernor's replica accounting with the
//                            original victim scan: a node-based map per
//                            worker, a per-CE `needed` hash set, a
//                            worker_holders() vector and checked
//                            bandwidth() probes for every replica, and a
//                            fresh scan for every eviction.
//
// The production implementations must agree with these exactly — same edge
// sets, same placements — which the test_*_differential suites assert over
// randomized inputs. The scheduling-overhead bench also times them so the
// fast-path speedup is measured against the pre-PR code in the same build.
#pragma once

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/directory.hpp"
#include "core/policies.hpp"
#include "dag/dependency_dag.hpp"
#include "net/topology.hpp"

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

    Vertex vertex;
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
    std::vector<VertexId> stack{v};
    std::unordered_set<VertexId> visited;
    while (!stack.empty()) {
      const VertexId cur = stack.back();
      stack.pop_back();
      for (const VertexId a : vertices_[cur].ancestors) {
        if (a == ancestor) return true;
        if (a > ancestor && visited.insert(a).second) stack.push_back(a);
      }
    }
    return false;
  }

 private:
  struct Vertex {
    std::vector<VertexId> ancestors;
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
  OracleMinTransferPolicy(bool by_time, core::ExplorationLevel exploration)
      : OracleMinTransferPolicy(by_time, core::exploration_threshold(exploration)) {}

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
      if (!core::placement_alive(q, w)) continue;
      if (!core::placement_admissible(q, w)) continue;
      Bytes available = 0;
      double cost = 0.0;
      bool reachable = true;
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
            best_bps = q.fabric->bandwidth_uncached(net::controller_node_id(), dst).bps();
          }
          for (const std::size_t src : holders.worker_holders()) {
            best_bps = std::max(
                best_bps, q.fabric->bandwidth_uncached(net::worker_node_id(src), dst).bps());
          }
          if (best_bps <= 0.0) {
            reachable = false;
            break;
          }
          cost += static_cast<double>(p.bytes) / best_bps;
        } else {
          cost += static_cast<double>(p.bytes);
        }
      }
      if (!reachable) continue;
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
      if (core::placement_alive(q, node) && core::placement_admissible(q, node)) {
        rr_cursor_ = (node + 1) % q.workers;
        return node;
      }
    }
    for (std::size_t tried = 0; tried < q.workers; ++tried) {
      const std::size_t node = rr_cursor_;
      rr_cursor_ = (rr_cursor_ + 1) % q.workers;
      if (core::placement_alive(q, node)) return node;
    }
    GROUT_CHECK(false, "no live worker to schedule on");
    return 0;
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
  void drop_worker(std::size_t w) {
    resident_[w] = 0;
    replicas_[w].clear();
  }
  void add_worker() {
    resident_.push_back(0);
    replicas_.emplace_back();
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
    constexpr double kInf = std::numeric_limits<double>::infinity();

    bool found = false;
    core::GlobalArrayId victim = 0;
    double victim_cost = kInf;
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
          if (fabric.bandwidth(dst, cluster::Cluster::controller_id()).bps() <= 0.0) continue;
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
        cost = best_bps > 0.0
                   ? static_cast<double>(rep.bytes) * (static_cast<double>(rep.bytes) / best_bps)
                   : kInf;
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

}  // namespace grout::oracle
