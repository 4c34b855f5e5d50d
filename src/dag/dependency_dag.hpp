// Dependency DAG over Computational Elements (Algorithm 1 of the paper).
//
// Both the Controller's Global DAG and each Worker's Local DAG are instances
// of this class. A new CE is checked against the frontier — the set of
// vertices that are still the last writer or an active reader of some array —
// and conflict edges (RAW, WAR, WAW) are added after filtering redundant
// ancestors (an ancestor reachable from another candidate ancestor is
// dropped, mirroring the paper's filterRedundant step).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "uvm/types.hpp"

namespace grout::dag {

using VertexId = std::uint64_t;
inline constexpr VertexId kNoVertex = ~VertexId{0};

/// One array access of a CE, as seen by the dependency tracker.
struct AccessSummary {
  uvm::ArrayId array{uvm::kInvalidArray};
  bool write{false};
};

class DependencyDag {
 public:
  struct Vertex {
    std::string label;
    std::vector<AccessSummary> accesses;
    std::vector<VertexId> ancestors;   ///< filtered direct dependencies
    std::vector<VertexId> successors;
    bool done{false};
  };

  /// Insert a CE; computes and returns its filtered direct ancestors.
  VertexId add(std::string label, std::vector<AccessSummary> accesses);

  /// Mark a CE's execution finished (used by schedulers, not for edges).
  void mark_done(VertexId v);

  [[nodiscard]] const Vertex& vertex(VertexId v) const {
    GROUT_REQUIRE(v < vertices_.size(), "unknown vertex");
    return vertices_[v];
  }
  [[nodiscard]] std::size_t size() const { return vertices_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_; }

  /// The ancestors computed for vertex `v` at insertion time.
  [[nodiscard]] const std::vector<VertexId>& ancestors(VertexId v) const {
    return vertex_ref(v).ancestors;
  }

  /// Last CE that wrote `array` (kNoVertex if no CE ever wrote it). Fault
  /// recovery replays this producer to rebuild an array whose only
  /// up-to-date copy died with a worker.
  [[nodiscard]] VertexId last_writer_of(uvm::ArrayId array) const {
    const auto it = per_array_.find(array);
    return it == per_array_.end() ? kNoVertex : it->second.last_writer;
  }

  /// Frontier: vertices still owning the last write of, or actively reading,
  /// at least one array. New CEs can only conflict with frontier members.
  [[nodiscard]] std::vector<VertexId> frontier() const;

  /// True if `ancestor` can reach `v` along dependency edges.
  [[nodiscard]] bool is_ancestor(VertexId ancestor, VertexId v) const;

  /// True if every edge respects insertion order (acyclicity witness).
  [[nodiscard]] bool edges_respect_insertion_order() const;

  /// Graphviz DOT rendering of the DAG (the paper's Fig. 5 pictures);
  /// `node_annotation(v)` may add a suffix per node label (e.g. the worker
  /// a CE was placed on) and may be null.
  [[nodiscard]] std::string to_dot(
      const std::function<std::string(VertexId)>& node_annotation = nullptr) const;

 private:
  struct ArrayTrack {
    VertexId last_writer{kNoVertex};
    std::vector<VertexId> readers_since_write;
    /// Next readers_since_write size at which the list is compacted by
    /// dropping readers already reachable from a later reader (their WAR
    /// edge would be filtered as redundant anyway). Doubles after each
    /// compaction so the amortized cost per reader stays O(1).
    std::size_t reader_compact_at{kReaderCompactMin};
  };

  static constexpr std::size_t kReaderCompactMin = 64;

  const Vertex& vertex_ref(VertexId v) const {
    GROUT_REQUIRE(v < vertices_.size(), "unknown vertex");
    return vertices_[v];
  }

  /// Vertex `v`'s run of ancestor_pool_.
  [[nodiscard]] std::span<const VertexId> packed_ancestors(VertexId v) const {
    return {ancestor_pool_.data() + ancestor_begin_[v],
            ancestor_begin_[v + 1] - ancestor_begin_[v]};
  }

  /// Drop candidates (sorted ascending) that are reachable from another
  /// candidate. One multi-source reverse DFS over the shared scratch
  /// buffers — no per-call allocation, cost bounded by the edges between
  /// the smallest candidate and the insertion point.
  std::vector<VertexId> filter_redundant(std::vector<VertexId> candidates) const;

  std::vector<Vertex> vertices_;
  std::unordered_map<uvm::ArrayId, ArrayTrack> per_array_;
  std::size_t edges_{0};

  // Epoch-stamped scratch reused by is_ancestor/filter_redundant. Bumping
  // the epoch invalidates all marks at once, so queries never clear or
  // allocate; `mutable` because reachability queries are logically const.
  mutable std::vector<std::uint64_t> visited_epoch_;
  mutable std::vector<VertexId> dfs_stack_;
  mutable std::uint64_t epoch_{0};

  // Every vertex's ancestors again, packed back to back in insertion order
  // (vertex v's run is [ancestor_begin_[v], ancestor_begin_[v + 1])). The
  // reachability walks read this instead of Vertex::ancestors: one heap
  // block per vertex scatters the walk over memory, and its cost then
  // depends on how other allocations interleaved with the inserts.
  std::vector<std::size_t> ancestor_begin_{0};
  std::vector<VertexId> ancestor_pool_;
};

}  // namespace grout::dag
