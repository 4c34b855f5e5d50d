// Dependency DAG over Computational Elements (Algorithm 1 of the paper).
//
// Both the Controller's Global DAG and each Worker's Local DAG are instances
// of this class. A new CE is checked against the frontier — the set of
// vertices that are still the last writer or an active reader of some array —
// and conflict edges (RAW, WAR, WAW) are added after filtering redundant
// ancestors (an ancestor reachable from another candidate ancestor is
// dropped, mirroring the paper's filterRedundant step).
#pragma once

#include <algorithm>
#include <array>
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
    bool done{false};
  };

  /// Insert a CE; computes and returns its filtered direct ancestors.
  VertexId add(std::string label, std::vector<AccessSummary> accesses);

  /// Drop `array`'s frontier state (its last writer and readers). Only for
  /// an array no later CE will name: a Worker forgets a local allocation it
  /// freed, whose id is never handed out again, so the per-array state stays
  /// proportional to the live arrays instead of every allocation ever made.
  void forget(uvm::ArrayId array) { per_array_.erase(array); }

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

  /// Reachability of the last kReachWindow vertices, kept exactly: bit
  /// d - 1 of a vertex's set says it reaches the vertex d ids below it.
  static constexpr std::size_t kReachWindow = 1024;
  using ReachBits = std::array<std::uint64_t, kReachWindow / 64>;

  const Vertex& vertex_ref(VertexId v) const {
    GROUT_REQUIRE(v < vertices_.size(), "unknown vertex");
    return vertices_[v];
  }

  /// Vertex `v`'s run of ancestor_pool_.
  [[nodiscard]] std::span<const VertexId> packed_ancestors(VertexId v) const {
    return {ancestor_pool_.data() + ancestor_begin_[v],
            ancestor_begin_[v + 1] - ancestor_begin_[v]};
  }

  /// A candidate that is the last writer W of an array X the new CE
  /// accesses. Every later vertex that touches X only read it (a later
  /// write would have replaced W), so it already reaches W: W is dominated
  /// as soon as any candidate reaches such a vertex.
  struct LastWriter {
    VertexId writer;
    uvm::ArrayId array;
    /// The new CE writes X and a reader other than W itself read X since
    /// W's write: that reader is a WAR candidate, so W is dominated outright.
    bool dominated;
  };

  /// Write into `kept` the candidates (sorted ascending) that are not
  /// reachable from another candidate; the result is exactly that of one
  /// multi-source reverse DFS from every candidate. `base` is above every
  /// candidate (the vertex being inserted): on return `reach` holds what
  /// the candidates reach within kReachWindow of `base`, relative to it
  /// (`reach` must not be a candidate's ring slot). A candidate in that
  /// window is decided by one bit test; the walks below run only when the
  /// floor — the lowest candidate not yet known to be dominated — lies
  /// further down. Edges point backward in insertion order, so nothing
  /// below the floor needs visiting. `writers` lists the candidates that
  /// are last writers of arrays the new CE accesses; the WAR-dominated
  /// ones raise the floor before any walk. If the floor is then an
  /// undominated writer (an array written once and read ever since keeps
  /// it thousands of vertices back), the walk pops vertices in descending
  /// id order, marks each writer on the first reader of its array it
  /// reaches, raises the floor past every marked candidate, and stops once
  /// it falls below the floor: it costs the edges above the nearest
  /// reachable reader, not the whole window down to the writer. Otherwise
  /// a plain DFS over [floor, insertion point) runs. Neither allocates
  /// beyond the result.
  void filter_redundant(std::span<const VertexId> candidates, std::span<const LastWriter> writers,
                        VertexId base, ReachBits& reach, std::vector<VertexId>& kept) const;

  /// True if `v` accesses `array`.
  [[nodiscard]] bool touches(VertexId v, uvm::ArrayId array) const {
    const std::vector<AccessSummary>& accesses = vertices_[v].accesses;
    return std::any_of(accesses.begin(), accesses.end(),
                       [&](const AccessSummary& a) { return a.array == array; });
  }

  std::vector<Vertex> vertices_;
  std::unordered_map<uvm::ArrayId, ArrayTrack> per_array_;
  std::size_t edges_{0};

  // Epoch-stamped scratch reused by is_ancestor/filter_redundant. Bumping
  // the epoch invalidates all marks at once, so queries never clear or
  // allocate; `mutable` because reachability queries are logically const.
  mutable std::vector<std::uint64_t> visited_epoch_;
  mutable std::vector<VertexId> dfs_stack_;
  // One bit per vertex: the ordered walk's pending set (all clear between
  // calls).
  mutable std::vector<std::uint64_t> pending_;
  mutable std::uint64_t epoch_{0};

  // Every vertex's ancestors again, packed back to back in insertion order
  // (vertex v's run is [ancestor_begin_[v], ancestor_begin_[v + 1])). The
  // reachability walks read this instead of Vertex::ancestors: one heap
  // block per vertex scatters the walk over memory, and its cost then
  // depends on how other allocations interleaved with the inserts.
  std::vector<std::size_t> ancestor_begin_{0};
  std::vector<VertexId> ancestor_pool_;
  // Reach sets of the last kReachWindow vertices (vertex c's at
  // c % kReachWindow), and the union a reader-list compaction builds.
  std::vector<ReachBits> reach_ring_;
  ReachBits reach_scratch_{};

  // Scratch reused by add(): the candidate ancestors, the last writers among
  // them, each access's track, and the filtered result.
  std::vector<VertexId> candidates_;
  std::vector<LastWriter> writers_;
  std::vector<ArrayTrack*> tracks_;
  std::vector<VertexId> kept_;
};

}  // namespace grout::dag
