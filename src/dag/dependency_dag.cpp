#include "dag/dependency_dag.hpp"

#include <algorithm>
#include <unordered_set>

namespace grout::dag {

VertexId DependencyDag::add(std::string label, std::vector<AccessSummary> accesses) {
  const VertexId v = vertices_.size();

  // Collect conflict ancestors from the per-array frontier state:
  //   read  X -> depends on last writer of X            (RAW)
  //   write X -> depends on last writer (WAW) and on every reader since (WAR)
  std::vector<VertexId> candidates;
  for (const AccessSummary& a : accesses) {
    GROUT_REQUIRE(a.array != uvm::kInvalidArray, "access to invalid array");
    auto it = per_array_.find(a.array);
    if (it == per_array_.end()) continue;
    const ArrayTrack& track = it->second;
    if (track.last_writer != kNoVertex) candidates.push_back(track.last_writer);
    if (a.write) {
      candidates.insert(candidates.end(), track.readers_since_write.begin(),
                        track.readers_since_write.end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  std::vector<VertexId> ancestors = filter_redundant(std::move(candidates));

  Vertex vertex;
  vertex.label = std::move(label);
  vertex.accesses = accesses;
  vertex.ancestors = ancestors;
  vertices_.push_back(std::move(vertex));
  ancestor_pool_.insert(ancestor_pool_.end(), ancestors.begin(), ancestors.end());
  ancestor_begin_.push_back(ancestor_pool_.size());
  visited_epoch_.push_back(0);

  for (const VertexId a : ancestors) {
    vertices_[a].successors.push_back(v);
    ++edges_;
  }

  // Update the frontier state.
  for (const AccessSummary& a : accesses) {
    ArrayTrack& track = per_array_[a.array];
    if (a.write) {
      track.last_writer = v;
      track.readers_since_write.clear();
      track.reader_compact_at = kReaderCompactMin;
    } else {
      track.readers_since_write.push_back(v);
      if (track.readers_since_write.size() >= track.reader_compact_at) {
        // Drop readers reachable from a later reader: a future writer's
        // WAR edge to them would be filtered as redundant anyway, so the
        // final edge set is unchanged. Keeps the list proportional to the
        // array's *concurrent* reader width instead of its full history.
        track.readers_since_write = filter_redundant(std::move(track.readers_since_write));
        track.reader_compact_at =
            std::max(kReaderCompactMin, 2 * track.readers_since_write.size());
      }
    }
  }
  return v;
}

void DependencyDag::mark_done(VertexId v) {
  GROUT_REQUIRE(v < vertices_.size(), "unknown vertex");
  vertices_[v].done = true;
}

std::vector<VertexId> DependencyDag::frontier() const {
  std::unordered_set<VertexId> members;
  for (const auto& [array, track] : per_array_) {
    (void)array;
    if (track.last_writer != kNoVertex) members.insert(track.last_writer);
    members.insert(track.readers_since_write.begin(), track.readers_since_write.end());
  }
  std::vector<VertexId> out(members.begin(), members.end());
  std::sort(out.begin(), out.end());
  return out;
}

bool DependencyDag::is_ancestor(VertexId ancestor, VertexId v) const {
  GROUT_REQUIRE(ancestor < vertices_.size() && v < vertices_.size(), "unknown vertex");
  if (ancestor >= v) return false;  // edges only point forward in insertion order
  // DFS along direct ancestors over the epoch-stamped scratch: no per-call
  // allocation, and vertex ids are insertion-ordered so the search space is
  // bounded by the ancestry between `ancestor` and `v`.
  const std::uint64_t epoch = ++epoch_;
  dfs_stack_.clear();
  dfs_stack_.push_back(v);
  while (!dfs_stack_.empty()) {
    const VertexId cur = dfs_stack_.back();
    dfs_stack_.pop_back();
    for (const VertexId a : packed_ancestors(cur)) {
      if (a == ancestor) return true;
      if (a > ancestor && visited_epoch_[a] != epoch) {
        visited_epoch_[a] = epoch;
        dfs_stack_.push_back(a);
      }
    }
  }
  return false;
}

bool DependencyDag::edges_respect_insertion_order() const {
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    for (const VertexId a : vertices_[v].ancestors) {
      if (a >= v) return false;
    }
  }
  return true;
}

std::string DependencyDag::to_dot(
    const std::function<std::string(VertexId)>& node_annotation) const {
  std::string dot = "digraph ces {\n  rankdir=TB;\n  node [shape=circle, fontsize=10];\n";
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    dot += "  n" + std::to_string(v) + " [label=\"" + vertices_[v].label;
    if (node_annotation) {
      const std::string extra = node_annotation(v);
      if (!extra.empty()) dot += "\\n" + extra;
    }
    dot += "\"];\n";
  }
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    for (const VertexId a : vertices_[v].ancestors) {
      dot += "  n" + std::to_string(a) + " -> n" + std::to_string(v) + ";\n";
    }
  }
  dot += "}\n";
  return dot;
}

std::vector<VertexId> DependencyDag::filter_redundant(std::vector<VertexId> candidates) const {
  if (candidates.size() <= 1) return candidates;
  // One multi-source reverse DFS replaces the old pairwise is_ancestor
  // probes: every vertex reachable from a candidate via >= 1 edge is
  // marked, and a marked candidate is dominated (waiting on the candidate
  // that reached it transitively waits on the marked one). Edges point
  // strictly backward in insertion order, so no walk can re-enter its own
  // source, and everything below the smallest candidate is pruned — the
  // cost is bounded by the edges between that candidate and the insertion
  // point, not by the DAG's size.
  const VertexId floor = candidates.front();  // callers pass sorted ids
  const std::uint64_t epoch = ++epoch_;
  dfs_stack_.clear();
  for (const VertexId c : candidates) {
    for (const VertexId a : packed_ancestors(c)) {
      if (a >= floor && visited_epoch_[a] != epoch) {
        visited_epoch_[a] = epoch;
        dfs_stack_.push_back(a);
      }
    }
  }
  while (!dfs_stack_.empty()) {
    const VertexId cur = dfs_stack_.back();
    dfs_stack_.pop_back();
    for (const VertexId a : packed_ancestors(cur)) {
      if (a >= floor && visited_epoch_[a] != epoch) {
        visited_epoch_[a] = epoch;
        dfs_stack_.push_back(a);
      }
    }
  }
  std::vector<VertexId> kept;
  kept.reserve(candidates.size());
  for (const VertexId c : candidates) {
    if (visited_epoch_[c] != epoch) kept.push_back(c);
  }
  return kept;
}

}  // namespace grout::dag
