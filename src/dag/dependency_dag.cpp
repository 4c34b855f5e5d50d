#include "dag/dependency_dag.hpp"

#include <algorithm>
#include <bit>
#include <unordered_set>

namespace grout::dag {

VertexId DependencyDag::add(std::string label, std::vector<AccessSummary> accesses) {
  const VertexId v = vertices_.size();

  // Collect conflict ancestors from the per-array frontier state:
  //   read  X -> depends on last writer of X            (RAW)
  //   write X -> depends on last writer (WAW) and on every reader since (WAR)
  std::vector<VertexId> candidates;
  std::vector<LastWriter> writers;
  for (const AccessSummary& a : accesses) {
    GROUT_REQUIRE(a.array != uvm::kInvalidArray, "access to invalid array");
    auto it = per_array_.find(a.array);
    if (it == per_array_.end()) continue;
    const ArrayTrack& track = it->second;
    if (track.last_writer != kNoVertex) {
      candidates.push_back(track.last_writer);
      // The reader list is ascending, so its back is the latest reader; a
      // CE that wrote then read X is its own first reader and reaches
      // nothing through that entry.
      const bool war_dominated = a.write && !track.readers_since_write.empty() &&
                                 track.readers_since_write.back() != track.last_writer;
      writers.push_back(LastWriter{track.last_writer, a.array, war_dominated});
    }
    if (a.write) {
      candidates.insert(candidates.end(), track.readers_since_write.begin(),
                        track.readers_since_write.end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  std::vector<VertexId> ancestors = filter_redundant(std::move(candidates), writers);

  Vertex vertex;
  vertex.label = std::move(label);
  vertex.accesses = accesses;
  vertex.ancestors = ancestors;
  vertices_.push_back(std::move(vertex));
  ancestor_pool_.insert(ancestor_pool_.end(), ancestors.begin(), ancestors.end());
  ancestor_begin_.push_back(ancestor_pool_.size());
  visited_epoch_.push_back(0);
  if (v % 64 == 0) pending_.push_back(0);

  edges_ += ancestors.size();

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

namespace {

/// Append `text` to a double-quoted DOT string, escaping the characters
/// that would end the string or start an escape sequence.
void append_dot_escaped(std::string& dot, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') dot += '\\';
    dot += c;
  }
}

}  // namespace

std::string DependencyDag::to_dot(
    const std::function<std::string(VertexId)>& node_annotation) const {
  std::string dot = "digraph ces {\n  rankdir=TB;\n  node [shape=circle, fontsize=10];\n";
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    dot += "  n" + std::to_string(v) + " [label=\"";
    append_dot_escaped(dot, vertices_[v].label);
    if (node_annotation) {
      const std::string extra = node_annotation(v);
      if (!extra.empty()) {
        dot += "\\n";
        append_dot_escaped(dot, extra);
      }
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

std::vector<VertexId> DependencyDag::filter_redundant(std::vector<VertexId> candidates,
                                                      std::span<const LastWriter> writers) const {
  if (candidates.size() <= 1) return candidates;
  // Marks: `source` tags a candidate still presumed kept; `reached` tags a
  // vertex reachable from some candidate via >= 1 edge (a reached
  // candidate is dominated: waiting on the one that reached it waits on
  // it transitively). Each vertex enters the walk at most once: sources
  // up front, everything else on the edge that first reaches it.
  epoch_ += 2;
  const std::uint64_t source = epoch_ - 1;
  const std::uint64_t reached = epoch_;
  for (const VertexId c : candidates) visited_epoch_[c] = source;
  for (const LastWriter& w : writers) {
    if (w.dominated) visited_epoch_[w.writer] = reached;
  }
  // The floor is the lowest candidate not yet known dominated. The highest
  // candidate is never dominated (edges point backward), so it exists.
  std::size_t lo = 0;
  while (visited_epoch_[candidates[lo]] == reached) ++lo;
  const bool ordered = std::any_of(writers.begin(), writers.end(), [&](const LastWriter& w) {
    return w.writer == candidates[lo] && !w.dominated;
  });

  if (!ordered) {
    // Plain multi-source reverse DFS over [floor, insertion point).
    const VertexId floor = candidates[lo];
    dfs_stack_.assign(candidates.begin() + static_cast<std::ptrdiff_t>(lo), candidates.end());
    while (!dfs_stack_.empty()) {
      const VertexId cur = dfs_stack_.back();
      dfs_stack_.pop_back();
      for (const VertexId a : packed_ancestors(cur)) {
        if (a < floor || visited_epoch_[a] == reached) continue;
        if (visited_epoch_[a] != source) dfs_stack_.push_back(a);
        visited_epoch_[a] = reached;
      }
    }
  } else {
    // Ordered walk: pending vertices are bits in pending_, and the scan
    // moves down word by word, so vertices pop in descending id order and
    // once the highest pending one falls to the floor nothing left can
    // reach a candidate at or above it. Every vertex is pushed below the
    // one being expanded, so the scan never moves back up. A writer marked
    // by the shortcut stays pending and is still expanded: a lower
    // candidate may be reachable only through it. dfs_stack_ logs the
    // pushes so the bits left behind can be cleared.
    dfs_stack_.clear();
    const auto push = [&](VertexId a) {
      pending_[a >> 6] |= std::uint64_t{1} << (a & 63);
      dfs_stack_.push_back(a);
    };
    for (std::size_t i = lo; i < candidates.size(); ++i) push(candidates[i]);
    std::size_t word = candidates.back() >> 6;
    for (;;) {
      while (pending_[word] == 0 && (word << 6) > candidates[lo]) --word;
      if (pending_[word] == 0) break;
      const VertexId cur = (word << 6) | (63 - std::countl_zero(pending_[word]));
      if (cur <= candidates[lo]) break;
      pending_[word] &= ~(std::uint64_t{1} << (cur & 63));
      for (const LastWriter& w : writers) {
        if (w.writer < cur && visited_epoch_[w.writer] != reached && touches(cur, w.array)) {
          visited_epoch_[w.writer] = reached;
        }
      }
      for (const VertexId a : packed_ancestors(cur)) {
        if (a < candidates[lo] || visited_epoch_[a] == reached) continue;
        if (visited_epoch_[a] != source) push(a);
        visited_epoch_[a] = reached;
      }
      while (visited_epoch_[candidates[lo]] == reached) ++lo;
    }
    for (const VertexId a : dfs_stack_) pending_[a >> 6] = 0;
  }

  std::vector<VertexId> kept;
  kept.reserve(candidates.size());
  for (const VertexId c : candidates) {
    if (visited_epoch_[c] != reached) kept.push_back(c);
  }
  return kept;
}

}  // namespace grout::dag
