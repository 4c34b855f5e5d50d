#include "dag/dependency_dag.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/strings.hpp"

namespace grout::dag {

VertexId DependencyDag::add(std::string_view label, const std::vector<AccessSummary>& accesses) {
  const VertexId v = size();

  // Grow the table over every accessed id first: the loops below hold
  // references into it, which a resize would invalidate.
  for (const AccessSummary& a : accesses) {
    GROUT_REQUIRE(a.array != uvm::kInvalidArray, "access to invalid array");
    if (a.array >= per_array_.size()) per_array_.resize(std::size_t{a.array} + 1);
  }

  // Collect conflict ancestors from the per-array frontier state:
  //   read  X -> depends on last writer of X            (RAW)
  //   write X -> depends on last writer (WAW) and on every reader since (WAR)
  candidates_.clear();
  writers_.clear();
  for (const AccessSummary& a : accesses) {
    const ArrayTrack& track = per_array_[a.array];
    if (track.last_writer != kNoVertex) {
      candidates_.push_back(track.last_writer);
      // The reader list is ascending, so its back is the latest reader; a
      // CE that wrote then read X is its own first reader and reaches
      // nothing through that entry.
      const bool war_dominated = a.write && !track.readers_since_write.empty() &&
                                 track.readers_since_write.back() != track.last_writer;
      writers_.push_back(LastWriter{track.last_writer, a.array, war_dominated});
    }
    if (a.write) {
      candidates_.insert(candidates_.end(), track.readers_since_write.begin(),
                         track.readers_since_write.end());
    }
  }
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()), candidates_.end());

  // v's slot last held vertex v - kReachWindow's set, which no candidate
  // window reaches any more, so the union is built in place.
  if (reach_ring_.size() < kReachWindow) reach_ring_.emplace_back();
  ReachBits& reach = reach_ring_[v % kReachWindow];
  filter_redundant(candidates_, writers_, v, reach, kept_);
  for (const VertexId c : candidates_) {
    if (v - c <= kReachWindow) reach[(v - c - 1) / 64] |= std::uint64_t{1} << ((v - c - 1) % 64);
  }

  ancestor_pool_.insert(ancestor_pool_.end(), kept_.begin(), kept_.end());
  access_pool_.insert(access_pool_.end(), accesses.begin(), accesses.end());
  label_pool_.append(label);
  constexpr std::size_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();
  GROUT_CHECK(ancestor_pool_.size() <= kMaxOffset && access_pool_.size() <= kMaxOffset &&
                  label_pool_.size() <= kMaxOffset,
              "DAG pool outgrew its 32-bit offsets");
  runs_.push_back(Runs{static_cast<std::uint32_t>(ancestor_pool_.size()),
                       static_cast<std::uint32_t>(access_pool_.size()),
                       static_cast<std::uint32_t>(label_pool_.size())});
  visited_epoch_.push_back(0);
  if (v % 64 == 0) pending_.push_back(0);

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
        ReachBits reach_union{};  // filled by filter_redundant, then unused
        filter_redundant(track.readers_since_write, {}, v + 1, reach_union, kept_);
        track.readers_since_write.assign(kept_.begin(), kept_.end());
        track.reader_compact_at =
            std::max(kReaderCompactMin, 2 * track.readers_since_write.size());
      }
    }
  }
  return v;
}

std::vector<VertexId> DependencyDag::frontier() const {
  std::vector<VertexId> out;
  for (const ArrayTrack& track : per_array_) {
    if (track.last_writer != kNoVertex) out.push_back(track.last_writer);
    out.insert(out.end(), track.readers_since_write.begin(), track.readers_since_write.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool DependencyDag::is_ancestor(VertexId ancestor, VertexId v) const {
  GROUT_REQUIRE(ancestor < size() && v < size(), "unknown vertex");
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
  for (VertexId v = 0; v < size(); ++v) {
    for (const VertexId a : packed_ancestors(v)) {
      if (a >= v) return false;
    }
  }
  return true;
}

namespace {

/// Append `text` to a double-quoted DOT string, escaping the characters
/// that would end the string or start an escape sequence.
void append_dot_escaped(std::string& dot, std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') dot += '\\';
    dot += c;
  }
}

}  // namespace

std::string DependencyDag::to_dot(
    const std::function<std::string(VertexId)>& node_annotation) const {
  std::string dot = "digraph ces {\n  rankdir=TB;\n  node [shape=circle, fontsize=10];\n";
  for (VertexId v = 0; v < size(); ++v) {
    dot += str_cat("  n", std::to_string(v), " [label=\"");
    append_dot_escaped(dot, packed_label(v));
    if (node_annotation) {
      const std::string extra = node_annotation(v);
      if (!extra.empty()) {
        dot += "\\n";
        append_dot_escaped(dot, extra);
      }
    }
    dot += "\"];\n";
  }
  for (VertexId v = 0; v < size(); ++v) {
    for (const VertexId a : packed_ancestors(v)) {
      dot += str_cat("  n", std::to_string(a), " -> n", std::to_string(v), ";\n");
    }
  }
  dot += "}\n";
  return dot;
}

void DependencyDag::filter_redundant(std::span<const VertexId> candidates,
                                     std::span<const LastWriter> writers, VertexId base,
                                     ReachBits& reach, std::vector<VertexId>& kept) const {
  // Union of the candidates' reach sets, moved from each candidate's own
  // frame to `base`'s (a shift by their distance; bits past the window
  // drop off). A vertex x in the window is reachable from some candidate
  // exactly when bit base - x - 1 is set: any path between two vertices
  // in the window stays in it.
  constexpr std::size_t kWords = kReachWindow / 64;
  reach.fill(0);
  for (const VertexId c : candidates) {
    const VertexId shift = base - c;
    if (shift >= kReachWindow) continue;
    const ReachBits& from = reach_ring_[c % kReachWindow];
    const std::size_t words = shift / 64;
    const std::size_t bits = shift % 64;
    for (std::size_t i = words; i < kWords; ++i) reach[i] |= from[i - words] << bits;
    if (bits == 0) continue;
    for (std::size_t i = words + 1; i < kWords; ++i) reach[i] |= from[i - words - 1] >> (64 - bits);
  }
  const auto in_reach = [&](VertexId x) {
    const VertexId d = base - x;
    return d <= kReachWindow && ((reach[(d - 1) / 64] >> ((d - 1) % 64)) & 1) != 0;
  };

  kept.clear();
  if (candidates.size() <= 1) {
    kept.assign(candidates.begin(), candidates.end());
    return;
  }
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
  for (const VertexId c : candidates) {
    if (in_reach(c)) visited_epoch_[c] = reached;
  }
  // The floor is the lowest candidate not yet known dominated. The highest
  // candidate is never dominated (edges point backward), so it exists.
  // With the floor in the window every candidate is decided: no walk.
  std::size_t lo = 0;
  while (visited_epoch_[candidates[lo]] == reached) ++lo;
  const bool walk = base - candidates[lo] > kReachWindow;
  const bool ordered =
      walk && std::any_of(writers.begin(), writers.end(), [&](const LastWriter& w) {
        return w.writer == candidates[lo] && !w.dominated;
      });

  if (walk && !ordered) {
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
  } else if (ordered) {
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

  for (const VertexId c : candidates) {
    if (visited_epoch_[c] != reached) kept.push_back(c);
  }
}

}  // namespace grout::dag
