#include "core/policies.hpp"

#include <algorithm>
#include <limits>

namespace grout::core {

namespace {

/// Round-robin preferring admissible workers; falls back to the cursor's
/// worker when the budget would be exceeded everywhere (the CE must run
/// somewhere — the governor evicts to make room after placement).
std::size_t next_placement_rr(const PlacementQuery& q, std::size_t& cursor) {
  for (std::size_t tried = 0; tried < q.workers; ++tried) {
    const std::size_t node = (cursor + tried) % q.workers;
    if (placement_admissible(q, node)) {
      cursor = (node + 1) % q.workers;
      return node;
    }
  }
  const std::size_t node = cursor;
  cursor = (cursor + 1) % q.workers;
  return node;
}

/// Estimated time to move the CE inputs worker `w` lacks, each from its
/// best source, summed in param order.
double transfer_seconds(const PlacementQuery& q, std::size_t w) {
  double seconds = 0.0;
  for (const PlacementParam& p : *q.params) {
    if (!p.needs_data) continue;
    const LocationSet& holders = q.directory->holders(p.array);
    if (holders.worker(w)) continue;
    seconds += static_cast<double>(p.bytes) / best_source_bps(holders, *q.fabric, w);
  }
  return seconds;
}

}  // namespace

bool placement_admissible(const PlacementQuery& q, std::size_t w) {
  if (q.params == nullptr || q.directory == nullptr) return true;
  if (q.mem_budget == 0 || q.resident == nullptr || w >= q.resident->size()) return true;
  Bytes incoming = 0;
  for (const PlacementParam& p : *q.params) {
    // Outputs allocate on the worker too, so needs_data does not matter;
    // holding an up-to-date copy is the directory-level proxy for "already
    // allocated there".
    if (!q.directory->holders(p.array).worker(w)) incoming += p.bytes;
  }
  return (*q.resident)[w] + incoming <= q.mem_budget;
}

const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::RoundRobin: return "round-robin";
    case PolicyKind::VectorStep: return "vector-step";
    case PolicyKind::MinTransferSize: return "min-transfer-size";
    case PolicyKind::MinTransferTime: return "min-transfer-time";
  }
  return "?";
}

const char* to_string(ExplorationLevel e) {
  switch (e) {
    case ExplorationLevel::Low: return "low";
    case ExplorationLevel::Medium: return "medium";
    case ExplorationLevel::High: return "high";
  }
  return "?";
}

double exploration_threshold(ExplorationLevel e) {
  switch (e) {
    case ExplorationLevel::Low: return 0.25;
    case ExplorationLevel::Medium: return 0.50;
    case ExplorationLevel::High: return 0.75;
  }
  return 0.50;
}

// ---------------------------------------------------------------------------
// Round-robin
// ---------------------------------------------------------------------------

std::size_t RoundRobinPolicy::assign(const PlacementQuery& q) {
  GROUT_REQUIRE(q.workers > 0, "no workers to schedule on");
  return next_placement_rr(q, cursor_);
}

// ---------------------------------------------------------------------------
// Vector-step
// ---------------------------------------------------------------------------

VectorStepPolicy::VectorStepPolicy(std::vector<std::uint32_t> steps) : steps_{std::move(steps)} {
  GROUT_REQUIRE(!steps_.empty(), "vector-step requires a non-empty vector");
  for (const std::uint32_t s : steps_) {
    GROUT_REQUIRE(s > 0, "vector-step entries must be positive");
  }
}

std::size_t VectorStepPolicy::assign(const PlacementQuery& q) {
  GROUT_REQUIRE(q.workers > 0, "no workers to schedule on");
  // An over-budget node forfeits the remainder of its step budget: skip to
  // the next vector entry and node, but only while some node passes the
  // admission check — the CE must land somewhere.
  bool any_admissible = false;
  for (std::size_t w = 0; w < q.workers; ++w) {
    if (placement_admissible(q, w)) {
      any_admissible = true;
      break;
    }
  }
  for (;;) {
    const std::size_t node = node_cursor_ % q.workers;
    if (!any_admissible || placement_admissible(q, node)) {
      if (++step_count_ >= steps_[step_index_]) {
        step_count_ = 0;
        step_index_ = (step_index_ + 1) % steps_.size();
        ++node_cursor_;
      }
      return node;
    }
    step_count_ = 0;
    step_index_ = (step_index_ + 1) % steps_.size();
    ++node_cursor_;
  }
}

// ---------------------------------------------------------------------------
// Min-transfer-{size,time}
// ---------------------------------------------------------------------------

MinTransferPolicy::MinTransferPolicy(bool by_time, double threshold)
    : by_time_{by_time}, threshold_{threshold} {
  GROUT_REQUIRE(threshold >= 0.0 && threshold <= 1.0, "threshold must be in [0, 1]");
}

std::size_t MinTransferPolicy::assign(const PlacementQuery& q) {
  GROUT_REQUIRE(q.workers > 0, "no workers to schedule on");
  GROUT_REQUIRE(q.params != nullptr && q.directory != nullptr,
                "min-transfer policies need CE parameters and the directory");
  if (by_time_) {
    GROUT_REQUIRE(q.fabric != nullptr, "min-transfer-time needs the bandwidth matrix");
  }

  // One holder-side pass: the CE's input bytes, and how many of them each
  // worker already holds — O(params x holders), so the viability test
  // below is O(1) per worker.
  Bytes total_input = 0;
  avail_bytes_.assign(q.workers, 0);
  for (const PlacementParam& p : *q.params) {
    if (!p.needs_data) continue;
    total_input += p.bytes;
    q.directory->holders(p.array).for_each_worker([&](const std::size_t w) {
      if (w < q.workers) avail_bytes_[w] += p.bytes;
    });
  }

  // Pure-output CEs carry no locality signal: explore.
  if (total_input == 0) {
    if (q.explored != nullptr) *q.explored = true;
    return next_placement_rr(q, rr_cursor_);
  }

  std::size_t best_node = q.workers;  // sentinel: none viable yet
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t w = 0; w < q.workers; ++w) {
    // Exploration heuristic: only nodes already holding enough of the
    // inputs are viable for exploitation.
    const double avail_fraction =
        static_cast<double>(avail_bytes_[w]) / static_cast<double>(total_input);
    if (avail_fraction + 1e-12 < threshold_) continue;
    // Capacity admission: a worker whose post-placement footprint exceeds
    // budget is not viable for exploitation (the fallback still reaches it
    // when every node is over budget).
    if (!placement_admissible(q, w)) continue;
    // Byte sums stay far below 2^53, so the size cost is exact.
    const double cost = by_time_ ? transfer_seconds(q, w)
                                 : static_cast<double>(total_input - avail_bytes_[w]);
    if (cost < best_cost) {
      best_cost = cost;
      best_node = w;
    }
  }

  if (best_node == q.workers) {
    // Nothing viable: fall back to round-robin (exploration).
    if (q.explored != nullptr) *q.explored = true;
    return next_placement_rr(q, rr_cursor_);
  }
  return best_node;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<InterNodePolicy> make_policy(PolicyKind kind,
                                             std::vector<std::uint32_t> step_vector,
                                             double threshold) {
  switch (kind) {
    case PolicyKind::RoundRobin: return std::make_unique<RoundRobinPolicy>();
    case PolicyKind::VectorStep:
      return std::make_unique<VectorStepPolicy>(std::move(step_vector));
    case PolicyKind::MinTransferSize:
      return std::make_unique<MinTransferPolicy>(false, threshold);
    case PolicyKind::MinTransferTime:
      return std::make_unique<MinTransferPolicy>(true, threshold);
  }
  GROUT_CHECK(false, "unhandled policy kind");
  return nullptr;
}

}  // namespace grout::core
