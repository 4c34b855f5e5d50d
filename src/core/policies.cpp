#include "core/policies.hpp"

#include <algorithm>
#include <limits>

#include "net/topology.hpp"

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

  Bytes total_input = 0;
  for (const PlacementParam& p : *q.params) {
    if (p.needs_data) total_input += p.bytes;
  }

  // Pure-output CEs carry no locality signal: explore.
  if (total_input == 0) {
    if (q.explored != nullptr) *q.explored = true;
    return next_placement_rr(q, rr_cursor_);
  }

  // Per-CE precompute, hoisted out of the candidate-worker loop: each input
  // param's holder set once, and (for min-transfer-time) its best-source
  // bandwidth per destination worker — rows of the fabric's dense matrix
  // max-combined over the holders. The candidate scan below is then
  // O(workers x params) flat-array work instead of O(workers x params x
  // holders) hash-probing allocations per worker.
  input_params_.clear();
  holder_sets_.clear();
  for (const PlacementParam& p : *q.params) {
    if (!p.needs_data) continue;
    input_params_.push_back(&p);
    holder_sets_.push_back(&q.directory->holders(p.array));
  }
  if (by_time_) {
    const std::vector<double>& matrix = q.fabric->bandwidth_matrix();
    const std::size_t nodes = q.fabric->node_count();
    best_bps_.assign(input_params_.size() * q.workers, 0.0);
    for (std::size_t pi = 0; pi < input_params_.size(); ++pi) {
      const LocationSet& holders = *holder_sets_[pi];
      double* row = best_bps_.data() + pi * q.workers;
      if (holders.controller()) {
        const double* src =
            matrix.data() + static_cast<std::size_t>(net::controller_node_id()) * nodes;
        for (std::size_t w = 0; w < q.workers; ++w) {
          row[w] = src[static_cast<std::size_t>(net::worker_node_id(w))];
        }
      }
      // Fabric ids come from net/topology.hpp — the one mapping the whole
      // stack shares (Cluster::worker_fabric_id delegates to it too).
      holders.for_each_worker([&](const std::size_t src) {
        const double* srow =
            matrix.data() + static_cast<std::size_t>(net::worker_node_id(src)) * nodes;
        for (std::size_t w = 0; w < q.workers; ++w) {
          row[w] = std::max(row[w], srow[static_cast<std::size_t>(net::worker_node_id(w))]);
        }
      });
    }
  } else {
    // Size variant: accumulate each worker's already-resident input bytes
    // holder-side — O(params x holders) — so the candidate scan below is
    // O(1) per worker. The sums are integers, so `total_input - avail`
    // below is bit-identical to summing the missing params' bytes in
    // param order as the original implementation did.
    avail_bytes_.assign(q.workers, 0);
    for (std::size_t pi = 0; pi < input_params_.size(); ++pi) {
      const Bytes bytes = input_params_[pi]->bytes;
      holder_sets_[pi]->for_each_worker([&](const std::size_t w) {
        if (w < q.workers) avail_bytes_[w] += bytes;
      });
    }
  }

  std::size_t best_node = q.workers;  // sentinel: none viable yet
  if (by_time_) {
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t w = 0; w < q.workers; ++w) {
      // Capacity admission: a worker whose post-placement footprint
      // exceeds budget is not viable for exploitation (the fallback still
      // reaches it when every node is over budget).
      if (!placement_admissible(q, w)) continue;
      Bytes available = 0;
      double cost = 0.0;
      for (std::size_t pi = 0; pi < input_params_.size(); ++pi) {
        const PlacementParam& p = *input_params_[pi];
        if (holder_sets_[pi]->worker(w)) {
          available += p.bytes;
          continue;
        }
        cost += static_cast<double>(p.bytes) / best_bps_[pi * q.workers + w];
      }
      // Exploration heuristic: only nodes already holding enough of the
      // inputs are viable for exploitation.
      const double avail_fraction =
          static_cast<double>(available) / static_cast<double>(total_input);
      if (avail_fraction + 1e-12 < threshold_) continue;
      if (cost < best_cost) {
        best_cost = cost;
        best_node = w;
      }
    }
  } else {
    // The viability check `avail/total + 1e-12 < threshold` is monotone in
    // the (integer) available bytes, so its cutover point can be found
    // once per CE by binary search over the identical float expression —
    // viability per worker is then one integer compare, bit-equivalent to
    // evaluating the float check per worker. Likewise minimizing cost =
    // double(total - avail) (exact: the sums stay far below 2^53) with
    // first-minimum-wins equals maximizing avail with first-maximum-wins.
    const auto viable = [&](Bytes avail) {
      return !(static_cast<double>(avail) / static_cast<double>(total_input) + 1e-12 <
               threshold_);
    };
    Bytes lo = 0;
    Bytes hi = total_input;  // avail_fraction 1.0 is always viable
    // The cutover sits within a couple of bytes of threshold x total (the
    // float error of the expression is far below one byte), so try a
    // +/-4-byte window first; when the window brackets the cutover the
    // search needs ~3 probes instead of ~log2(total). The window test uses
    // the exact predicate, so a miss just falls back to the full range.
    const double guess = threshold_ * static_cast<double>(total_input);
    if (guess > 8.0 && guess + 8.0 < static_cast<double>(total_input)) {
      const Bytes g = static_cast<Bytes>(guess);
      if (!viable(g - 4) && viable(g + 4)) {
        lo = g - 3;
        hi = g + 4;
      }
    }
    while (lo < hi) {
      const Bytes mid = lo + (hi - lo) / 2;
      if (viable(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const Bytes min_avail = lo;
    Bytes best_avail = 0;
    for (std::size_t w = 0; w < q.workers; ++w) {
      if (!placement_admissible(q, w)) continue;
      const Bytes available = avail_bytes_[w];
      if (available < min_avail) continue;
      if (best_node == q.workers || available > best_avail) {
        best_avail = available;
        best_node = w;
      }
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
