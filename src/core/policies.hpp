// Inter-node scheduling policies (Section IV-D / Figure 4).
//
// Offline (workload-oblivious) policies:
//   round-robin  — next node each CE, circular.
//   vector-step  — user-provided vector of CE counts per node.
// Online (data-aware) policies:
//   min-transfer-size — node minimizing bytes to move.
//   min-transfer-time — node minimizing estimated transfer time, using the
//                       interconnection bandwidth matrix probed at startup.
//
// The online policies carry an exploration-vs-exploitation threshold
// (Section V-E): a node is only *viable* for exploitation when it already
// holds at least `threshold` of the CE's input bytes; with no viable node
// the policy falls back to round-robin (exploration).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "core/directory.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"

namespace grout::core {

enum class PolicyKind : std::uint8_t {
  RoundRobin,
  VectorStep,
  MinTransferSize,
  MinTransferTime,
};

const char* to_string(PolicyKind k);

enum class ExplorationLevel : std::uint8_t { Low, Medium, High };

const char* to_string(ExplorationLevel e);

/// Up-to-date-data threshold for each exploration level: the paper's
/// 0.25 / 0.50 / 0.75.
double exploration_threshold(ExplorationLevel e);

/// One CE parameter as the node-level scheduler sees it.
struct PlacementParam {
  GlobalArrayId array{0};
  Bytes bytes{0};
  bool needs_data{true};  ///< false for pure outputs: no inbound transfer
};

/// Everything a policy may consult when placing a CE.
struct PlacementQuery {
  const std::vector<PlacementParam>* params{nullptr};
  const CoherenceDirectory* directory{nullptr};
  const net::NetworkFabric* fabric{nullptr};  ///< may be null for static policies
  std::size_t workers{0};
  /// Resident replica bytes per worker (the memory governor's accounting;
  /// null = untracked) and the per-worker budget (0 = unbounded). Together
  /// they drive the capacity admission check.
  const std::vector<Bytes>* resident{nullptr};
  Bytes mem_budget{0};
  /// Out-param (may be null): a min-transfer policy sets it when the
  /// placement came from the exploration fallback instead of exploitation —
  /// how a worker with no resident data attracts its first CE. The
  /// runtime surfaces the count as SchedulerMetrics::exploration_placements.
  bool* explored{nullptr};
};

/// Capacity admission check: true when placing the CE on `w` keeps its
/// replica cache within budget (estimated from the directory: every param
/// the worker does not already hold must be allocated there). Mirrors the
/// exploration viability threshold, but for capacity. Always true when no
/// governor accounting is present. Policies *prefer* admissible workers;
/// when no worker is admissible the CE still runs somewhere and the
/// governor evicts to make room.
bool placement_admissible(const PlacementQuery& q, std::size_t w);

/// Best bandwidth into worker `w` from an up-to-date copy: the highest
/// entry of the fabric's bandwidth matrix into `w` from the controller, if
/// it holds a copy, or from any worker holder. The diagonal entry is 0, so
/// `w`'s own copy never counts. 0 when no other location holds a copy.
inline double best_source_bps(const LocationSet& holders, const net::NetworkFabric& fabric,
                              std::size_t w) {
  const double* matrix = fabric.bandwidth_matrix().data();
  const std::size_t n = fabric.node_count();
  const auto into = [&](net::NodeId from) {
    return matrix[static_cast<std::size_t>(from) * n +
                  static_cast<std::size_t>(net::worker_node_id(w))];
  };
  double best = holders.controller() ? into(net::controller_node_id()) : 0.0;
  holders.for_each_worker(
      [&](const std::size_t s) { best = std::max(best, into(net::worker_node_id(s))); });
  return best;
}

class InterNodePolicy {
 public:
  virtual ~InterNodePolicy() = default;

  /// Pick the worker index a CE should run on.
  virtual std::size_t assign(const PlacementQuery& q) = 0;

  [[nodiscard]] virtual PolicyKind kind() const = 0;
};

class RoundRobinPolicy final : public InterNodePolicy {
 public:
  std::size_t assign(const PlacementQuery& q) override;
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::RoundRobin; }

 private:
  std::size_t cursor_{0};
};

class VectorStepPolicy final : public InterNodePolicy {
 public:
  explicit VectorStepPolicy(std::vector<std::uint32_t> steps);
  std::size_t assign(const PlacementQuery& q) override;
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::VectorStep; }

 private:
  std::vector<std::uint32_t> steps_;
  std::size_t step_index_{0};    ///< which vector entry is active
  std::uint32_t step_count_{0};  ///< CEs already assigned under that entry
  std::size_t node_cursor_{0};
};

class MinTransferPolicy final : public InterNodePolicy {
 public:
  /// `by_time` selects min-transfer-time; otherwise min-transfer-size.
  /// `threshold` is the viability threshold in [0, 1].
  MinTransferPolicy(bool by_time, double threshold);
  std::size_t assign(const PlacementQuery& q) override;
  [[nodiscard]] PolicyKind kind() const override {
    return by_time_ ? PolicyKind::MinTransferTime : PolicyKind::MinTransferSize;
  }

 private:
  bool by_time_;
  double threshold_;
  std::size_t rr_cursor_{0};  ///< exploration fallback state
  /// Per-worker bytes of the CE's inputs already held there; scratch
  /// reused across assign() calls.
  std::vector<Bytes> avail_bytes_;
};

/// Factory covering every policy.
/// `threshold` is the min-transfer policies' viability threshold.
std::unique_ptr<InterNodePolicy> make_policy(
    PolicyKind kind, std::vector<std::uint32_t> step_vector = {1},
    double threshold = exploration_threshold(ExplorationLevel::Medium));

}  // namespace grout::core
