// Differential tests: MinTransferPolicy (one holder-side pass for the
// per-worker available bytes, then one candidate scan that reads the
// fabric's bandwidth matrix in place) against the original
// per-candidate-worker implementation kept in tests/support/naive_oracles.hpp.
//
// Both policies are stateful (the exploration fallback advances a
// round-robin cursor), so equivalence is asserted over whole query
// *sequences*: any divergence desynchronizes the cursors and shows up in
// later picks too.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/policies.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "tests/support/naive_oracles.hpp"

namespace grout::core {
namespace {

struct Scenario {
  explicit Scenario(std::uint64_t seed, std::size_t workers, std::size_t arrays = 24)
      : rng{seed}, directory{workers}, workers_count{workers} {
    std::vector<net::NicSpec> nics;
    nics.push_back(net::NicSpec{"controller", Bandwidth::mbit_per_sec(8000.0),
                                SimTime::from_us(50.0)});
    for (std::size_t i = 0; i < workers; ++i) {
      // Heterogeneous NICs so min(src, dst) actually varies.
      const double mbit = 1000.0 + 500.0 * static_cast<double>(rng.next_below(8));
      nics.push_back(net::NicSpec{str_cat("worker", std::to_string(i)),
                                  Bandwidth::mbit_per_sec(mbit), SimTime::from_us(50.0)});
    }
    fabric = std::make_unique<net::NetworkFabric>(sim, std::move(nics));

    for (std::size_t a = 0; a < arrays; ++a) {
      const auto id =
          directory.register_array(64_MiB + a * 16_MiB, str_cat("a", std::to_string(a)));
      const std::size_t copies = rng.next_below(4);
      for (std::size_t c = 0; c < copies; ++c) {
        directory.add_worker_copy(id, rng.next_below(workers));
      }
      if (copies > 0 && rng.next_below(3) == 0) {
        // Sometimes the controller copy is stale (a worker wrote last).
        directory.written_on_worker(id, rng.next_below(workers));
      }
    }
  }

  /// Give random links random bandwidths.
  void scramble_links(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto a = static_cast<net::NodeId>(rng.next_below(workers_count + 1));
      const auto b = static_cast<net::NodeId>(rng.next_below(workers_count + 1));
      if (a == b) continue;
      fabric->set_link_override(a, b, Bandwidth::mbit_per_sec(200.0 + 400.0 * rng.next_below(6)));
    }
  }

  /// An idle step taking one draw per worker: it keeps each seed's later
  /// link scrambles and queries fixed.
  void idle_roll() {
    for (std::size_t w = 0; w < workers_count; ++w) (void)rng.next_below(4);
  }

  std::vector<PlacementParam> random_params() {
    std::vector<PlacementParam> params;
    const std::size_t n = 1 + rng.next_below(5);
    for (std::size_t i = 0; i < n; ++i) {
      const auto array = static_cast<GlobalArrayId>(rng.next_below(directory.array_count()));
      params.push_back(
          PlacementParam{array, directory.bytes_of(array), rng.next_below(5) != 0});
    }
    return params;
  }

  PlacementQuery query(const std::vector<PlacementParam>& params) {
    PlacementQuery q;
    q.params = &params;
    q.directory = &directory;
    q.fabric = fabric.get();
    q.workers = workers_count;
    if (!resident.empty()) {
      q.resident = &resident;
      q.mem_budget = mem_budget;
    }
    return q;
  }

  Rng rng;
  sim::Simulator sim;
  CoherenceDirectory directory;
  std::unique_ptr<net::NetworkFabric> fabric;
  std::vector<Bytes> resident;
  Bytes mem_budget{0};
  std::size_t workers_count;
};

void directory_mutate(Scenario& s) {
  const auto id = static_cast<GlobalArrayId>(s.rng.next_below(s.directory.array_count()));
  const std::size_t w = s.rng.next_below(s.workers_count);
  if (s.rng.next_below(2) == 0) {
    s.directory.written_on_worker(id, w);
  } else {
    s.directory.add_worker_copy(id, w);
  }
}

void run_differential(std::uint64_t seed, std::size_t workers, bool by_time, double threshold,
                      bool scramble, bool with_budget, std::size_t queries = 400) {
  Scenario s(seed, workers);
  if (scramble) {
    s.scramble_links(workers);
    s.idle_roll();
  }
  if (with_budget) {
    s.resident.assign(workers, 0);
    for (std::size_t w = 0; w < workers; ++w) {
      s.resident[w] = s.rng.next_below(2) ? 0 : 4_GiB;
    }
    s.mem_budget = 4_GiB + 256_MiB;
  }

  MinTransferPolicy fast(by_time, threshold);
  oracle::OracleMinTransferPolicy naive(by_time, threshold);

  for (std::size_t i = 0; i < queries; ++i) {
    const std::vector<PlacementParam> params = s.random_params();
    const PlacementQuery q = s.query(params);
    const std::size_t expected = naive.assign(q);
    const std::size_t got = fast.assign(q);
    ASSERT_EQ(got, expected) << "placement diverges at query " << i << " (workers=" << workers
                             << ", by_time=" << by_time << ", threshold=" << threshold << ")";
    // Mutate the world between queries like the runtime would.
    if (s.rng.next_below(4) == 0) {
      directory_mutate(s);
    }
    if (scramble && s.rng.next_below(32) == 0) {
      s.scramble_links(2);
    }
  }
}

class PolicyDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool, double>> {};

TEST_P(PolicyDifferential, CleanCluster) {
  const auto [workers, by_time, threshold] = GetParam();
  run_differential(0xc0ffee ^ workers, workers, by_time, threshold, false, false);
}

// Workers never die and links never go down: this case only scrambles link
// bandwidths. The name is kept so the 36 grid test ids stay stable.
TEST_P(PolicyDifferential, WithDeadWorkersAndZeroBandwidthLinks) {
  const auto [workers, by_time, threshold] = GetParam();
  run_differential(0xdead ^ workers, workers, by_time, threshold, true, false);
}

TEST_P(PolicyDifferential, WithMemoryBudget) {
  const auto [workers, by_time, threshold] = GetParam();
  run_differential(0xb1d6e7 ^ workers, workers, by_time, threshold, true, true);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PolicyDifferential,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 8, 17, 64),
                       ::testing::Bool(),  // by_time: size and time variants
                       // The three exploration levels' thresholds.
                       ::testing::Values(exploration_threshold(ExplorationLevel::Low),
                                         exploration_threshold(ExplorationLevel::Medium),
                                         exploration_threshold(ExplorationLevel::High))));

TEST(PolicyDifferential, LargeClusterSpotCheck) {
  run_differential(0x256, 256, true, exploration_threshold(ExplorationLevel::Medium), true,
                   false, 100);
  run_differential(0x257, 256, false, exploration_threshold(ExplorationLevel::High), true,
                   true, 100);
}

TEST(PolicyDifferential, PureOutputCeFallsBackIdentically) {
  Scenario s(0xfee1, 8);
  MinTransferPolicy fast(true, 0.5);
  oracle::OracleMinTransferPolicy naive(true, 0.5);
  std::vector<PlacementParam> params{PlacementParam{0, 1_GiB, false}};
  for (int i = 0; i < 32; ++i) {
    const PlacementQuery q = s.query(params);
    ASSERT_EQ(fast.assign(q), naive.assign(q));
  }
}

// Thresholds the grid does not sample: the extremes (0 admits every worker,
// 1 only a worker holding every input) and the ends of abl_exploration's
// sweep (0.05 and 0.95).
TEST(PolicyDifferential, ThresholdEdges) {
  for (const double threshold : {0.0, 0.05, 0.95, 1.0}) {
    for (const std::size_t workers : {std::size_t{2}, std::size_t{17}, std::size_t{256}}) {
      for (const bool by_time : {false, true}) {
        run_differential(0xed9e ^ workers, workers, by_time, threshold, true, true,
                         workers == 256 ? 100 : 400);
      }
    }
  }
}

}  // namespace
}  // namespace grout::core
