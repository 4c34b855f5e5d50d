// Differential test: MemoryGovernor's victim choice against the original
// per-eviction scan (oracle::NaiveGovernor, tests/support/naive_oracles.hpp).
//
// The governor ranks a worker's replicas from one contiguous table, reads
// the bandwidth matrix in place, takes the CE's params as its keep set and
// evicts a whole make_room/enforce round from one ranking. None of that may
// change a victim. Both implementations run side by side on one cluster
// (shared clock and fabric) with one directory each, driven by the same
// randomized ensure/use/pin/unpin, shared-write, host-write and
// link-override sequence over tenant-owned arrays. Single
// evictions are compared victim by victim; multi-eviction rounds by the
// set they evicted, and every state by the replicas each worker holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/memory_governor.hpp"
#include "tests/support/naive_oracles.hpp"

namespace grout::core {
namespace {

constexpr Bytes kBudget = 8_MiB;
constexpr std::size_t kArrays = 24;

cluster::ClusterConfig small_cluster(std::size_t workers) {
  cluster::ClusterConfig cfg;
  cfg.workers = workers;
  cfg.worker_node.gpu_count = 1;
  cfg.worker_node.device.memory = 8_MiB;
  cfg.worker_node.tuning.page_size = 1_MiB;
  return cfg;
}

struct Coverage {
  std::size_t single_steps{0};
  std::size_t with_keep{0};
  std::size_t with_tenant{0};
  std::size_t multi_rounds{0};
};

class DifferentialRig {
 public:
  DifferentialRig(std::uint64_t seed, std::size_t workers)
      : rng_{seed},
        cluster_{small_cluster(workers)},
        real_dir_{workers},
        naive_dir_{workers},
        governor_{cluster_, real_dir_, metrics_, kBudget},
        naive_{cluster_, naive_dir_, kBudget, workers},
        workers_{workers} {
    for (std::size_t i = 0; i < kArrays; ++i) {
      const Bytes bytes = (1 + rng_.next_below(3)) * 1_MiB;
      const std::string name = str_cat("a", std::to_string(i));
      const GlobalArrayId id = real_dir_.register_array(bytes, name);
      EXPECT_EQ(naive_dir_.register_array(bytes, name), id);
      // Two arrays in three belong to one of three tenants; the rest are
      // shared.
      const std::uint64_t roll = rng_.next_below(3);
      if (roll < 2) {
        const auto tenant = static_cast<TenantId>(rng_.next_below(3));
        governor_.set_array_owner(id, tenant);
        naive_.set_array_owner(id, tenant);
      }
    }
  }

  void run(std::size_t steps, Coverage& cov) {
    for (std::size_t step = 0; step < steps; ++step) {
      const std::uint64_t op = rng_.next_below(100);
      const std::size_t w = rng_.next_below(workers_);
      if (op < 30) {
        ensure(w, random_array());
      } else if (op < 38) {
        advance_time();
      } else if (op < 46) {
        if (const auto id = random_resident(w)) pin(w, *id);
      } else if (op < 54) {
        unpin_random();
      } else if (op < 62) {
        if (const auto id = random_resident(w)) {
          real_dir_.written_on_worker(*id, w);
          naive_dir_.written_on_worker(*id, w);
          governor_.release_spilled(*id);
        }
      } else if (op < 66) {
        const GlobalArrayId id = random_array();
        real_dir_.written_on_controller(id);
        naive_dir_.written_on_controller(id);
        governor_.release_spilled(id);
      } else if (op < 82) {
        single_step(w, cov);
      } else if (op < 88) {
        multi_round(w, cov);
      } else if (op < 94) {
        flip_link();
      } else if (op >= 98) {
        governor_.enforce(w);
        naive_.enforce(w);
      }
      // Ops 94-97 are idle steps: both sides only settle and compare.
      settle();
      ASSERT_NO_FATAL_FAILURE(expect_same_state()) << "after step " << step << " (op " << op
                                                   << ")";
    }
  }

 private:
  GlobalArrayId random_array() { return static_cast<GlobalArrayId>(rng_.next_below(kArrays)); }

  std::vector<GlobalArrayId> resident(std::size_t w) const {
    std::vector<GlobalArrayId> ids;
    for (const MemoryGovernor::Replica& r : governor_.replicas(w)) ids.push_back(r.id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  std::optional<GlobalArrayId> random_resident(std::size_t w) {
    const std::vector<GlobalArrayId> ids = resident(w);
    if (ids.empty()) return std::nullopt;
    return ids[rng_.next_below(ids.size())];
  }

  void ensure(std::size_t w, GlobalArrayId id) {
    if (governor_.note_ensure(w, id)) {
      cluster_.worker(w).ensure_array(id, real_dir_.bytes_of(id));
    }
    naive_.note_ensure(w, id);
    governor_.note_use(w, id);
    naive_.note_use(w, id);
    if (rng_.next_below(2) == 0) {
      // The inbound copy landed: the worker is an up-to-date holder too.
      real_dir_.add_worker_copy(id, w);
      naive_dir_.add_worker_copy(id, w);
    }
  }

  void pin(std::size_t w, GlobalArrayId id) {
    governor_.pin(w, id);
    naive_.pin(w, id);
    pins_.emplace_back(w, id);
  }
  void unpin_random() {
    if (pins_.empty()) return;
    const std::size_t i = rng_.next_below(pins_.size());
    const auto [w, id] = pins_[i];
    pins_.erase(pins_.begin() + static_cast<std::ptrdiff_t>(i));
    governor_.unpin(w, id);
    naive_.unpin(w, id);
  }

  void advance_time() {
    const double us = 1.0 + static_cast<double>(rng_.next_below(500));
    cluster_.simulator().schedule_after(SimTime::from_us(us), [] {});
  }

  /// The CE's params: a few of `w`'s replicas (kept) plus one array `w`
  /// does not hold, sized so one eviction makes room when `exact_one`
  /// (`w` must be within budget). Empty when `w` holds every array.
  std::vector<PlacementParam> params_for(std::size_t w, bool exact_one) {
    std::vector<PlacementParam> params;
    const std::size_t kept = rng_.next_below(3);
    for (std::size_t k = 0; k < kept; ++k) {
      if (const auto id = random_resident(w)) {
        params.push_back(PlacementParam{*id, real_dir_.bytes_of(*id), true});
      }
    }
    const std::vector<GlobalArrayId> held = resident(w);
    for (GlobalArrayId id = 0; id < kArrays; ++id) {
      if (std::binary_search(held.begin(), held.end(), id)) continue;
      const Bytes room = governor_.resident_bytes(w) <= kBudget
                             ? kBudget - governor_.resident_bytes(w) + 1
                             : 1;
      params.push_back(PlacementParam{id, exact_one ? room : room + 4_MiB, true});
      return params;
    }
    return {};
  }
  TenantId random_requester() {
    const std::uint64_t r = rng_.next_below(4);
    return r == 3 ? kNoTenant : static_cast<TenantId>(r);
  }

  void single_step(std::size_t w, Coverage& cov) {
    if (governor_.resident_bytes(w) > kBudget) {
      multi_round(w, cov);
      return;
    }
    const std::vector<PlacementParam> params = params_for(w, /*exact_one=*/true);
    if (params.empty()) return;
    const TenantId requester = random_requester();
    const std::optional<GlobalArrayId> predicted = governor_.next_victim(w, params, requester);
    const std::size_t logged = naive_.victims().size();
    const std::vector<GlobalArrayId> before = resident(w);
    governor_.make_room(w, params, requester);
    naive_.make_room(w, params, requester);
    const std::vector<GlobalArrayId> after = resident(w);

    std::vector<GlobalArrayId> evicted;
    std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                        std::back_inserter(evicted));
    ASSERT_LE(evicted.size(), 1u);
    ASSERT_EQ(naive_.victims().size() - logged, evicted.size());
    if (evicted.empty()) {
      EXPECT_FALSE(predicted.has_value());
      return;
    }
    EXPECT_EQ(naive_.victims().back(), std::make_pair(w, evicted.front()));
    EXPECT_EQ(predicted, evicted.front());
    ++cov.single_steps;
    if (params.size() > 1) ++cov.with_keep;  // the last param is the incoming one
    if (requester != kNoTenant) ++cov.with_tenant;
  }

  void multi_round(std::size_t w, Coverage& cov) {
    const std::vector<PlacementParam> params = params_for(w, /*exact_one=*/false);
    const TenantId requester = random_requester();
    const std::size_t logged = naive_.victims().size();
    const std::vector<GlobalArrayId> before = resident(w);
    governor_.make_room(w, params, requester);
    naive_.make_room(w, params, requester);
    const std::vector<GlobalArrayId> after = resident(w);
    std::vector<GlobalArrayId> evicted;
    std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                        std::back_inserter(evicted));
    std::vector<GlobalArrayId> naive_evicted;
    for (std::size_t i = logged; i < naive_.victims().size(); ++i) {
      naive_evicted.push_back(naive_.victims()[i].second);
    }
    std::sort(naive_evicted.begin(), naive_evicted.end());
    EXPECT_EQ(evicted, naive_evicted);
    if (evicted.size() > 1) ++cov.multi_rounds;
  }

  void flip_link() {
    // Any pair among the controller and the workers.
    const std::size_t nodes = workers_ + 1;
    const std::size_t a = rng_.next_below(nodes);
    std::size_t b = rng_.next_below(nodes - 1);
    if (b >= a) ++b;
    const auto fabric_id = [](std::size_t i) {
      return i == 0 ? cluster::Cluster::controller_id() : cluster::Cluster::worker_fabric_id(i - 1);
    };
    const double mbit[] = {1000.0, 2000.0, 4000.0, 8000.0};
    cluster_.fabric().set_link_override(fabric_id(a), fabric_id(b),
                                        Bandwidth::mbit_per_sec(mbit[rng_.next_below(4)]));
  }

  void settle() { cluster_.simulator().run_until(SimTime::max()); }

  void expect_same_state() {
    for (std::size_t w = 0; w < workers_; ++w) {
      ASSERT_EQ(resident(w), naive_.replica_ids(w)) << "replicas diverge on worker " << w;
      ASSERT_EQ(governor_.resident_bytes(w), naive_.resident_bytes(w)) << "worker " << w;
    }
    for (GlobalArrayId id = 0; id < kArrays; ++id) {
      ASSERT_EQ(real_dir_.holders(id).controller(), naive_dir_.holders(id).controller());
      ASSERT_EQ(real_dir_.holders(id).worker_holders(), naive_dir_.holders(id).worker_holders())
          << "holders of array " << id << " diverge";
    }
  }

  Rng rng_;
  cluster::Cluster cluster_;
  CoherenceDirectory real_dir_;
  CoherenceDirectory naive_dir_;
  SchedulerMetrics metrics_;
  MemoryGovernor governor_;
  oracle::NaiveGovernor naive_;
  std::size_t workers_;
  std::vector<std::pair<std::size_t, GlobalArrayId>> pins_;
};

TEST(GovernorDifferential, RandomizedSequencesPickTheSameVictims) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    DifferentialRig rig(seed, 2 + (seed % 7));  // 2..8 workers
    ASSERT_NO_FATAL_FAILURE(rig.run(400, cov)) << "seed " << seed;
  }
  // The sequences reach every rule the victim scan applies.
  EXPECT_GT(cov.single_steps, 1000u);
  EXPECT_GT(cov.with_keep, 400u);
  EXPECT_GT(cov.with_tenant, 500u);
  EXPECT_GT(cov.multi_rounds, 400u);
}

}  // namespace
}  // namespace grout::core
