// Seeded invariant-fuzz harness over the full runtime surface.
//
// Each seed deterministically generates a scenario — random DAG shapes,
// all four placement policies, bounded or unbounded memory budgets — and
// asserts the runtime invariants in tests/support/invariant_checker.hpp
// after every step. The default seed count (200) is a tier-1 smoke sweep;
// nightly runs raise it via the GROUT_FUZZ_SEEDS environment variable (the
// tests carry the "fuzz" ctest label for exactly that).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/grout_runtime.hpp"
#include "tests/support/invariant_checker.hpp"

namespace grout {
namespace {

using core::CeTicket;
using core::GlobalArrayId;
using core::GroutConfig;
using core::GroutRuntime;
using core::PolicyKind;

constexpr PolicyKind kPolicies[] = {
    PolicyKind::RoundRobin,
    PolicyKind::VectorStep,
    PolicyKind::MinTransferSize,
    PolicyKind::MinTransferTime,
};

std::uint64_t fuzz_seed_count() {
  if (const char* env = std::getenv("GROUT_FUZZ_SEEDS")) {
    const std::uint64_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return 200;
}

/// Everything observable a scenario run produces, for determinism diffs.
struct ScenarioOutcome {
  std::vector<std::size_t> placements;
  std::vector<std::string> trace_names;
  core::SchedulerMetrics metrics;
};

/// Run the seed's scenario. With `check` on, the invariant checker runs
/// after every step; with `trace` on, the tracer records spans for the
/// determinism diff. `budget` overrides the drawn worker budget; it applies
/// after the draw, so the seed's random stream is the same either way.
ScenarioOutcome run_scenario(std::uint64_t seed, bool check, bool trace,
                             std::optional<Bytes> budget = std::nullopt) {
  Rng rng(seed);
  GroutConfig cfg;
  cfg.cluster.workers = 2 + rng.next_below(3);  // 2..4
  cfg.cluster.worker_node.gpu_count = 2;
  cfg.cluster.worker_node.device.memory = 8_MiB;
  cfg.cluster.worker_node.tuning.page_size = 1_MiB;
  cfg.cluster.trace = trace;
  // Seeds rotate through six slots, and slot 1 draws a step vector; the
  // slots stay six so that every seed keeps its random stream.
  const std::uint64_t slot = seed % 6;
  cfg.policy = kPolicies[slot % 4];
  if (slot == 1) cfg.step_vector = {static_cast<std::uint32_t>(1 + rng.next_below(3))};
  switch (rng.next_below(3)) {
    case 0: cfg.worker_mem = Bytes{0}; break;  // unbounded
    case 1: cfg.worker_mem = 20_MiB; break;
    default: cfg.worker_mem = 32_MiB; break;
  }
  if (budget) cfg.worker_mem = *budget;
  const std::size_t n_arrays = 3 + rng.next_below(6);
  std::vector<Bytes> sizes;
  sizes.reserve(n_arrays);
  for (std::size_t i = 0; i < n_arrays; ++i) sizes.push_back((1 + rng.next_below(4)) * 1_MiB);
  GroutRuntime rt(cfg);
  test::InvariantChecker chk(rt);
  ScenarioOutcome out;

  // Every third seed serves two tenants through the same runtime: arrays
  // get owners (or stay shared), and every CE is tagged with the tenant
  // whose arrays it touches — the serving frontend's launch discipline.
  const bool multi_tenant = seed % 3 == 1;
  constexpr std::size_t kTenants = 2;
  if (multi_tenant) {
    // Drawn and unused: keeps the rest of each seed's scenario fixed.
    for (TenantId t = 0; t < kTenants; ++t) {
      if (rng.next_below(2) != 0) (void)rng.next_below(10);
    }
  }

  std::vector<GlobalArrayId> arrays;
  std::vector<TenantId> owners;
  arrays.reserve(n_arrays);
  owners.reserve(n_arrays);
  for (std::size_t i = 0; i < n_arrays; ++i) {
    // First three arrays pin down one per category so every tenant always
    // has something eligible to touch; the rest roll.
    const std::uint64_t cat = i < 3 ? i : rng.next_below(3);
    const TenantId owner =
        multi_tenant && cat < kTenants ? static_cast<TenantId>(cat) : kNoTenant;
    arrays.push_back(rt.alloc(sizes[i], str_cat("a", std::to_string(i)), owner));
    owners.push_back(owner);
    rt.host_init(arrays.back());
    if (multi_tenant && owner == kNoTenant) chk.note_shared(arrays.back());
  }
  // Multi-tenant seeds pick their arrays Zipf-skewed (the serving frontend's
  // contention traffic): both tenants hammer the same hot arrays, so shared
  // writes keep invalidating the other tenant's replicas.
  const ZipfGenerator zipf{arrays.size(), 0.9};

  const std::size_t steps = 20 + rng.next_below(20);
  for (std::size_t s = 0; s < steps; ++s) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 70) {
      gpusim::KernelLaunchSpec spec;
      spec.name = str_cat("ce", std::to_string(s));
      spec.flops = 1e8 * static_cast<double>(1 + rng.next_below(50));
      // Multi-tenant seeds tag the CE and restrict it to the tenant's own
      // arrays plus shared ones (the frontend never crosses tenants).
      const TenantId ce_tenant =
          multi_tenant ? static_cast<TenantId>(rng.next_below(kTenants)) : kNoTenant;
      spec.tenant = ce_tenant;
      const std::size_t n_params = 1 + rng.next_below(4);
      // Drawn and unused: keeps the rest of each seed's scenario fixed.
      (void)rng.next_below(2);
      std::vector<GlobalArrayId> picked;
      for (std::size_t p = 0; p < n_params; ++p) {
        const std::size_t idx =
            multi_tenant ? zipf.next(rng) : rng.next_below(arrays.size());
        if (multi_tenant && owners[idx] != kNoTenant && owners[idx] != ce_tenant) continue;
        const GlobalArrayId a = arrays[idx];
        if (std::find(picked.begin(), picked.end(), a) != picked.end()) continue;
        picked.push_back(a);
        const std::uint64_t m = rng.next_below(3);
        const uvm::AccessMode mode = m == 0   ? uvm::AccessMode::Read
                                     : m == 1 ? uvm::AccessMode::Write
                                              : uvm::AccessMode::ReadWrite;
        // Roll the declared pattern too so the UVM model sees all three
        // access shapes (streaming / hot-reuse / random), not just one.
        const std::uint64_t pat = rng.next_below(4);
        const uvm::AccessPattern pattern =
            pat == 0 ? uvm::AccessPattern{uvm::HotReusePattern{}}
            : pat == 1
                ? uvm::AccessPattern{uvm::RandomPattern{0.5, seed * 131 + s}}
                : uvm::AccessPattern{uvm::StreamingPattern{}};
        spec.params.push_back(uvm::ParamAccess{a, {}, mode, pattern});
      }
      if (spec.params.empty()) {
        // Every roll landed on the other tenant's arrays; fall back to the
        // tenant's own pinned array so the CE stays well-formed.
        spec.params.push_back(uvm::ParamAccess{
            arrays[ce_tenant], {}, uvm::AccessMode::Read, uvm::StreamingPattern{}});
      }
      const gpusim::KernelLaunchSpec copy = spec;
      const CeTicket t = rt.launch(std::move(spec));
      out.placements.push_back(t.worker);
      if (check) chk.after_launch(t, copy);
    } else if (roll >= 86) {
      EXPECT_TRUE(rt.synchronize());
      if (check) chk.check_quiescent();
    }
    // Rolls 70-85 are idle steps, which keeps each seed's launch and
    // synchronize mix: the invariants are re-checked with no new work.
    if (check) chk.check_always();
  }

  EXPECT_TRUE(rt.synchronize());
  if (check) {
    chk.check_always();
    chk.check_quiescent();
  }
  // Zero lost arrays: every array must be fetchable back to the controller.
  for (const GlobalArrayId a : arrays) {
    EXPECT_TRUE(rt.host_fetch(a)) << "array " << a << " not fetchable after the run";
  }
  // The fetches pinned and released their sources: still within budget.
  if (check) {
    chk.check_always();
    chk.check_quiescent();
  }

  out.metrics = rt.metrics();
  if (trace) {
    for (const sim::TraceSpan& span : rt.cluster().tracer().spans()) {
      out.trace_names.push_back(span.name);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Seed sweep, sharded four ways so ctest -j spreads the load
// ---------------------------------------------------------------------------

class InvariantFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantFuzz, InvariantsHoldAcrossSeeds) {
  const std::uint64_t shard = GetParam();
  const std::uint64_t total = fuzz_seed_count();
  for (std::uint64_t seed = shard; seed < total; seed += 4) {
    SCOPED_TRACE(str_cat("seed=", std::to_string(seed)));
    run_scenario(seed, /*check=*/true, /*trace=*/false);
    if (::testing::Test::HasFailure()) break;  // one seed's dump is enough
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantFuzz, ::testing::Values(0u, 1u, 2u, 3u));

// The drawn 20/32 MiB budgets rarely bind on a few 1-4 MiB arrays, so the
// same seeds rerun at 8 MiB a worker: most of them evict and spill. The
// floors keep the sweep from passing without reaching the governor.
class TightBudgetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TightBudgetFuzz, InvariantsHoldAcrossSeeds) {
  const std::uint64_t shard = GetParam();
  const std::uint64_t total = fuzz_seed_count();
  std::uint64_t seeds = 0;
  std::uint64_t evicting = 0;
  std::uint64_t spilling = 0;
  for (std::uint64_t seed = shard; seed < total; seed += 4) {
    SCOPED_TRACE(str_cat("seed=", std::to_string(seed)));
    const ScenarioOutcome out = run_scenario(seed, /*check=*/true, /*trace=*/false, 8_MiB);
    if (::testing::Test::HasFailure()) return;  // one seed's dump is enough
    ++seeds;
    if (out.metrics.evictions > 0) ++evicting;
    if (out.metrics.spills > 0) ++spilling;
  }
  EXPECT_GE(5 * evicting, 3 * seeds) << "fewer than 60% of the seeds evicted";
  EXPECT_GE(2 * spilling, seeds) << "fewer than half the seeds spilled";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TightBudgetFuzz, ::testing::Values(0u, 1u, 2u, 3u));

// ---------------------------------------------------------------------------
// Determinism golden tests
// ---------------------------------------------------------------------------

/// Assert two scenario outcomes are bit-identical: placements, trace-span
/// order, and every simulated-world metric (decision_ns is
/// real wall-clock and is deliberately excluded).
void expect_identical_outcomes(const ScenarioOutcome& a, const ScenarioOutcome& b) {
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.trace_names, b.trace_names);

  EXPECT_EQ(a.metrics.assignments, b.metrics.assignments);
  EXPECT_EQ(a.metrics.controller_sends, b.metrics.controller_sends);
  EXPECT_EQ(a.metrics.p2p_sends, b.metrics.p2p_sends);
  EXPECT_EQ(a.metrics.bytes_planned, b.metrics.bytes_planned);
  EXPECT_EQ(a.metrics.ces_scheduled, b.metrics.ces_scheduled);
  EXPECT_EQ(a.metrics.evictions, b.metrics.evictions);
  EXPECT_EQ(a.metrics.spills, b.metrics.spills);
  EXPECT_EQ(a.metrics.refetches, b.metrics.refetches);
  EXPECT_EQ(a.metrics.bytes_evicted, b.metrics.bytes_evicted);
  EXPECT_EQ(a.metrics.bytes_spilled, b.metrics.bytes_spilled);
  EXPECT_EQ(a.metrics.worker_resident, b.metrics.worker_resident);
  EXPECT_EQ(a.metrics.worker_resident_peak, b.metrics.worker_resident_peak);
  EXPECT_EQ(a.metrics.exploration_placements, b.metrics.exploration_placements);
  EXPECT_EQ(a.metrics.invalidations, b.metrics.invalidations);
  EXPECT_EQ(a.metrics.ownership_transfers, b.metrics.ownership_transfers);
  EXPECT_EQ(a.metrics.coherence_refetches, b.metrics.coherence_refetches);
  EXPECT_EQ(a.metrics.invalidated_bytes, b.metrics.invalidated_bytes);
  EXPECT_EQ(a.metrics.refetched_bytes, b.metrics.refetched_bytes);
  EXPECT_EQ(a.metrics.stale_evictions, b.metrics.stale_evictions);
  EXPECT_EQ(a.metrics.bytes_stale_evicted, b.metrics.bytes_stale_evicted);
  EXPECT_EQ(a.metrics.spill_dram_high_water, b.metrics.spill_dram_high_water);
  EXPECT_EQ(a.metrics.writeback_queue_peak, b.metrics.writeback_queue_peak);
  EXPECT_EQ(a.metrics.spill_wait, b.metrics.spill_wait);
}

TEST(DeterminismTest, SameSeedTwiceIsBitIdentical) {
  // Seed 7 draws VectorStep with multi-tenant contention (7 % 3 == 1);
  // any seed must reproduce, this one just covers the richest machinery.
  const ScenarioOutcome a = run_scenario(7, /*check=*/false, /*trace=*/true);
  const ScenarioOutcome b = run_scenario(7, /*check=*/false, /*trace=*/true);
  expect_identical_outcomes(a, b);
}

TEST(DeterminismTest, SpillSeedIsBitIdentical) {
  // Seed 230 draws a 20 MiB budget that its footprint overflows: sole
  // copies are spilled, consumers wait on in-flight write-backs, and all of
  // it, trace spans included, must replay bit-identically.
  const ScenarioOutcome a = run_scenario(230, /*check=*/false, /*trace=*/true);
  const ScenarioOutcome b = run_scenario(230, /*check=*/false, /*trace=*/true);
  expect_identical_outcomes(a, b);
  EXPECT_GT(a.metrics.spills, 0u);
}

}  // namespace
}  // namespace grout
