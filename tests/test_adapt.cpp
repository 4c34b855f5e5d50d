// Adaptive oversubscription management: AccessProfiler classification,
// PolicyTuner retune/dead-prediction/auto-advise decisions, the validated
// threshold table, and the end-to-end --adapt runtime path.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "core/adapt/access_profiler.hpp"
#include "core/adapt/policy_tuner.hpp"
#include "core/grout_runtime.hpp"

namespace grout::core::adapt {
namespace {

AdaptConfig small_config(std::size_t window = 8, std::size_t min_samples = 4) {
  AdaptConfig cfg;
  cfg.enabled = true;
  cfg.window = window;
  cfg.min_samples = min_samples;
  return cfg;
}

uvm::ParamAccess access_of(uvm::AccessPattern pattern,
                           uvm::AccessMode mode = uvm::AccessMode::Read) {
  uvm::ParamAccess a;
  a.mode = mode;
  a.pattern = pattern;
  return a;
}

/// One CE touching `array` with the given declared pattern.
void touch(AccessProfiler& prof, GlobalArrayId array, uvm::AccessPattern pattern,
           uvm::AccessMode mode = uvm::AccessMode::Read) {
  prof.begin_ce();
  prof.observe_dispatch(kNoTenant, array, "a" + std::to_string(array),
                        access_of(pattern, mode));
}

// ---------------------------------------------------------------------------
// AdaptConfig / ThresholdTable validation
// ---------------------------------------------------------------------------

TEST(AdaptConfigTest, ValidatesKnobs) {
  EXPECT_NO_THROW(small_config().validate());

  AdaptConfig bad = small_config();
  bad.window = 1;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = small_config();
  bad.interval = SimTime::zero();
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = small_config();
  bad.min_samples = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = small_config();
  bad.min_samples = bad.window + 1;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = small_config();
  bad.read_mostly_write_share = 1.5;
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(ThresholdTableTest, DefaultsMatchTheHistoricalConstants) {
  // The paper's three levels, bit-identical to the values every policy used
  // before the provider existed.
  const ThresholdTable& t = ThresholdTable::defaults();
  EXPECT_EQ(t.threshold(ExplorationLevel::Low), 0.25);
  EXPECT_EQ(t.threshold(ExplorationLevel::Medium), 0.50);
  EXPECT_EQ(t.threshold(ExplorationLevel::High), 0.75);
  EXPECT_EQ(exploration_threshold(ExplorationLevel::Low), 0.25);
  EXPECT_EQ(exploration_threshold(ExplorationLevel::Medium), 0.50);
  EXPECT_EQ(exploration_threshold(ExplorationLevel::High), 0.75);
}

TEST(ThresholdTableTest, RejectsNonFractions) {
  EXPECT_THROW(ThresholdTable(-0.1, 0.5, 0.75), InvalidArgument);
  EXPECT_THROW(ThresholdTable(0.25, 1.5, 0.75), InvalidArgument);
  EXPECT_THROW(ThresholdTable(0.25, 0.5, std::nan("")), InvalidArgument);
}

// ---------------------------------------------------------------------------
// AccessProfiler
// ---------------------------------------------------------------------------

TEST(AccessProfilerTest, ClassifiesDeclaredPatterns) {
  AccessProfiler prof(small_config());
  for (int i = 0; i < 4; ++i) {
    touch(prof, 0, uvm::StreamingPattern{});
    touch(prof, 1, uvm::HotReusePattern{});
    touch(prof, 2, uvm::RandomPattern{0.5, 7});
  }
  const std::vector<GlobalArrayId> changed = prof.classify();
  EXPECT_EQ(changed, (std::vector<GlobalArrayId>{0, 1, 2}));
  EXPECT_EQ(prof.profile(0)->cls, AccessClass::Streaming);
  EXPECT_EQ(prof.profile(1)->cls, AccessClass::Reuse);
  EXPECT_EQ(prof.profile(2)->cls, AccessClass::Random);
  EXPECT_EQ(prof.class_count(AccessClass::Streaming), 1u);
  // A second sweep over unchanged windows reclassifies nothing.
  EXPECT_TRUE(prof.classify().empty());
  EXPECT_EQ(prof.profile(0)->reclassifications, 1u);
}

TEST(AccessProfilerTest, MinSamplesGatesClassification) {
  AccessProfiler prof(small_config(8, 4));
  for (int i = 0; i < 3; ++i) touch(prof, 0, uvm::StreamingPattern{});
  prof.classify();
  EXPECT_EQ(prof.profile(0)->cls, AccessClass::Unknown);
  touch(prof, 0, uvm::StreamingPattern{});
  prof.classify();
  EXPECT_EQ(prof.profile(0)->cls, AccessClass::Streaming);
}

TEST(AccessProfilerTest, TightReuseUpgradesSequentialToReuse) {
  // An array streamed every iteration of a tight loop (short reuse
  // distances, high page-hit rate) behaves like a hot set even though its
  // declared pattern is sequential.
  AccessProfiler prof(small_config(8, 4));
  uvm::AccessReport all_hits;
  all_hits.bytes_touched = 1_MiB;
  all_hits.bytes_hit = 1_MiB;
  for (int i = 0; i < 6; ++i) {
    touch(prof, 0, uvm::StreamingPattern{});
    prof.observe_report({0}, all_hits);
  }
  prof.classify();
  EXPECT_EQ(prof.profile(0)->cls, AccessClass::Reuse);
  EXPECT_GE(prof.profile(0)->hit_rate, 0.5);
}

TEST(AccessProfilerTest, ReuseDistanceBucketsAreLog2) {
  AccessProfiler prof(small_config());
  touch(prof, 0, uvm::StreamingPattern{});
  // 7 CEs that do not touch array 0, then a re-touch: distance 8.
  for (int i = 0; i < 7; ++i) touch(prof, 1, uvm::StreamingPattern{});
  touch(prof, 0, uvm::StreamingPattern{});
  const ArrayProfile* p = prof.profile(0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->reuse_hist[3], 1u);  // bucket 3 covers [8, 16)
  for (std::size_t b = 0; b < 8; ++b) {
    if (b != 3) {
      EXPECT_EQ(p->reuse_hist[b], 0u) << "bucket " << b;
    }
  }
}

TEST(AccessProfilerTest, WriteShareCountsWritingTouches) {
  AccessProfiler prof(small_config(8, 4));
  touch(prof, 0, uvm::StreamingPattern{}, uvm::AccessMode::Read);
  touch(prof, 0, uvm::StreamingPattern{}, uvm::AccessMode::Write);
  touch(prof, 0, uvm::StreamingPattern{}, uvm::AccessMode::ReadWrite);
  touch(prof, 0, uvm::StreamingPattern{}, uvm::AccessMode::Read);
  prof.classify();
  EXPECT_DOUBLE_EQ(prof.profile(0)->write_share, 0.5);
}

TEST(AccessProfilerTest, ObservedArraysAscendingAndUnknownIsNull) {
  AccessProfiler prof(small_config());
  touch(prof, 5, uvm::StreamingPattern{});
  touch(prof, 2, uvm::StreamingPattern{});
  EXPECT_EQ(prof.observed_arrays(), (std::vector<GlobalArrayId>{2, 5}));
  EXPECT_EQ(prof.profile(3), nullptr);
  EXPECT_EQ(prof.profile(99), nullptr);
  EXPECT_EQ(prof.total_samples(), 2u);
  EXPECT_EQ(prof.tick(), 2u);
}

// ---------------------------------------------------------------------------
// PolicyTuner
// ---------------------------------------------------------------------------

const std::function<bool(GlobalArrayId)> kNotShared = [](GlobalArrayId) {
  return false;
};

TEST(PolicyTunerTest, EmitsPrefetchActionsOnlyOnChange) {
  AccessProfiler prof(small_config(8, 4));
  PolicyTuner tuner(small_config(8, 4));
  for (int i = 0; i < 4; ++i) {
    touch(prof, 0, uvm::StreamingPattern{});
    touch(prof, 1, uvm::RandomPattern{0.5, 7});
  }
  std::vector<RetuneAction> actions = tuner.sweep(prof, kNotShared);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].array, 0u);
  EXPECT_EQ(actions[0].kind, RetuneAction::Kind::PrefetchOn);
  EXPECT_EQ(actions[1].array, 1u);
  EXPECT_EQ(actions[1].kind, RetuneAction::Kind::PrefetchOff);
  EXPECT_EQ(tuner.retunes(), 2u);
  // Nothing changed: the next sweep is action-free.
  EXPECT_TRUE(tuner.sweep(prof, kNotShared).empty());
  EXPECT_EQ(tuner.prefetch_overrides(), 2u);
}

TEST(PolicyTunerTest, QueryThresholdFollowsTheMajorityClass) {
  AccessProfiler prof(small_config(8, 4));
  PolicyTuner tuner(small_config(8, 4));
  for (int i = 0; i < 4; ++i) {
    touch(prof, 0, uvm::StreamingPattern{});
    touch(prof, 1, uvm::HotReusePattern{});
    touch(prof, 2, uvm::RandomPattern{0.5, 7});
  }
  tuner.sweep(prof, kNotShared);
  // Streaming-dominant inputs explore aggressively, reuse-dominant exploit,
  // random and tied mixes keep the medium default.
  EXPECT_EQ(tuner.query_threshold(prof, {0}), std::optional<double>{0.75});
  EXPECT_EQ(tuner.query_threshold(prof, {1}), std::optional<double>{0.25});
  EXPECT_EQ(tuner.query_threshold(prof, {2}), std::optional<double>{0.50});
  EXPECT_EQ(tuner.query_threshold(prof, {0, 1}), std::optional<double>{0.50});
  EXPECT_EQ(tuner.query_threshold(prof, {0, 0, 1}), std::optional<double>{0.75});
  // Nothing classified yet: no override, the policy keeps its threshold.
  EXPECT_EQ(tuner.query_threshold(prof, {9}), std::nullopt);
  EXPECT_EQ(tuner.query_threshold(prof, {}), std::nullopt);
}

TEST(PolicyTunerTest, PredictsStreamingArraysDeadAfterAWindowUntouched) {
  AccessProfiler prof(small_config(4, 2));
  PolicyTuner tuner(small_config(4, 2));
  for (int i = 0; i < 4; ++i) touch(prof, 0, uvm::StreamingPattern{});
  tuner.sweep(prof, kNotShared);
  EXPECT_FALSE(tuner.predicted_dead(0));  // still being touched
  // A full window of CEs passes without touching array 0: the stream has
  // moved past it, its replicas are sunk cost.
  for (int i = 0; i < 6; ++i) touch(prof, 1, uvm::HotReusePattern{});
  tuner.sweep(prof, kNotShared);
  EXPECT_TRUE(tuner.predicted_dead(0));
  EXPECT_FALSE(tuner.predicted_dead(1));  // reuse arrays are never dead
  EXPECT_EQ(tuner.predicted_dead_count(), 1u);
}

TEST(PolicyTunerTest, AutoAdviseRequiresSharedAndReadDominant) {
  AccessProfiler prof(small_config(8, 4));
  PolicyTuner tuner(small_config(8, 4));
  for (int i = 0; i < 4; ++i) {
    touch(prof, 0, uvm::HotReusePattern{}, uvm::AccessMode::Read);
    touch(prof, 1, uvm::HotReusePattern{},
          i % 2 == 0 ? uvm::AccessMode::Write : uvm::AccessMode::Read);
  }
  // Not shared: no advise for anyone.
  EXPECT_EQ(tuner.sweep(prof, kNotShared).size(), 2u);  // prefetch-on x2 only
  EXPECT_EQ(tuner.auto_advises(), 0u);
  // Shared: only the read-dominant array is advised, exactly once.
  const auto shared = [](GlobalArrayId) { return true; };
  std::vector<RetuneAction> actions = tuner.sweep(prof, shared);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].array, 0u);
  EXPECT_EQ(actions[0].kind, RetuneAction::Kind::AdviseReadMostly);
  EXPECT_EQ(tuner.auto_advises(), 1u);
  EXPECT_TRUE(tuner.sweep(prof, shared).empty());
}

// ---------------------------------------------------------------------------
// End-to-end --adapt runtime path
// ---------------------------------------------------------------------------

GroutConfig adaptive_config() {
  GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node.gpu_count = 2;
  cfg.cluster.worker_node.device.memory = 8_MiB;
  cfg.cluster.worker_node.tuning.page_size = 1_MiB;
  cfg.policy = PolicyKind::MinTransferSize;
  cfg.adapt.enabled = true;
  cfg.adapt.window = 4;
  cfg.adapt.min_samples = 2;
  cfg.adapt.interval = SimTime::from_ms(0.05);
  return cfg;
}

gpusim::KernelLaunchSpec kernel_on(std::string name, GlobalArrayId array,
                                   uvm::AccessPattern pattern) {
  gpusim::KernelLaunchSpec spec;
  spec.name = std::move(name);
  spec.flops = 1e9;
  spec.params.push_back(uvm::ParamAccess{array, {}, uvm::AccessMode::Read, pattern});
  return spec;
}

struct AdaptiveOutcome {
  SchedulerMetrics metrics;
  AccessClass cls_s{AccessClass::Unknown};
  AccessClass cls_h{AccessClass::Unknown};
  AccessClass cls_r{AccessClass::Unknown};
  bool s_dead{false};
};

/// The canonical adaptive scenario: a large single-pass stream, a hot reuse
/// vector, and a random-access table, iterated so retune sweeps interleave
/// with dispatches; then the stream goes quiet so it can be predicted dead.
AdaptiveOutcome run_adaptive_scenario() {
  GroutRuntime rt(adaptive_config());
  // 12 MiB streamed through an 8 MiB device: low hit rate, so the tight-
  // reuse upgrade does not fire and the array stays classed streaming.
  const GlobalArrayId s = rt.alloc(12_MiB, "stream");
  const GlobalArrayId h = rt.alloc(2_MiB, "hot");
  const GlobalArrayId r = rt.alloc(2_MiB, "table");
  for (GlobalArrayId a : {s, h, r}) {
    EXPECT_TRUE(rt.host_fetch(a));
  }

  for (int i = 0; i < 6; ++i) {
    rt.launch(kernel_on("s" + std::to_string(i), s, uvm::StreamingPattern{}));
    rt.launch(kernel_on("h" + std::to_string(i), h, uvm::HotReusePattern{}));
    rt.launch(kernel_on("r" + std::to_string(i), r, uvm::RandomPattern{0.5, 7}));
    rt.synchronize();
  }
  // The stream ends; the hot and random arrays keep the cluster busy for
  // well over a profile window of CEs.
  for (int i = 0; i < 12; ++i) {
    rt.launch(kernel_on("h2." + std::to_string(i), h, uvm::HotReusePattern{}));
    rt.launch(kernel_on("r2." + std::to_string(i), r, uvm::RandomPattern{0.5, 7}));
    rt.synchronize();
  }

  AdaptiveOutcome out;
  out.metrics = rt.metrics();
  const adapt::AccessProfiler* prof = rt.profiler();
  out.cls_s = prof->profile(s)->cls;
  out.cls_h = prof->profile(h)->cls;
  out.cls_r = prof->profile(r)->cls;
  out.s_dead = rt.tuner()->predicted_dead(s);
  return out;
}

TEST(AdaptiveRuntimeTest, ProfilesClassifyAndRetunesFire) {
  const AdaptiveOutcome out = run_adaptive_scenario();
  EXPECT_EQ(out.cls_s, AccessClass::Streaming);
  EXPECT_EQ(out.cls_h, AccessClass::Reuse);
  EXPECT_EQ(out.cls_r, AccessClass::Random);
  EXPECT_TRUE(out.s_dead);

  const SchedulerMetrics& m = out.metrics;
  EXPECT_GT(m.adapt_sweeps, 0u);
  EXPECT_EQ(m.adapt_samples, 6u * 3u + 12u * 2u);
  EXPECT_EQ(m.adapt_arrays_streaming, 1u);
  EXPECT_EQ(m.adapt_arrays_reuse, 1u);
  EXPECT_EQ(m.adapt_arrays_random, 1u);
  // One prefetch decision per array (on/on/off), then stable.
  EXPECT_GE(m.adapt_prefetch_overrides, 3u);
  // Later iterations were dispatched with classified inputs, so tuned
  // thresholds reached the placement policy.
  EXPECT_GT(m.adapt_threshold_updates, 0u);
  // All three arrays are unowned and read-only here, so each is advised
  // ReadMostly once classified.
  EXPECT_EQ(m.adapt_auto_advises, 3u);
}

TEST(AdaptiveRuntimeTest, DisabledAdaptLeavesNoTrace) {
  GroutConfig cfg = adaptive_config();
  cfg.adapt.enabled = false;
  GroutRuntime rt(cfg);
  EXPECT_EQ(rt.profiler(), nullptr);
  EXPECT_EQ(rt.tuner(), nullptr);
  const GlobalArrayId a = rt.alloc(2_MiB, "a");
  EXPECT_TRUE(rt.host_fetch(a));
  rt.launch(kernel_on("k", a, uvm::StreamingPattern{}));
  rt.synchronize();
  const SchedulerMetrics& m = rt.metrics();
  EXPECT_EQ(m.adapt_sweeps, 0u);
  EXPECT_EQ(m.adapt_samples, 0u);
  EXPECT_EQ(m.adapt_retunes, 0u);
}

}  // namespace
}  // namespace grout::core::adapt
