// Shared-state contention: Zipf-keyed YCSB-style serving over one pool of
// shared global arrays, and the coherence-directory write semantics that
// make the scenario measurable.
//
// Covers, bottom-up:
//   * parse_contention: the CLI-facing spec grammar, valid and loudly
//     invalid;
//   * make_contention_shape: determinism, pool-key bounds, write placement
//     (exactly the first shared key of an update carries ReadWrite), and
//     footprint counting only the program's private arrays;
//   * CoherenceDirectory write effects: invalidation counts, ownership
//     transfers, invalidated-replica tracking, refetch accounting,
//     two-writer interleavings, and the sole-holder eviction guard;
//   * end-to-end serve runs: contention traffic reaches the runtime's
//     metrics, shared-pool arrays stay unowned, and the whole scenario is
//     bit-identical across two runs with the same config (the golden
//     determinism bar from the issue).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/grout_runtime.hpp"
#include "serve/serve.hpp"
#include "workloads/shapes.hpp"

namespace grout {
namespace {

using core::CoherenceDirectory;
using core::WriteEffect;
using serve::ServeConfig;
using serve::ServeReport;
using serve::ServeScheduler;
using serve::TenantSpec;
using workloads::ContentionSpec;
using workloads::ProgramShape;
using workloads::ShapeCe;
using workloads::ShapeParam;

// ---------------------------------------------------------------------------
// parse_contention
// ---------------------------------------------------------------------------

TEST(ContentionSpecTest, ParsesRequiredAndOptionalFields) {
  const ContentionSpec c = workloads::parse_contention(
      "theta=0.9,rw=0.95,shared=0.8,pool=32,bytes=2097152,ops=6,keys=4");
  EXPECT_DOUBLE_EQ(c.theta, 0.9);
  EXPECT_DOUBLE_EQ(c.read_fraction, 0.95);
  EXPECT_DOUBLE_EQ(c.shared_fraction, 0.8);
  EXPECT_EQ(c.pool_arrays, 32u);
  EXPECT_EQ(c.array_bytes, 2_MiB);
  EXPECT_EQ(c.ops, 6u);
  EXPECT_EQ(c.keys_per_op, 4u);
}

TEST(ContentionSpecTest, DefaultsSurviveMinimalSpec) {
  const ContentionSpec c = workloads::parse_contention("theta=0.5,rw=0.9,shared=0.7");
  const ContentionSpec d;
  EXPECT_EQ(c.pool_arrays, d.pool_arrays);
  EXPECT_EQ(c.array_bytes, d.array_bytes);
  EXPECT_EQ(c.ops, d.ops);
  EXPECT_EQ(c.keys_per_op, d.keys_per_op);
}

TEST(ContentionSpecTest, RoundTripsThroughToString) {
  const ContentionSpec c = workloads::parse_contention("theta=0.6,rw=0.85,shared=0.9,pool=16");
  const ContentionSpec back = workloads::parse_contention(workloads::to_string(c));
  EXPECT_DOUBLE_EQ(back.theta, c.theta);
  EXPECT_DOUBLE_EQ(back.read_fraction, c.read_fraction);
  EXPECT_DOUBLE_EQ(back.shared_fraction, c.shared_fraction);
  EXPECT_EQ(back.pool_arrays, c.pool_arrays);
  EXPECT_EQ(back.array_bytes, c.array_bytes);
}

TEST(ContentionSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(workloads::parse_contention(""), Error);
  EXPECT_THROW(workloads::parse_contention("theta=0.9"), Error);          // missing rw/shared
  EXPECT_THROW(workloads::parse_contention("theta=1.0,rw=0.9,shared=0.5"), Error);
  EXPECT_THROW(workloads::parse_contention("theta=-0.1,rw=0.9,shared=0.5"), Error);
  EXPECT_THROW(workloads::parse_contention("theta=0.9,rw=1.5,shared=0.5"), Error);
  EXPECT_THROW(workloads::parse_contention("theta=0.9,rw=0.9,shared=2"), Error);
  EXPECT_THROW(workloads::parse_contention("theta=abc,rw=0.9,shared=0.5"), Error);
  EXPECT_THROW(workloads::parse_contention("theta=0.9,rw=0.9,shared=0.5,pool=0"), Error);
  EXPECT_THROW(workloads::parse_contention("theta=0.9,rw=0.9,shared=0.5,bogus=1"), Error);
  // keys_per_op larger than the pool can never pick distinct keys.
  EXPECT_THROW(workloads::parse_contention("theta=0.9,rw=0.9,shared=0.5,pool=2,keys=3"), Error);
}

// ---------------------------------------------------------------------------
// make_contention_shape
// ---------------------------------------------------------------------------

ContentionSpec small_spec() {
  ContentionSpec c;
  c.theta = 0.9;
  c.read_fraction = 0.8;
  c.shared_fraction = 0.9;
  c.pool_arrays = 8;
  c.array_bytes = 1_MiB;
  c.ops = 16;
  c.keys_per_op = 2;
  return c;
}

TEST(ContentionShapeTest, SameSeedIsBitIdentical) {
  const ContentionSpec spec = small_spec();
  const ProgramShape a = workloads::make_contention_shape(spec, 1234);
  const ProgramShape b = workloads::make_contention_shape(spec, 1234);
  ASSERT_EQ(a.ces.size(), b.ces.size());
  for (std::size_t i = 0; i < a.ces.size(); ++i) {
    EXPECT_EQ(a.ces[i].name, b.ces[i].name);
    ASSERT_EQ(a.ces[i].params.size(), b.ces[i].params.size());
    for (std::size_t j = 0; j < a.ces[i].params.size(); ++j) {
      EXPECT_EQ(a.ces[i].params[j].array, b.ces[i].params[j].array);
      EXPECT_EQ(a.ces[i].params[j].shared, b.ces[i].params[j].shared);
      EXPECT_EQ(a.ces[i].params[j].mode, b.ces[i].params[j].mode);
    }
  }
  // Different seeds must diverge somewhere (16 ops over 8 keys collide with
  // negligible probability).
  const ProgramShape c = workloads::make_contention_shape(spec, 5678);
  bool differs = a.ces.size() != c.ces.size();
  for (std::size_t i = 0; !differs && i < a.ces.size(); ++i) {
    differs = a.ces[i].name != c.ces[i].name ||
              a.ces[i].params.size() != c.ces[i].params.size();
    for (std::size_t j = 0; !differs && j < a.ces[i].params.size(); ++j) {
      differs = a.ces[i].params[j].array != c.ces[i].params[j].array;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(ContentionShapeTest, OneSamplerPerRunDrawsTheSameShapes) {
  // A serving run builds one sampler and reuses it for every program: the
  // shapes must match those built with a fresh sampler each.
  const ContentionSpec spec = small_spec();
  const ZipfGenerator zipf{spec.pool_arrays, spec.theta};
  for (const std::uint64_t seed : {1u, 1234u, 99999u}) {
    const ProgramShape a = workloads::make_contention_shape(spec, seed);
    const ProgramShape b = workloads::make_contention_shape(spec, zipf, seed);
    ASSERT_EQ(a.ces.size(), b.ces.size());
    for (std::size_t i = 0; i < a.ces.size(); ++i) {
      EXPECT_EQ(a.ces[i].name, b.ces[i].name);
      ASSERT_EQ(a.ces[i].params.size(), b.ces[i].params.size());
      for (std::size_t j = 0; j < a.ces[i].params.size(); ++j) {
        EXPECT_EQ(a.ces[i].params[j].array, b.ces[i].params[j].array);
        EXPECT_EQ(a.ces[i].params[j].shared, b.ces[i].params[j].shared);
        EXPECT_EQ(a.ces[i].params[j].mode, b.ces[i].params[j].mode);
      }
    }
  }
  EXPECT_THROW(workloads::make_contention_shape(spec, ZipfGenerator{spec.pool_arrays + 1, 0.9}, 1),
               InvalidArgument);
  EXPECT_THROW(workloads::make_contention_shape(spec, ZipfGenerator{spec.pool_arrays, 0.5}, 1),
               InvalidArgument);
}

TEST(ContentionShapeTest, SharedKeysStayInPoolAndWritesLandOnFirstSharedKey) {
  const ContentionSpec spec = small_spec();
  const ProgramShape shape = workloads::make_contention_shape(spec, 99);
  ASSERT_EQ(shape.ces.size(), spec.ops);
  for (const ShapeCe& ce : shape.ces) {
    ASSERT_FALSE(ce.params.empty());
    bool saw_shared = false;
    std::size_t shared_writes = 0;
    for (const ShapeParam& p : ce.params) {
      if (p.shared) {
        EXPECT_LT(p.array, spec.pool_arrays) << "shared key escaped the pool in " << ce.name;
        if (p.mode == uvm::AccessMode::ReadWrite) {
          ++shared_writes;
          EXPECT_FALSE(saw_shared) << "write must land on the FIRST shared key of " << ce.name;
        }
        saw_shared = true;
      } else {
        EXPECT_LT(p.array, shape.arrays.size());
      }
    }
    if (ce.name == "ycsb-update") {
      // An update writes at most one shared key (none when every sampled key
      // came out local — then only its private scratch is written).
      EXPECT_LE(shared_writes, 1u);
    } else {
      EXPECT_EQ(shared_writes, 0u) << "read op " << ce.name << " wrote a shared key";
    }
  }
}

TEST(ContentionShapeTest, FootprintCountsOnlyPrivateArrays) {
  const ContentionSpec spec = small_spec();
  const ProgramShape shape = workloads::make_contention_shape(spec, 7);
  // Private arrays only: the shared pool is owned by the serving frontend
  // and must not count against a program's admission footprint.
  Bytes expect = 0;
  for (const workloads::ShapeArray& a : shape.arrays) expect += a.bytes;
  EXPECT_EQ(shape.footprint(), expect);
  EXPECT_EQ(shape.arrays.size(), 3u);  // local0, local1, scratch
}

// ---------------------------------------------------------------------------
// CoherenceDirectory write effects
// ---------------------------------------------------------------------------

TEST(DirectoryWriteTest, WriteInvalidatesEveryOtherHolder) {
  CoherenceDirectory dir(4);
  const core::GlobalArrayId id = dir.register_array(2_MiB, "x");
  dir.add_worker_copy(id, 0);
  dir.add_worker_copy(id, 1);
  dir.add_worker_copy(id, 2);

  const WriteEffect e = dir.written_on_worker(id, 0);
  EXPECT_EQ(e.invalidations, 2u);  // workers 1 and 2 (controller is not a worker replica)
  EXPECT_EQ(e.invalidated_bytes, 4_MiB);
  EXPECT_TRUE(e.ownership_transfer);  // writer was not the sole holder

  EXPECT_TRUE(dir.up_to_date_on_worker(id, 0));
  EXPECT_FALSE(dir.up_to_date_on_worker(id, 1));
  EXPECT_TRUE(dir.invalidated_on_worker(id, 1));
  EXPECT_TRUE(dir.invalidated_on_worker(id, 2));
  EXPECT_FALSE(dir.invalidated_on_worker(id, 0));

  EXPECT_EQ(dir.invalidations(), 2u);
  EXPECT_EQ(dir.ownership_transfers(), 1u);
  EXPECT_EQ(dir.invalidated_bytes(), 4_MiB);
}

TEST(DirectoryWriteTest, SoleHolderRewriteIsFree) {
  CoherenceDirectory dir(2);
  const core::GlobalArrayId id = dir.register_array(1_MiB, "x");
  dir.add_worker_copy(id, 0);
  (void)dir.written_on_worker(id, 0);  // collapse to sole worker holder

  const WriteEffect e = dir.written_on_worker(id, 0);
  EXPECT_EQ(e.invalidations, 0u);
  EXPECT_FALSE(e.ownership_transfer) << "rewriting as sole holder moves nothing";
  EXPECT_EQ(dir.ownership_transfers(), 1u);  // only the first write transferred
}

TEST(DirectoryWriteTest, RefetchAfterInvalidationIsCoherenceTraffic) {
  CoherenceDirectory dir(2);
  const core::GlobalArrayId id = dir.register_array(3_MiB, "x");
  dir.add_worker_copy(id, 0);
  dir.add_worker_copy(id, 1);
  (void)dir.written_on_worker(id, 0);  // invalidates worker 1

  EXPECT_EQ(dir.coherence_refetches(), 0u);
  dir.add_worker_copy(id, 1);  // worker 1 re-acquires: a coherence refetch
  EXPECT_EQ(dir.coherence_refetches(), 1u);
  EXPECT_EQ(dir.refetched_bytes(), 3_MiB);
  EXPECT_FALSE(dir.invalidated_on_worker(id, 1));

  dir.add_worker_copy(id, 1);  // already valid: not another refetch
  EXPECT_EQ(dir.coherence_refetches(), 1u);
}

TEST(DirectoryWriteTest, TwoWritersPingPongOwnership) {
  CoherenceDirectory dir(2);
  const core::GlobalArrayId id = dir.register_array(1_MiB, "x");
  dir.add_worker_copy(id, 0);
  dir.add_worker_copy(id, 1);

  std::uint64_t invalidations = 0;
  for (int round = 0; round < 5; ++round) {
    const std::size_t writer = round % 2;
    const std::size_t other = 1 - writer;
    const WriteEffect e = dir.written_on_worker(id, writer);
    invalidations += e.invalidations;
    EXPECT_TRUE(e.ownership_transfer) << "round " << round;
    EXPECT_TRUE(dir.invalidated_on_worker(id, other)) << "round " << round;
    dir.add_worker_copy(id, other);  // reader refetches before the next write
  }
  // Round 0 invalidates worker 1 (and drops the controller from the holder
  // set); every later round invalidates exactly the previous writer.
  EXPECT_EQ(invalidations, 5u);
  EXPECT_EQ(dir.ownership_transfers(), 5u);
  EXPECT_EQ(dir.coherence_refetches(), 5u);
  // A holder is never simultaneously invalidated.
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_FALSE(dir.holders(id).worker(w) && dir.invalidated_on_worker(id, w));
  }
}

TEST(DirectoryWriteTest, ControllerWriteInvalidatesAllWorkers) {
  CoherenceDirectory dir(3);
  const core::GlobalArrayId id = dir.register_array(1_MiB, "x");
  dir.add_worker_copy(id, 0);
  dir.add_worker_copy(id, 2);

  const WriteEffect e = dir.written_on_controller(id);
  EXPECT_EQ(e.invalidations, 2u);
  EXPECT_TRUE(e.ownership_transfer);
  EXPECT_TRUE(dir.only_on_controller(id));
  EXPECT_TRUE(dir.invalidated_on_worker(id, 0));
  EXPECT_TRUE(dir.invalidated_on_worker(id, 2));
  EXPECT_FALSE(dir.invalidated_on_worker(id, 1));  // held nothing to lose
}

TEST(DirectoryWriteTest, RemoveWorkerCopyRefusesSoleHolder) {
  CoherenceDirectory dir(2);
  const core::GlobalArrayId id = dir.register_array(1_MiB, "x");
  dir.add_worker_copy(id, 0);
  (void)dir.written_on_worker(id, 0);  // worker 0 is now the only holder
  EXPECT_THROW(dir.remove_worker_copy(id, 0), Error);
  // And removing a copy the worker never held fails too.
  EXPECT_THROW(dir.remove_worker_copy(id, 1), Error);
  EXPECT_TRUE(dir.up_to_date_on_worker(id, 0)) << "failed removal must not mutate";
}

// ---------------------------------------------------------------------------
// End-to-end contention serving
// ---------------------------------------------------------------------------

core::GroutConfig contention_cluster() {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node.gpu_count = 2;
  cfg.cluster.worker_node.device.memory = 64_MiB;
  cfg.cluster.worker_node.tuning.page_size = 1_MiB;
  return cfg;
}

ServeConfig contention_serve_config() {
  ServeConfig cfg;
  ContentionSpec c;
  c.theta = 0.9;
  c.read_fraction = 0.8;  // write-heavy so invalidations show up fast
  c.shared_fraction = 0.9;
  c.pool_arrays = 8;
  c.array_bytes = 1_MiB;
  c.ops = 8;
  c.keys_per_op = 2;
  cfg.contention = c;
  for (int k = 0; k < 2; ++k) {
    TenantSpec t;
    t.name = std::string("t") + std::to_string(k);
    t.arrival = serve::parse_arrival("closed:2");
    t.programs = 6;
    cfg.tenants.push_back(std::move(t));
  }
  return cfg;
}

TEST(ContentionServeTest, GeneratesDirectoryTrafficAndDrains) {
  core::GroutRuntime rt(contention_cluster());
  ServeScheduler sched(rt, contention_serve_config());
  const ServeReport rep = sched.run();

  EXPECT_TRUE(rep.drained);
  EXPECT_EQ(rep.total_completed, 12u);
  EXPECT_EQ(sched.live_programs(), 0u);  // per-program shapes released
  for (const serve::TenantReport& t : rep.tenants) {
    EXPECT_EQ(t.completed, 6u);
    EXPECT_GT(t.latency_p99_ms, 0.0);
  }
  // Cross-tenant writes to the shared pool must surface as directory
  // traffic — a disjoint-tenant run would leave all of these at zero.
  const core::SchedulerMetrics& m = rt.metrics();
  EXPECT_GT(m.invalidations, 0u);
  EXPECT_GT(m.ownership_transfers, 0u);
  EXPECT_GT(m.invalidated_bytes, 0u);
}

TEST(ContentionServeTest, SharedPoolStaysUnowned) {
  core::GroutRuntime rt(contention_cluster());
  ServeScheduler sched(rt, contention_serve_config());
  (void)sched.run();

  // Pool arrays are registered first (before any tenant program's privates)
  // and must never acquire a tenant owner, or cross-tenant access would be
  // an isolation violation.
  const core::CoherenceDirectory& dir = rt.directory();
  const std::size_t pool = contention_serve_config().contention->pool_arrays;
  ASSERT_GE(dir.array_count(), pool);
  for (core::GlobalArrayId id = 0; id < pool; ++id) {
    EXPECT_EQ(dir.name_of(id).rfind("shared/", 0), 0u) << "array " << id << " not a pool array";
    EXPECT_EQ(rt.governor().array_owner(id), kNoTenant)
        << "shared array " << dir.name_of(id) << " acquired an owner";
  }
}

/// The golden bar: the whole contention scenario is deterministic — two
/// runs with the same config produce bit-identical SLO ledgers and
/// directory-traffic counters.
TEST(ContentionServeTest, GoldenRunIsBitIdentical) {
  auto run_once = [](ServeReport& rep, core::SchedulerMetrics& metrics) {
    core::GroutRuntime rt(contention_cluster());
    ServeScheduler sched(rt, contention_serve_config());
    rep = sched.run();
    metrics = rt.metrics();
  };
  ServeReport a, b;
  core::SchedulerMetrics ma, mb;
  run_once(a, ma);
  run_once(b, mb);

  EXPECT_EQ(a.elapsed.ns(), b.elapsed.ns());
  EXPECT_EQ(a.total_completed, b.total_completed);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].ces_dispatched, b.tenants[i].ces_dispatched);
    EXPECT_EQ(a.tenants[i].completed, b.tenants[i].completed);
    EXPECT_EQ(a.tenants[i].latency_p50_ms, b.tenants[i].latency_p50_ms);
    EXPECT_EQ(a.tenants[i].latency_p95_ms, b.tenants[i].latency_p95_ms);
    EXPECT_EQ(a.tenants[i].latency_p99_ms, b.tenants[i].latency_p99_ms);
    EXPECT_EQ(a.tenants[i].peak_resident, b.tenants[i].peak_resident);
  }
  EXPECT_EQ(ma.invalidations, mb.invalidations);
  EXPECT_EQ(ma.ownership_transfers, mb.ownership_transfers);
  EXPECT_EQ(ma.coherence_refetches, mb.coherence_refetches);
  EXPECT_EQ(ma.invalidated_bytes, mb.invalidated_bytes);
  EXPECT_EQ(ma.refetched_bytes, mb.refetched_bytes);
  EXPECT_EQ(ma.stale_evictions, mb.stale_evictions);
  EXPECT_EQ(ma.bytes_stale_evicted, mb.bytes_stale_evicted);
}

/// Contention shaping responds to theta: a skewed run produces at least as
/// much directory traffic as a uniform one on the same tight-memory cluster
/// (the fig11 monotonicity property, at test scale a weak inequality).
TEST(ContentionServeTest, SkewDoesNotReduceDirectoryTraffic) {
  auto traffic_at = [](double theta) {
    core::GroutConfig gcfg = contention_cluster();
    gcfg.worker_mem = 6_MiB;  // tight budget: cold replicas die of capacity
    core::GroutRuntime rt(std::move(gcfg));
    ServeConfig cfg = contention_serve_config();
    cfg.contention->theta = theta;
    ServeScheduler sched(rt, cfg);
    (void)sched.run();
    return rt.metrics().invalidations + rt.metrics().ownership_transfers;
  };
  EXPECT_GE(traffic_at(0.9), traffic_at(0.0));
}

}  // namespace
}  // namespace grout
