// Multi-tenant serving frontend: admission control, WFQ fairness, tenant
// isolation, shed accounting and determinism.
//
// Under saturation, per-tenant dispatched work must track the 2:1:1
// weights within 15%; and a program that does not fit the cluster budget
// must queue or shed at admission.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "core/grout_runtime.hpp"
#include "serve/serve.hpp"

namespace grout {
namespace {

using serve::ArrivalSpec;
using serve::ServeConfig;
using serve::ServeReport;
using serve::ServeScheduler;
using serve::TenantReport;
using serve::TenantSpec;

/// Two small nodes; `worker_mem` 0 leaves the governor unbounded.
core::GroutConfig small_cluster(Bytes worker_mem = Bytes{0}) {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node.gpu_count = 2;
  cfg.cluster.worker_node.device.memory = 64_MiB;
  cfg.cluster.worker_node.tuning.page_size = 1_MiB;
  cfg.worker_mem = worker_mem;
  return cfg;
}

/// A Black-Scholes tenant: 6 MiB programs of two CEs each (2 partitions).
TenantSpec bs_tenant(const std::string& name, double weight, std::size_t programs,
                     const std::string& arrival) {
  TenantSpec t;
  t.name = name;
  t.weight = weight;
  t.workload = workloads::WorkloadKind::BlackScholes;
  t.params.footprint = 6_MiB;
  t.params.partitions = 2;
  t.params.iterations = 1;
  t.arrival = serve::parse_arrival(arrival);
  t.programs = programs;
  return t;
}

// ---------------------------------------------------------------------------
// Arrival-spec parsing
// ---------------------------------------------------------------------------

TEST(ServeArrivalTest, ParsesClosedAndPoisson) {
  ArrivalSpec a = serve::parse_arrival("closed");
  EXPECT_EQ(a.kind, ArrivalSpec::Kind::Closed);
  EXPECT_EQ(a.depth, 1u);

  a = serve::parse_arrival("closed:3");
  EXPECT_EQ(a.kind, ArrivalSpec::Kind::Closed);
  EXPECT_EQ(a.depth, 3u);
  EXPECT_EQ(serve::to_string(a), "closed:3");

  a = serve::parse_arrival("poisson:2.5");
  EXPECT_EQ(a.kind, ArrivalSpec::Kind::Poisson);
  EXPECT_DOUBLE_EQ(a.rate_hz, 2.5);
}

TEST(ServeArrivalTest, RejectsMalformedSpecs) {
  EXPECT_THROW(serve::parse_arrival("bogus"), std::exception);
  EXPECT_THROW(serve::parse_arrival("closed:0"), std::exception);
  EXPECT_THROW(serve::parse_arrival("poisson"), std::exception);
  EXPECT_THROW(serve::parse_arrival("poisson:-1"), std::exception);
  // An unknown kind is bad input, not a broken invariant.
  EXPECT_THROW(serve::parse_arrival("uniform:2"), InvalidArgument);
}

TEST(ServeArrivalTest, RejectsNonNumericAndDegenerateRates) {
  // Regression: these used to reach the scheduler, where rate 0 makes the
  // Poisson interarrival gap infinite — the run would hang at the horizon
  // instead of failing at parse time.
  EXPECT_THROW(serve::parse_arrival("poisson:0"), Error);
  EXPECT_THROW(serve::parse_arrival("poisson:abc"), Error);
  EXPECT_THROW(serve::parse_arrival("poisson:inf"), Error);
  EXPECT_THROW(serve::parse_arrival("poisson:nan"), Error);
  EXPECT_THROW(serve::parse_arrival("closed:x"), Error);
  EXPECT_THROW(serve::parse_arrival("closed:-2"), Error);
  // Regression: std::stod stopped at the first bad character, so these
  // parsed as rates 1.5 and 2 and the run went ahead.
  EXPECT_THROW(serve::parse_arrival("poisson:1.5x"), Error);
  EXPECT_THROW(serve::parse_arrival("poisson:2hz"), Error);
  EXPECT_THROW(serve::parse_arrival("closed:2x"), Error);
  EXPECT_THROW(serve::parse_arrival("closed:99999999999999999999999"), Error);
}

// ---------------------------------------------------------------------------
// Config validation at scheduler construction
// ---------------------------------------------------------------------------

TEST(ServeConfigTest, RejectsNonPositiveWeights) {
  // Regression: weight 0 used to divide the WFQ vtime increment (1/weight)
  // into infinity, silently starving every other tenant.
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    core::GroutRuntime rt(small_cluster());
    ServeConfig cfg;
    cfg.tenants.push_back(bs_tenant("a", bad, 1, "closed:1"));
    EXPECT_THROW(ServeScheduler(rt, cfg), Error) << "weight " << bad << " accepted";
  }
}

TEST(ServeConfigTest, RejectsDegenerateProgrammaticArrivals) {
  // Programmatic ArrivalSpecs bypass parse_arrival, so the scheduler must
  // re-validate: rate must be finite and positive, depth at least 1.
  for (const double bad_rate : {0.0, -3.0, std::numeric_limits<double>::infinity()}) {
    core::GroutRuntime rt(small_cluster());
    ServeConfig cfg;
    TenantSpec t = bs_tenant("a", 1.0, 1, "closed:1");
    t.arrival.kind = ArrivalSpec::Kind::Poisson;
    t.arrival.rate_hz = bad_rate;
    cfg.tenants.push_back(std::move(t));
    EXPECT_THROW(ServeScheduler(rt, cfg), Error) << "rate " << bad_rate << " accepted";
  }
  core::GroutRuntime rt(small_cluster());
  ServeConfig cfg;
  TenantSpec t = bs_tenant("a", 1.0, 1, "closed:1");
  t.arrival.depth = 0;
  cfg.tenants.push_back(std::move(t));
  EXPECT_THROW(ServeScheduler(rt, cfg), Error);
}

// ---------------------------------------------------------------------------
// End-to-end serving runs
// ---------------------------------------------------------------------------

TEST(ServeTest, ClosedLoopDrainsAndFillsSloLedger) {
  core::GroutRuntime rt(small_cluster());
  ServeConfig cfg;
  cfg.tenants.push_back(bs_tenant("a", 1.0, 4, "closed:2"));
  cfg.tenants.push_back(bs_tenant("b", 1.0, 4, "closed:2"));
  ServeScheduler sched(rt, cfg);
  const ServeReport rep = sched.run();

  EXPECT_TRUE(rep.drained);
  EXPECT_EQ(rep.total_completed, 8u);
  EXPECT_EQ(rep.total_shed, 0u);
  EXPECT_EQ(sched.live_programs(), 0u);  // every finished program released
  for (const TenantReport& t : rep.tenants) {
    EXPECT_EQ(t.submitted, 4u);
    EXPECT_EQ(t.admitted, 4u);
    EXPECT_EQ(t.completed, 4u);
    EXPECT_EQ(t.ces_dispatched, 8u);  // 2 CEs per program
    EXPECT_GT(t.latency_p50_ms, 0.0);
    EXPECT_LE(t.latency_p50_ms, t.latency_p95_ms);
    EXPECT_LE(t.latency_p95_ms, t.latency_p99_ms);
    EXPECT_GT(t.throughput_per_s, 0.0);
    EXPECT_GT(t.peak_resident, 0u);
  }
}

TEST(ServeTest, PoissonOpenLoopDrains) {
  core::GroutRuntime rt(small_cluster());
  ServeConfig cfg;
  cfg.tenants.push_back(bs_tenant("a", 1.0, 5, "poisson:2.0"));
  cfg.tenants.push_back(bs_tenant("b", 1.0, 5, "poisson:0.5"));
  ServeScheduler sched(rt, cfg);
  const ServeReport rep = sched.run();

  EXPECT_TRUE(rep.drained);
  EXPECT_EQ(rep.total_completed, 10u);
  EXPECT_EQ(rep.total_shed, 0u);
  EXPECT_EQ(sched.live_programs(), 0u);
  // Open loop: tenants arrive on their own clocks, both finish everything.
  for (const TenantReport& t : rep.tenants) EXPECT_EQ(t.completed, 5u);
}

TEST(ServeTest, TenantTaggedTraceSpansRecorded) {
  core::GroutConfig gcfg = small_cluster();
  gcfg.cluster.trace = true;
  core::GroutRuntime rt(std::move(gcfg));
  ServeConfig cfg;
  cfg.tenants.push_back(bs_tenant("a", 1.0, 2, "closed:1"));
  cfg.tenants.push_back(bs_tenant("b", 1.0, 2, "closed:1"));
  ServeScheduler sched(rt, cfg);
  const ServeReport rep = sched.run();
  ASSERT_TRUE(rep.drained);

  // Every program leaves an admit and a program-done span tagged with its
  // tenant id on the serve timeline.
  std::size_t admits = 0, dones = 0;
  for (const sim::TraceSpan& s : rt.cluster().tracer().spans()) {
    if (s.location != "serve") continue;
    EXPECT_NE(s.tenant, kNoTenant) << "untagged serve span " << s.name;
    if (s.name.rfind("admit:", 0) == 0) ++admits;
    if (s.name.rfind("program-done:", 0) == 0) ++dones;
  }
  EXPECT_EQ(admits, 4u);
  EXPECT_EQ(dones, 4u);
}

// ---------------------------------------------------------------------------
// Program shapes
// ---------------------------------------------------------------------------

TEST(ServeShapeTest, ProgramsOfOneTenantDispatchTheSameCes) {
  // A tenant's programs share one shape; a tenant with other params gets
  // its own. Group the Global DAG's kernel CEs by program (array names are
  // "<tenant>/p<seq>/<array>") and compare each program's CE sequence:
  // names, then every param's array, bytes and access mode.
  core::GroutRuntime rt(small_cluster());
  ServeConfig cfg;
  cfg.tenants.push_back(bs_tenant("a", 1.0, 3, "closed:2"));
  TenantSpec b = bs_tenant("b", 1.0, 3, "closed:2");
  b.params.footprint = 9_MiB;
  b.params.partitions = 3;
  cfg.tenants.push_back(std::move(b));
  ServeScheduler sched(rt, cfg);
  ASSERT_TRUE(sched.run().drained);

  std::map<std::string, std::vector<std::string>> ces_of;
  const dag::DependencyDag& dag = rt.global_dag();
  for (dag::VertexId v = 0; v < dag.size(); ++v) {
    const dag::DependencyDag::Vertex vertex = dag.vertex(v);
    if (vertex.label.rfind("host-init:", 0) == 0) continue;
    std::string program;
    std::string ce = vertex.label;
    for (const dag::AccessSummary& a : vertex.accesses) {
      const std::string& name = rt.directory().name_of(a.array);
      const std::size_t cut = name.find('/', name.find('/') + 1);
      program = name.substr(0, cut);
      ce += str_cat(" ", name.substr(cut + 1), "/",
                    std::to_string(rt.directory().bytes_of(a.array)), a.write ? "/w" : "/r");
    }
    ces_of[program].push_back(ce);
  }
  ASSERT_EQ(ces_of.size(), 6u);
  EXPECT_EQ(ces_of["a/p0"].size(), 2u);
  EXPECT_EQ(ces_of["b/p0"].size(), 3u);
  for (const char* tenant : {"a", "b"}) {
    const std::string first = std::string(tenant) + "/p0";
    for (const char* seq : {"/p1", "/p2"}) {
      EXPECT_EQ(ces_of[std::string(tenant) + seq], ces_of[first]) << tenant << seq;
    }
  }
  EXPECT_NE(ces_of["a/p0"], ces_of["b/p0"]);
}

// ---------------------------------------------------------------------------
// Weighted fair queuing
// ---------------------------------------------------------------------------

TEST(ServeWfqTest, WeightedShareUnderSaturationTracksWeights) {
  core::GroutRuntime rt(small_cluster());
  ServeConfig cfg;
  // Deep closed-loop backlogs that cannot finish before the horizon, and a
  // two-slot dispatch window: every slot is contended, so WFQ's virtual
  // time alone decides who runs. 2:1:1 weights must yield 2:1:1 dispatch.
  cfg.tenants.push_back(bs_tenant("heavy", 2.0, 100000, "closed:4"));
  cfg.tenants.push_back(bs_tenant("light1", 1.0, 100000, "closed:4"));
  cfg.tenants.push_back(bs_tenant("light2", 1.0, 100000, "closed:4"));
  cfg.max_outstanding_ces = 2;
  cfg.horizon = SimTime::from_seconds(2.0);
  ServeScheduler sched(rt, cfg);
  const ServeReport rep = sched.run();

  EXPECT_FALSE(rep.drained);  // the horizon must cut a saturated system
  std::uint64_t total = 0;
  for (const TenantReport& t : rep.tenants) total += t.ces_dispatched;
  ASSERT_GE(total, 40u) << "not enough dispatches to measure fairness";

  const double weight_sum = 4.0;
  for (const TenantReport& t : rep.tenants) {
    const double share = static_cast<double>(t.ces_dispatched) / static_cast<double>(total);
    const double expected = t.weight / weight_sum;
    EXPECT_NEAR(share, expected, 0.15 * expected)
        << t.name << " got " << t.ces_dispatched << " of " << total << " slots";
  }
  // Nobody starves: under strict WFQ a backlogged tenant is passed over at
  // most a handful of consecutive rounds, never unboundedly.
  for (const TenantReport& t : rep.tenants) EXPECT_LE(t.starvation_max, 8u);
}

// ---------------------------------------------------------------------------
// Admission control: the cluster budget queues or sheds
// ---------------------------------------------------------------------------

TEST(ServeIsolationTest, HopelessProgramsShedImmediately) {
  // 2 workers x 20 MiB: a 40 MiB cluster budget.
  core::GroutRuntime rt(small_cluster(/*worker_mem=*/20_MiB));
  ServeConfig cfg;
  cfg.tenants.push_back(bs_tenant("victim", 1.0, 3, "closed:1"));
  // 48 MiB programs can never fit the cluster budget: shed on arrival
  // rather than clogging the queue or leaning on the victim's memory.
  TenantSpec greedy_spec = bs_tenant("greedy", 1.0, 3, "closed:3");
  greedy_spec.params.footprint = 48_MiB;
  cfg.tenants.push_back(greedy_spec);
  ServeScheduler sched(rt, cfg);
  const ServeReport rep = sched.run();

  ASSERT_TRUE(rep.drained);
  const TenantReport& victim = rep.tenants[0];
  const TenantReport& greedy = rep.tenants[1];
  EXPECT_EQ(victim.completed, 3u);
  EXPECT_EQ(victim.shed, 0u);
  EXPECT_EQ(greedy.submitted, 3u);
  EXPECT_EQ(greedy.admitted, 0u);
  EXPECT_EQ(greedy.completed, 0u);
  EXPECT_EQ(greedy.shed, 3u);
  EXPECT_EQ(greedy.ces_dispatched, 0u);
}

TEST(ServeAdmissionTest, BoundedQueueShedsOverflow) {
  // 2 workers x 4 MiB: an 8 MiB cluster budget admits one 6 MiB program
  // at a time.
  core::GroutRuntime rt(small_cluster(/*worker_mem=*/4_MiB));
  ServeConfig cfg;
  // The closed window submits every program at t=0: one admits, a full
  // admission queue waits behind it, and the rest shed.
  const std::size_t programs = serve::kMaxQueuedPrograms + 4;
  cfg.tenants.push_back(
      bs_tenant("burst", 1.0, programs, str_cat("closed:", std::to_string(programs))));
  ServeScheduler sched(rt, cfg);
  const ServeReport rep = sched.run();

  ASSERT_TRUE(rep.drained);
  const TenantReport& t = rep.tenants[0];
  EXPECT_EQ(t.submitted, programs);
  EXPECT_EQ(t.completed, 1 + serve::kMaxQueuedPrograms);
  EXPECT_EQ(t.shed, 3u);
  EXPECT_EQ(t.completed + t.shed, t.submitted);
  EXPECT_GT(t.queue_wait_mean_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(ServeDeterminismTest, SameConfigTwiceIsBitIdentical) {
  const auto run = [] {
    core::GroutRuntime rt(small_cluster());
    ServeConfig cfg;
    cfg.tenants.push_back(bs_tenant("a", 2.0, 4, "poisson:1.5"));
    cfg.tenants.push_back(bs_tenant("b", 1.0, 4, "closed:2"));
    cfg.max_outstanding_ces = 3;
    ServeScheduler sched(rt, cfg);
    return sched.run();
  };
  const ServeReport a = run();
  const ServeReport b = run();

  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.total_shed, b.total_shed);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    const TenantReport& x = a.tenants[i];
    const TenantReport& y = b.tenants[i];
    EXPECT_EQ(x.submitted, y.submitted);
    EXPECT_EQ(x.admitted, y.admitted);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.ces_dispatched, y.ces_dispatched);
    EXPECT_EQ(x.latency_p50_ms, y.latency_p50_ms);
    EXPECT_EQ(x.latency_p95_ms, y.latency_p95_ms);
    EXPECT_EQ(x.latency_p99_ms, y.latency_p99_ms);
    EXPECT_EQ(x.queue_wait_mean_ms, y.queue_wait_mean_ms);
    EXPECT_EQ(x.starvation_max, y.starvation_max);
    EXPECT_EQ(x.peak_resident, y.peak_resident);
  }
}

}  // namespace
}  // namespace grout
