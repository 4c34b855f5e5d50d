// Figure 9: overhead of the node-level scheduling policies inside the
// Controller for an increasing number of worker nodes (up to 256).
//
// Unlike the other benches, this measures REAL wall-clock time of the
// actual scheduler code path under google-benchmark, because the
// scheduler is real code, not a simulation model. Paper shape: the static
// policies (round-robin, vector-step) are flat and well under 30 us; the
// min-transfer-* policies grow with the node count up to ~hundreds of
// microseconds at 256 nodes.
//
// Three bench families, all emitted into BENCH_sched.json:
//   bench_*            — policy decision + CE marshalling (the original
//                        Figure 9 path), plus bench_*_prepr running the
//                        pre-fast-path oracle implementations from
//                        tests/support/naive_oracles.hpp so the speedup is
//                        measured against the old code in the same build.
//   bench_launch_*     — the full GroutRuntime::launch() path (DAG insert,
//                        placement, movement planning, marshalling) with
//                        the simulation drained off the timed path.
//   bench_dag_*        — Global-DAG insertion cost alone under stress
//                        shapes (long chains, wide fan-out, random mixed,
//                        read-mostly inputs) from 1k to >100k CEs;
//                        per-item time must stay flat as the program
//                        grows.
//   bench_uvm_*        — UvmSpace::device_access replaying one streamed
//                        parameter: every page a resident hit
//                        (resident_stream) or every page a fault that
//                        evicts (thrash). Reported as ns_per_page.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/grout_runtime.hpp"
#include "core/policies.hpp"
#include "dag/dependency_dag.hpp"
#include "net/fabric.hpp"
#include "net/message.hpp"
#include "sim/simulator.hpp"
#include "tests/support/naive_oracles.hpp"
#include "uvm/uvm_space.hpp"

namespace {

using namespace grout;

// ---------------------------------------------------------------------------
// Policy decision + marshalling (the isolated Figure 9 path)
// ---------------------------------------------------------------------------

/// Synthetic controller state: W workers, a directory of arrays whose
/// copies are scattered across the cluster, and the probed bandwidth
/// matrix.
struct Fixture {
  explicit Fixture(std::size_t workers, std::size_t arrays = 64)
      : directory(workers), workers_count{workers} {
    std::vector<net::NicSpec> nics;
    nics.push_back(net::NicSpec{"controller", Bandwidth::mbit_per_sec(8000.0),
                                SimTime::from_us(50.0)});
    for (std::size_t i = 0; i < workers; ++i) {
      nics.push_back(net::NicSpec{str_cat("worker", std::to_string(i)),
                                  Bandwidth::mbit_per_sec(4000.0), SimTime::from_us(50.0)});
    }
    fabric = std::make_unique<net::NetworkFabric>(sim, std::move(nics));

    Rng rng(0xf19u);
    for (std::size_t a = 0; a < arrays; ++a) {
      const auto id = directory.register_array(1_GiB + a * 16_MiB, str_cat("a", std::to_string(a)));
      // Scatter 1-3 worker copies per array.
      const std::size_t copies = 1 + rng.next_below(3);
      for (std::size_t c = 0; c < copies; ++c) {
        directory.add_worker_copy(id, rng.next_below(workers));
      }
    }
    // A rotating set of synthetic CEs with 4 parameters each.
    for (std::size_t i = 0; i < 32; ++i) {
      std::vector<core::PlacementParam> params;
      gpusim::KernelLaunchSpec spec;
      spec.name = "synthetic-kernel";
      spec.flops = 1e9;
      for (int p = 0; p < 4; ++p) {
        const auto array = static_cast<core::GlobalArrayId>(rng.next_below(arrays));
        params.push_back(core::PlacementParam{array, directory.bytes_of(array), p != 3});
        spec.params.push_back(uvm::ParamAccess{
            array, uvm::ByteRange{},
            p != 3 ? uvm::AccessMode::Read : uvm::AccessMode::Write,
            uvm::StreamingPattern{}});
      }
      ces.push_back(std::move(params));
      specs.push_back(std::move(spec));
    }
  }

  core::PlacementQuery query(std::size_t ce) const {
    core::PlacementQuery q;
    q.params = &ces[ce % ces.size()];
    q.directory = &directory;
    q.fabric = fabric.get();
    q.workers = workers_count;
    return q;
  }

  sim::Simulator sim;
  core::CoherenceDirectory directory;
  std::unique_ptr<net::NetworkFabric> fabric;
  std::vector<std::vector<core::PlacementParam>> ces;
  std::vector<gpusim::KernelLaunchSpec> specs;
  std::size_t workers_count;
};

/// The measured path = policy decision + CE marshalling (the controller's
/// per-CE work before the descriptor goes on the wire).
void run_policy_bench(benchmark::State& state, core::PolicyKind kind) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  Fixture fixture(workers);
  auto policy = core::make_policy(kind, {1, 2, 3});
  std::vector<std::byte> wire;
  std::size_t ce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->assign(fixture.query(ce)));
    benchmark::DoNotOptimize(net::encode_ce(fixture.specs[ce % fixture.specs.size()], wire));
    ++ce;
  }
  state.SetLabel(to_string(kind));
}

void bench_round_robin(benchmark::State& s) { run_policy_bench(s, core::PolicyKind::RoundRobin); }
void bench_vector_step(benchmark::State& s) { run_policy_bench(s, core::PolicyKind::VectorStep); }
void bench_min_size(benchmark::State& s) {
  run_policy_bench(s, core::PolicyKind::MinTransferSize);
}
void bench_min_time(benchmark::State& s) {
  run_policy_bench(s, core::PolicyKind::MinTransferTime);
}

/// Same measured path, but through the pre-fast-path oracle policy (the
/// original per-candidate-worker loop with a checked bandwidth() probe per
/// (holder, worker) pair).
/// The fast-path speedup is bench_min_*_prepr / bench_min_* at equal node
/// counts, measured in one build.
void run_oracle_policy_bench(benchmark::State& state, bool by_time) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  Fixture fixture(workers);
  oracle::OracleMinTransferPolicy policy(
      by_time, core::exploration_threshold(core::ExplorationLevel::Medium));
  std::vector<std::byte> wire;
  std::size_t ce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.assign(fixture.query(ce)));
    benchmark::DoNotOptimize(net::encode_ce(fixture.specs[ce % fixture.specs.size()], wire));
    ++ce;
  }
  state.SetLabel(by_time ? "min-transfer-time (pre-PR)" : "min-transfer-size (pre-PR)");
}

void bench_min_size_prepr(benchmark::State& s) { run_oracle_policy_bench(s, false); }
void bench_min_time_prepr(benchmark::State& s) { run_oracle_policy_bench(s, true); }

void node_counts(benchmark::internal::Benchmark* b) {
  for (const int n : {2, 4, 8, 16, 32, 64, 128, 256}) b->Arg(n);
}

BENCHMARK(bench_round_robin)->Apply(node_counts);
BENCHMARK(bench_vector_step)->Apply(node_counts);
BENCHMARK(bench_min_size)->Apply(node_counts);
BENCHMARK(bench_min_time)->Apply(node_counts);
BENCHMARK(bench_min_size_prepr)->Apply(node_counts);
BENCHMARK(bench_min_time_prepr)->Apply(node_counts);

// ---------------------------------------------------------------------------
// Full launch() path: DAG insertion + placement + movement planning +
// marshalling, against a live (but drained-off-the-clock) cluster.
// ---------------------------------------------------------------------------

/// Launches rotate over 32 synthetic 4-param CEs (3 reads, 1 write) across
/// 64 arrays. The event loop is drained every 512 launches with timing
/// paused, so the measurement isolates the controller's per-CE work.
void run_launch_bench(benchmark::State& state, core::PolicyKind kind) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  core::GroutConfig cfg;
  cfg.cluster.workers = workers;
  cfg.cluster.worker_node.gpu_count = 2;
  cfg.policy = kind;
  cfg.step_vector = {1, 2, 3};
  cfg.run_cap = SimTime::from_seconds(1e8);
  cfg.worker_mem = Bytes{0};  // unbounded replica caches: no governor noise
  core::GroutRuntime rt(std::move(cfg));

  Rng rng(0xf19u);
  constexpr std::size_t kArrays = 64;
  std::vector<core::GlobalArrayId> arrays;
  arrays.reserve(kArrays);
  for (std::size_t a = 0; a < kArrays; ++a) {
    arrays.push_back(rt.alloc(16_MiB, str_cat("a", std::to_string(a))));
    rt.host_init(arrays.back());
  }
  std::vector<gpusim::KernelLaunchSpec> specs;
  for (std::size_t i = 0; i < 32; ++i) {
    gpusim::KernelLaunchSpec spec;
    spec.name = "synthetic-kernel";
    spec.flops = 1e7;
    for (int p = 0; p < 4; ++p) {
      const auto array = arrays[rng.next_below(kArrays)];
      spec.params.push_back(uvm::ParamAccess{
          array, uvm::ByteRange{},
          p != 3 ? uvm::AccessMode::Read : uvm::AccessMode::Write,
          uvm::StreamingPattern{}});
    }
    specs.push_back(std::move(spec));
  }

  std::size_t ce = 0;
  std::size_t since_drain = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.launch(specs[ce % specs.size()]));
    ++ce;
    if (++since_drain >= 512) {
      state.PauseTiming();
      if (!rt.synchronize()) state.SkipWithError("run cap expired during drain");
      since_drain = 0;
      state.ResumeTiming();
    }
  }
  state.SetLabel(to_string(kind));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bench_launch_round_robin(benchmark::State& s) {
  run_launch_bench(s, core::PolicyKind::RoundRobin);
}
void bench_launch_vector_step(benchmark::State& s) {
  run_launch_bench(s, core::PolicyKind::VectorStep);
}
void bench_launch_min_size(benchmark::State& s) {
  run_launch_bench(s, core::PolicyKind::MinTransferSize);
}
void bench_launch_min_time(benchmark::State& s) {
  run_launch_bench(s, core::PolicyKind::MinTransferTime);
}

BENCHMARK(bench_launch_round_robin)->Apply(node_counts);
BENCHMARK(bench_launch_vector_step)->Apply(node_counts);
BENCHMARK(bench_launch_min_size)->Apply(node_counts);
BENCHMARK(bench_launch_min_time)->Apply(node_counts);

// ---------------------------------------------------------------------------
// DAG-stress: Global-DAG insertion cost alone, 1k to >100k CEs. items/s in
// the output is insertions per second; flat per-item time across the Arg
// range is the acceptance criterion (insertion must not degrade as the
// program grows).
// ---------------------------------------------------------------------------

using Stream = std::vector<std::vector<dag::AccessSummary>>;

/// CE i reads the previous chain array and writes the next (rolling over
/// 64 arrays, so rewrites — and their redundant-edge filtering — are in
/// steady state well before the 1k mark): maximal dependency depth, one
/// kept edge per CE.
Stream chain_stream(std::size_t n) {
  Stream s;
  s.reserve(n);
  s.push_back({dag::AccessSummary{0, true}});
  for (std::size_t i = 1; i < n; ++i) {
    s.push_back({dag::AccessSummary{static_cast<uvm::ArrayId>((i - 1) % 64), false},
                 dag::AccessSummary{static_cast<uvm::ArrayId>(i % 64), true}});
  }
  return s;
}

/// Blocks of one writer + 255 readers over 64 rotating arrays: every
/// rewrite faces a 255-entry WAR candidate list.
Stream fanout_stream(std::size_t n) {
  Stream s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto array = static_cast<uvm::ArrayId>((i / 256) % 64);
    s.push_back({dag::AccessSummary{array, i % 256 == 0}});
  }
  return s;
}

/// Random 3-reads + 1-write CEs over 128 arrays (the launch-bench shape
/// without the runtime around it; every array is rewritten every ~128 CEs,
/// so steady state is reached before the smallest Arg).
Stream mixed_stream(std::size_t n) {
  Rng rng(0xda6u);
  Stream s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<dag::AccessSummary> accesses;
    for (int p = 0; p < 4; ++p) {
      accesses.push_back(
          dag::AccessSummary{static_cast<uvm::ArrayId>(rng.next_below(128)), p == 3});
    }
    s.push_back(std::move(accesses));
  }
  return s;
}

/// The CG / host_init shape: 16 inputs written once up front and read
/// ever after, plus a rolling chain over 64 arrays. CE i reads input
/// i % 16 and the previous chain array and writes the next, so every
/// insert has a last writer from the start of the program as a candidate
/// and a reader of that input at most 16 chain links back.
Stream read_mostly_stream(std::size_t n) {
  constexpr uvm::ArrayId kInputs = 16;
  Stream s;
  s.reserve(n);
  for (uvm::ArrayId a = 0; a < kInputs && s.size() < n; ++a) {
    s.push_back({dag::AccessSummary{a, true}});
  }
  for (std::size_t i = s.size(); i < n; ++i) {
    s.push_back({dag::AccessSummary{static_cast<uvm::ArrayId>(i % kInputs), false},
                 dag::AccessSummary{static_cast<uvm::ArrayId>(kInputs + (i - 1) % 64), false},
                 dag::AccessSummary{static_cast<uvm::ArrayId>(kInputs + i % 64), true}});
  }
  return s;
}

void run_dag_bench(benchmark::State& state, Stream (*gen)(std::size_t)) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Stream stream = gen(n);
  for (auto _ : state) {
    dag::DependencyDag dag;
    for (const auto& accesses : stream) {
      benchmark::DoNotOptimize(dag.add("ce", accesses));
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void bench_dag_chain(benchmark::State& s) { run_dag_bench(s, chain_stream); }
void bench_dag_fanout(benchmark::State& s) { run_dag_bench(s, fanout_stream); }
void bench_dag_mixed(benchmark::State& s) { run_dag_bench(s, mixed_stream); }
void bench_dag_read_mostly(benchmark::State& s) { run_dag_bench(s, read_mostly_stream); }

/// Pre-fast-path DAG (pairwise filter_redundant, unbounded reader lists).
/// Quadratic — only run at sizes where it terminates in reasonable time;
/// compare per-item times against bench_dag_* at equal Args.
void run_naive_dag_bench(benchmark::State& state, Stream (*gen)(std::size_t)) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Stream stream = gen(n);
  for (auto _ : state) {
    oracle::NaiveDag dag;
    for (const auto& accesses : stream) {
      benchmark::DoNotOptimize(dag.add(accesses));
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel("pre-PR");
}

void bench_dag_chain_prepr(benchmark::State& s) { run_naive_dag_bench(s, chain_stream); }
void bench_dag_mixed_prepr(benchmark::State& s) { run_naive_dag_bench(s, mixed_stream); }

void dag_sizes(benchmark::internal::Benchmark* b) {
  for (const int n : {1 << 10, 1 << 14, 1 << 17}) b->Arg(n);
}

BENCHMARK(bench_dag_chain)->Apply(dag_sizes);
BENCHMARK(bench_dag_fanout)->Apply(dag_sizes);
BENCHMARK(bench_dag_mixed)->Apply(dag_sizes);
BENCHMARK(bench_dag_read_mostly)->Apply(dag_sizes);
BENCHMARK(bench_dag_chain_prepr)->Arg(1 << 10)->Arg(1 << 12);
BENCHMARK(bench_dag_mixed_prepr)->Arg(1 << 10)->Arg(1 << 12);

// ---------------------------------------------------------------------------
// UVM page replay: the simulator's per-page cost of device_access, at the
// two extremes of its hit rate. Arg = pages streamed per access.
// ---------------------------------------------------------------------------

/// One 2 MiB-page device holding `capacity_pages` pages and one
/// host-populated array of `array_pages` pages.
struct UvmRig {
  UvmRig(std::size_t capacity_pages, std::size_t array_pages) {
    uvm::UvmTuning tuning;
    uvm::DeviceConfig device;
    device.name = "gpu0";
    device.capacity = capacity_pages * tuning.page_size;
    std::vector<uvm::DeviceConfig> devices{device};
    space = std::make_unique<uvm::UvmSpace>(sim, tuning, std::move(devices));
    access.array = space->alloc(array_pages * tuning.page_size, "a");
    space->host_access(access.array, uvm::AccessMode::Write);
  }

  uvm::AccessReport replay() {
    return space->device_access(0, std::span(&access, 1), uvm::Parallelism::High).report;
  }

  sim::Simulator sim;
  std::unique_ptr<uvm::UvmSpace> space;
  uvm::ParamAccess access;
};

void run_uvm_bench(benchmark::State& state, std::size_t capacity_pages, bool expect_hits) {
  const auto pages = static_cast<std::size_t>(state.range(0));
  UvmRig rig(capacity_pages, pages);
  rig.replay();  // warm: the resident case is all hits from here on
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const uvm::AccessReport r = rig.replay();
    if (r.faults != (expect_hits ? 0 : pages)) {
      state.SkipWithError("unexpected hit/fault mix");
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  state.counters["ns_per_page"] =
      elapsed.count() / static_cast<double>(pages * state.iterations());
}

/// Every page resident: the hit run alone.
void bench_uvm_resident_stream(benchmark::State& s) {
  run_uvm_bench(s, static_cast<std::size_t>(s.range(0)), true);
}

/// The array is twice the device: streaming it evicts the page needed next,
/// so every touch faults and evicts one victim.
void bench_uvm_thrash(benchmark::State& s) {
  run_uvm_bench(s, static_cast<std::size_t>(s.range(0)) / 2, false);
}

BENCHMARK(bench_uvm_resident_stream)->Arg(1 << 10);
BENCHMARK(bench_uvm_thrash)->Arg(1 << 10);

}  // namespace

BENCHMARK_MAIN();
