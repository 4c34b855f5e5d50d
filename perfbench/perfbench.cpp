// GrOUT benchmark program: runs one named workload through the public library
// API on the serial engine and prints the raw results as one JSON document
// on stdout. run.py turns them into the end-to-end and per-layer metrics and
// checks them; this binary only measures and records.
//
//   grout_perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//                   [--spans <file>]
//
// A run repeats the workload's timed phase ("pass") until --seconds of wall
// time are spent, so host times can be reported as medians. Every pass of
// one seed must produce bit-identical simulated results; the digest of each
// pass is compared and a mismatch is reported as a failed check.
//
// With --trace 0 the run also executes the untimed reference runs the
// end-to-end metrics need (single-node baselines, the serving rate ladder,
// and one serve pass with the simulator's tracer on to read per-program
// latencies). With --trace 1 traced and untraced passes alternate: traced
// passes record a span around every public call the benchmark makes into a
// layer, and the difference of the two medians is the tracing overhead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include "bench/bench_util.hpp"
#include "core/grout_runtime.hpp"
#include "polyglot/backend.hpp"
#include "polyglot/context.hpp"
#include "serve/serve.hpp"
#include "workloads/shapes.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace grout;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the calling thread. The run is single-threaded, so this is
/// the host cost of the work without the time other processes on a shared
/// machine take the core away; host_s and setup_s use it.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

constexpr double kGiB = 1073741824.0;


// ---------------------------------------------------------------------------
// Minimal JSON writer (numbers keep all their digits).
// ---------------------------------------------------------------------------

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(const std::string& k) {
    comma();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(const std::string& v) {
    comma();
    quote(v);
    return *this;
  }
  JsonWriter& values(const std::vector<double>& vs) {
    begin_array();
    for (const double v : vs) value(v);
    return end_array();
  }
  template <typename T>
  JsonWriter& field(const std::string& k, const T& v) {
    key(k);
    if constexpr (std::is_same_v<T, std::vector<double>>) {
      return values(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      return value(v);
    } else if constexpr (std::is_integral_v<T>) {
      return value(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_floating_point_v<T>) {
      return value(static_cast<double>(v));
    } else {
      return value(std::string(v));
    }
  }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char c) {
    comma();
    out_ += c;
    first_ = true;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) out_ += ',';
    first_ = false;
  }
  void quote(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out_ += c;
    }
    out_ += '"';
  }
  std::string out_;
  bool first_{true};
  bool after_key_{false};
};

// ---------------------------------------------------------------------------
// Spans: wall-clock intervals around the benchmark's calls into each layer.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* layer;
    double start_s;
    double end_s;
    int parent;
  };

  /// RAII span; a no-op when the log is off, so untraced passes pay one
  /// branch per call.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, const char* layer)
        : log_{log.on_ ? &log : nullptr} {
      if (log_ != nullptr) index_ = log_->open(name, layer);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_{-1};
  };

  void set_on(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  /// Self time per span name: a span's duration minus the part its direct
  /// children cover, summed over the spans of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_name() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child[i];
    }
    return self;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return;
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_s\":%.9f,"
                    "\"end_s\":%.9f,\"parent\":%d}%s\n",
                    i, s.name, s.layer, s.start_s, s.end_s, s.parent,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
  }

 private:
  int open(const char* name, const char* layer) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, layer, seconds_since(origin_), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_s = seconds_since(origin_);
    stack_.pop_back();
  }

  bool on_{false};
  Clock::time_point origin_{Clock::now()};
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Counters read from the layers after a run (summed over a pass's runs).
// ---------------------------------------------------------------------------

struct Counters {
  std::uint64_t ces_scheduled{0};
  std::uint64_t sim_events{0};
  std::uint64_t local_dag_vertices{0};
  std::uint64_t local_dag_edges{0};
  std::uint64_t global_dag_vertices{0};
  std::uint64_t global_dag_edges{0};
  std::uint64_t directory_arrays{0};
  Bytes peak_resident{0};  ///< max over workers and runs
  std::uint64_t evictions{0};
  std::uint64_t refetches{0};
  std::uint64_t spills{0};
  std::uint64_t dispatch_stalls{0};
  std::uint64_t invalidations{0};
  std::uint64_t ownership_transfers{0};
  Bytes refetched_bytes{0};
  std::uint64_t uvm_faults{0};
  Bytes uvm_fetched{0};
  Bytes uvm_written_back{0};
  std::uint64_t uvm_evictions{0};
  std::uint64_t kernels{0};
  std::uint64_t storm_kernels{0};
  std::uint64_t net_transfers{0};
  Bytes net_bytes{0};
  std::uint64_t control_sends{0};
  Bytes bytes_planned{0};
  std::uint64_t p2p_sends{0};
  std::uint64_t exploration_placements{0};
  std::vector<double> decision_ns;

  void add(core::GroutRuntime& rt) {
    const core::SchedulerMetrics& m = rt.metrics();
    ces_scheduled += m.ces_scheduled;
    sim_events += rt.cluster().simulator().executed_events();
    for (std::size_t w = 0; w < rt.cluster().worker_count(); ++w) {
      const dag::DependencyDag& local = rt.cluster().worker(w).runtime().local_dag();
      local_dag_vertices += local.size();
      local_dag_edges += local.edge_count();
      peak_resident = std::max(peak_resident, rt.governor().high_water(w));
    }
    global_dag_vertices += rt.global_dag().size();
    global_dag_edges += rt.global_dag().edge_count();
    directory_arrays += rt.directory().array_count();
    evictions += m.evictions;
    refetches += m.refetches;
    spills += m.spills;
    dispatch_stalls += m.dispatch_stall_evictions + m.dispatch_stall_spills;
    invalidations += m.invalidations;
    ownership_transfers += m.ownership_transfers;
    refetched_bytes += m.refetched_bytes;
    const uvm::UvmStats u = rt.aggregated_uvm_stats();
    uvm_faults += u.faults;
    uvm_fetched += u.bytes_fetched;
    uvm_written_back += u.bytes_written_back;
    uvm_evictions += u.evictions;
    kernels += u.kernels;
    storm_kernels += u.storm_kernels;
    const net::NetworkFabric& fabric = rt.cluster().fabric();
    net_transfers += fabric.transfer_count();
    net_bytes += fabric.total_bytes();
    control_sends += fabric.control_sends();
    bytes_planned += m.bytes_planned;
    p2p_sends += m.p2p_sends;
    exploration_placements += m.exploration_placements;
    const std::vector<double>& d = m.decision_ns.samples();
    decision_ns.insert(decision_ns.end(), d.begin(), d.end());
  }

  /// Simulated-world counters only (no wall-clock samples): two passes of
  /// one seed must agree on every field.
  [[nodiscard]] std::string digest() const {
    std::ostringstream o;
    o << ces_scheduled << ' ' << sim_events << ' ' << local_dag_vertices << ' '
      << local_dag_edges << ' ' << global_dag_vertices << ' ' << global_dag_edges << ' '
      << directory_arrays << ' ' << peak_resident << ' ' << evictions << ' ' << refetches
      << ' ' << spills << ' ' << dispatch_stalls << ' ' << invalidations << ' '
      << ownership_transfers << ' ' << refetched_bytes << ' ' << uvm_faults << ' '
      << uvm_fetched << ' ' << uvm_written_back << ' ' << uvm_evictions << ' ' << kernels
      << ' ' << storm_kernels << ' ' << net_transfers << ' ' << net_bytes << ' '
      << control_sends << ' ' << bytes_planned << ' ' << p2p_sends << ' '
      << exploration_placements << ' ' << decision_ns.size();
    return o.str();
  }

  void write(JsonWriter& j) const {
    j.begin_object();
    j.field("ces_scheduled", ces_scheduled).field("sim_events", sim_events);
    j.field("local_dag_vertices", local_dag_vertices).field("local_dag_edges", local_dag_edges);
    j.field("global_dag_vertices", global_dag_vertices);
    j.field("global_dag_edges", global_dag_edges);
    j.field("directory_arrays", directory_arrays);
    j.field("peak_resident_gib", static_cast<double>(peak_resident) / kGiB);
    j.field("evictions", evictions).field("refetches", refetches).field("spills", spills);
    j.field("dispatch_stalls", dispatch_stalls).field("invalidations", invalidations);
    j.field("ownership_transfers", ownership_transfers);
    j.field("refetched_gib", static_cast<double>(refetched_bytes) / kGiB);
    j.field("uvm_faults", uvm_faults);
    j.field("uvm_fetched_gib", static_cast<double>(uvm_fetched) / kGiB);
    j.field("uvm_written_back_gib", static_cast<double>(uvm_written_back) / kGiB);
    j.field("uvm_evictions", uvm_evictions).field("kernels", kernels);
    j.field("storm_kernels", storm_kernels).field("net_transfers", net_transfers);
    j.field("net_gib", static_cast<double>(net_bytes) / kGiB);
    j.field("control_sends", control_sends);
    j.field("bytes_planned_gib", static_cast<double>(bytes_planned) / kGiB);
    j.field("p2p_sends", p2p_sends).field("exploration_placements", exploration_placements);
    j.end_object();
  }
};

/// Replays a Global DAG's recorded CE access stream into a standalone
/// DependencyDag, timing each add().
void replay_dag(const dag::DependencyDag& source, std::vector<double>& add_ns, SpanLog& log) {
  SpanLog::Scope span(log, "dag.replay", "dag");
  dag::DependencyDag replica;
  for (dag::VertexId v = 0; v < source.size(); ++v) {
    std::vector<dag::AccessSummary> accesses = source.vertex(v).accesses;
    const Clock::time_point t0 = Clock::now();
    replica.add(std::string{}, std::move(accesses));
    add_ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }
}

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

// ---------------------------------------------------------------------------
// Batch workloads: programs built and run through the polyglot API.
// ---------------------------------------------------------------------------

/// A CE the host program issued: sim time of the launch call and the
/// completion event the runtime handed back.
struct IssuedCe {
  SimTime issued;
  gpusim::EventPtr done;
};

/// The GrOUT backend with the benchmark's instrumentation around it: times
/// each GroutRuntime::launch and keeps every CE's completion event so
/// latencies can be read after the drive.
class TimedBackend final : public polyglot::Backend {
 public:
  TimedBackend(core::GroutConfig config, SpanLog& log) : inner_{std::move(config)}, log_{log} {}

  polyglot::ArrayRef alloc(Bytes bytes, std::string name) override {
    return inner_.alloc(bytes, std::move(name));
  }
  void notify_host_write(polyglot::ArrayRef array) override { inner_.notify_host_write(array); }
  void advise(polyglot::ArrayRef array, uvm::Advise advise) override {
    inner_.advise(array, advise);
  }
  void ensure_host_readable(polyglot::ArrayRef array) override {
    SpanLog::Scope span(log_, "core.host_fetch", "core");
    inner_.ensure_host_readable(array);
  }
  void launch(gpusim::KernelLaunchSpec spec) override {
    const SimTime issued = inner_.now();
    SpanLog::Scope span(log_, "core.launch", "core");
    const Clock::time_point t0 = Clock::now();
    core::CeTicket ticket = inner_.grout().launch(std::move(spec));
    launch_ns_.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    issued_.push_back(IssuedCe{issued, std::move(ticket.done)});
  }
  bool synchronize() override {
    SpanLog::Scope span(log_, "core.sync", "core");
    return inner_.synchronize();
  }
  [[nodiscard]] SimTime now() const override { return inner_.now(); }
  [[nodiscard]] polyglot::BackendKind kind() const override { return inner_.kind(); }

  [[nodiscard]] core::GroutRuntime& runtime() { return inner_.grout(); }
  [[nodiscard]] const std::vector<IssuedCe>& issued() const { return issued_; }
  /// Wall nanoseconds of each launch call, in issue order.
  [[nodiscard]] const std::vector<double>& launch_ns() const { return launch_ns_; }

 private:
  polyglot::GroutBackend inner_;
  SpanLog& log_;
  std::vector<IssuedCe> issued_;
  std::vector<double> launch_ns_;
};

struct CellSpec {
  workloads::WorkloadKind kind;
  core::PolicyKind policy;
  double gib;
  std::size_t workers;
  std::size_t iterations;  ///< 0 = the paper benches' default
  bool shared_matrix;
  /// Runs the paper reports as capped at 2.5 h (Fig 8's MV under the
  /// min-transfer policies): out-of-time is the expected outcome there.
  bool censored_known;
  std::uint64_t seed;
};

const char* policy_name(core::PolicyKind p) {
  switch (p) {
    case core::PolicyKind::VectorStep: return "vector-step";
    case core::PolicyKind::MinTransferTime: return "min-transfer-time";
    default: return "other";
  }
}

std::string cell_name(const CellSpec& c) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s@%.0fGiB/%s%s", workloads::to_string(c.kind), c.gib,
                policy_name(c.policy), c.shared_matrix ? "/shared" : "");
  return buf;
}

workloads::WorkloadParams cell_params(const CellSpec& c, double gib_exact) {
  workloads::WorkloadParams p = bench::params_for(c.kind, bench::gib(gib_exact));
  p.shared_matrix = c.shared_matrix;
  if (c.iterations > 0) p.iterations = c.iterations;
  p.seed = c.seed;
  return p;
}

/// The evaluation platform (bench_util.hpp) on `workers` nodes, serial engine.
core::GroutConfig paper_cluster(std::size_t workers) {
  core::GroutConfig cfg;
  cfg.cluster.workers = workers;
  cfg.cluster.worker_node = bench::paper_node();
  cfg.cluster.stream_policy = runtime::StreamPolicyKind::DataLocal;
  cfg.cluster.sim_threads = 1;
  cfg.run_cap = bench::run_cap();
  return cfg;
}

core::GroutConfig cell_config(const CellSpec& c) {
  core::GroutConfig cfg = paper_cluster(c.workers);
  cfg.policy = c.policy;
  cfg.step_vector = bench::step_vector_for(c.kind);
  return cfg;
}

struct CellOutcome {
  std::string name;
  double makespan_s{0.0};
  bool completed{true};
  std::size_t ces_issued{0};
  std::size_t ces_expected{0};
  std::size_t ces_launched{0};
  std::vector<double> ce_latency_s;  ///< completed CEs: done - issued
  std::vector<double> ce_done_s;     ///< completed CEs: completion time
  double drive_s{0.0};  ///< CPU time of Workload::run + synchronize
};

/// A cell's program, set up and ready to run: runtime construction (inside
/// the backend), allocation, host initialization and Workload::build.
struct CellSetup {
  std::unique_ptr<workloads::Workload> workload;
  std::optional<polyglot::Context> ctx;
  TimedBackend* backend{nullptr};
};

CellSetup setup_cell(const CellSpec& c, const workloads::WorkloadParams& params,
                     SpanLog& log) {
  CellSetup cs;
  SpanLog::Scope span(log, "core.setup", "core");
  auto owned = std::make_unique<TimedBackend>(cell_config(c), log);
  cs.backend = owned.get();
  // No array gets host storage, so kernels are not executed functionally
  // on the host: the timed work is the controller and the simulator only.
  // (Functional CG steps on denormal-prone data made host time swing 2x
  // between seeds; the materialized CG check covers functional results.)
  polyglot::ContextConfig config;
  config.materialize_limit = 0;
  cs.ctx.emplace(std::move(owned), config);
  cs.workload = workloads::make_workload(c.kind, params);
  SpanLog::Scope build(log, "workloads.build", "workloads");
  cs.workload->build(*cs.ctx);
  return cs;
}

/// One GrOUT run of a cell: setup, then the timed drive (Workload::run +
/// synchronize). Traced passes add their launch times to `launch_ns`; when
/// `dag_add_ns` is set the run's Global DAG is replayed after the drive.
CellOutcome run_cell(const CellSpec& c, double gib_exact, SpanLog& log,
                     std::vector<double>& launch_ns, Counters& counters,
                     std::vector<double>* dag_add_ns) {
  CellOutcome out;
  out.name = cell_name(c);
  const workloads::WorkloadParams params = cell_params(c, gib_exact);
  CellSetup cs = setup_cell(c, params, log);
  workloads::Workload* workload = cs.workload.get();
  polyglot::Context* ctx = &*cs.ctx;
  TimedBackend* backend = cs.backend;
  const double t1 = cpu_seconds();
  {
    SpanLog::Scope span(log, "workloads.run", "workloads");
    workload->run(*ctx);
  }
  out.completed = ctx->synchronize();
  out.drive_s = cpu_seconds() - t1;
  out.makespan_s = ctx->now().seconds();
  out.ces_issued = workload->ces_issued();
  out.ces_expected = workloads::make_program_shape(c.kind, params).ces.size();
  out.ces_launched = backend->issued().size();
  for (const IssuedCe& ce : backend->issued()) {
    if (!ce.done->completed()) continue;
    out.ce_latency_s.push_back((ce.done->when() - ce.issued).seconds());
    out.ce_done_s.push_back(ce.done->when().seconds());
  }
  if (log.on()) {
    const std::vector<double>& lns = backend->launch_ns();
    launch_ns.insert(launch_ns.end(), lns.begin(), lns.end());
  }
  counters.add(backend->runtime());
  if (dag_add_ns != nullptr) replay_dag(backend->runtime().global_dag(), *dag_add_ns, log);
  return out;
}

struct Baseline {
  double seconds{0.0};
  bool completed{true};
};

/// Single-node GrCUDA run of the same program (the paper's baseline).
Baseline run_grcuda(const CellSpec& c, double gib_exact) {
  polyglot::Context ctx = polyglot::Context::grcuda(
      bench::paper_node(), runtime::StreamPolicyKind::DataLocal, bench::run_cap());
  auto w = workloads::make_workload(c.kind, cell_params(c, gib_exact));
  const workloads::WorkloadResult r = workloads::execute_workload(ctx, *w);
  return Baseline{r.elapsed.seconds(), r.completed};
}

/// Seeded footprint: the nominal size times a factor within +-0.5%, so every
/// seed is a distinct input with the same oversubscription regime.
double jittered_gib(double nominal, std::uint64_t seed, std::size_t index) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  return nominal * (1.0 + 0.01 * (rng.next_double() - 0.5));
}

std::vector<CellSpec> batch_cells(const std::string& workload, std::uint64_t seed) {
  std::vector<CellSpec> cells;
  if (workload == "paper-oversub") {
    // Figs 6-7: 3x, 4x and 5x oversubscription of one 32 GiB node, GrOUT on
    // two workers under the offline vector-step policy and the online
    // min-transfer-time policy. MV under min-transfer uses Fig 8's shared
    // matrix, where locality glues every CE to one node and the run hits
    // the cap.
    const workloads::WorkloadKind kinds[] = {
        workloads::WorkloadKind::Mle, workloads::WorkloadKind::Cg,
        workloads::WorkloadKind::Mv, workloads::WorkloadKind::BlackScholes};
    for (const auto kind : kinds) {
      for (const double gib : {96.0, 128.0, 160.0}) {
        for (const auto policy :
             {core::PolicyKind::VectorStep, core::PolicyKind::MinTransferTime}) {
          const bool fig8_mv =
              kind == workloads::WorkloadKind::Mv && policy == core::PolicyKind::MinTransferTime;
          cells.push_back(CellSpec{kind, policy, gib, 2, fig8_mv ? 2u : 0u, fig8_mv, fig8_mv,
                                   seed});
        }
      }
    }
  } else if (workload == "cg-longrun") {
    // 16 GiB fits in GPU memory on every worker (UVM stays idle); 1200
    // iterations x (8 SpMV + 1 step) = 10800 CEs through the launch path.
    cells.push_back(CellSpec{workloads::WorkloadKind::Cg, core::PolicyKind::MinTransferTime,
                             16.0, 4, 1200, false, false, seed});
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Serving workloads: tenants' programs multiplexed by ServeScheduler.
// ---------------------------------------------------------------------------

struct ServeSpec {
  std::size_t workers{4};
  std::size_t tenants{8};
  double rate_hz{1.0};  ///< per tenant, open-loop Poisson
  std::size_t programs{100};  ///< per tenant
  double program_gib{0.0625};
  std::optional<workloads::ContentionSpec> contention;
  Bytes worker_mem{0};  ///< 0 = the runtime's derived default
  double slo_p99_s{1.0};
  std::vector<double> ladder_hz;  ///< per-tenant rates of the SLO ladder
  std::size_t ladder_programs{100};  ///< per tenant, per rung
  std::size_t replicates{1};  ///< seeds the latency metrics pool over
  std::uint64_t seed{1};
};

ServeSpec serve_spec(const std::string& workload, std::uint64_t seed) {
  ServeSpec s;
  s.seed = seed;
  if (workload == "serve-soak") {
    // Private-array BS programs; nothing frees a finished program's arrays,
    // so controller state and replica residency grow with every program.
    s.tenants = 8;
    s.rate_hz = 0.5;
    s.programs = 500;
    s.program_gib = jittered_gib(0.0625, seed, 0);
    s.slo_p99_s = 2.0;
    s.ladder_hz = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0};
    s.ladder_programs = 125;
    s.replicates = 4;
  } else {
    // YCSB-style Zipf read/update traffic over a shared pool under a tight
    // 20 MiB/worker replica budget: invalidations and evictions on every
    // dispatch.
    workloads::ContentionSpec c;
    c.theta = 0.9;
    c.read_fraction = 0.8;
    c.shared_fraction = 0.9;
    c.pool_arrays = 24;
    c.array_bytes = 1_MiB;
    c.ops = 8;
    c.keys_per_op = 3;
    s.contention = c;
    s.tenants = 4;
    s.rate_hz = 12.0;
    s.programs = 2500;
    s.worker_mem = 20_MiB;
    s.slo_p99_s = 0.25;
    s.ladder_hz = {12.0, 16.0, 20.0, 24.0};
    s.ladder_programs = 500;
    s.replicates = 4;
  }
  return s;
}

/// Replicate `r` of a serve workload: replicate 0 is the workload itself,
/// the others draw arrivals and keys from seeds derived from its seed.
ServeSpec replicate(const ServeSpec& s, std::size_t r) {
  ServeSpec rs = s;
  rs.seed = s.seed + r * 0x9e3779b97f4a7c15ULL;
  return rs;
}

struct ProgramTimes {
  double arrived_s{0.0};
  double done_s{-1.0};  ///< -1 = not completed
};

struct ServeOutcome {
  serve::ServeReport report;
  std::size_t submitted{0};
  std::size_t unfinished{0};
  double drive_s{0.0};  ///< CPU time of ServeScheduler::run
  std::vector<ProgramTimes> programs;  ///< filled when read_programs
  std::string digest;
};

/// Per-program arrival/completion from the serve layer's trace spans
/// ("admit:<tenant>/p<seq>" starts at arrival, "program-done:..." ends at
/// completion).
std::vector<ProgramTimes> programs_from_trace(const sim::Tracer& tracer) {
  std::unordered_map<std::string, ProgramTimes> by_id;
  for (const sim::TraceSpan& s : tracer.spans()) {
    if (s.category != sim::TraceCategory::Scheduling || s.location != "serve") continue;
    if (s.name.rfind("admit:", 0) == 0) {
      by_id[s.name.substr(6)].arrived_s = s.begin.seconds();
    } else if (s.name.rfind("program-done:", 0) == 0) {
      by_id[s.name.substr(13)].done_s = s.end.seconds();
    }
  }
  std::vector<ProgramTimes> out;
  out.reserve(by_id.size());
  for (const auto& [id, t] : by_id) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const ProgramTimes& a, const ProgramTimes& b) {
    return a.arrived_s != b.arrived_s ? a.arrived_s < b.arrived_s : a.done_s < b.done_s;
  });
  return out;
}

/// A serving run set up and ready to drive: runtime construction plus the
/// ServeScheduler (which allocates and host-initializes the shared pool).
struct ServeSetup {
  std::unique_ptr<core::GroutRuntime> rt;
  std::unique_ptr<serve::ServeScheduler> scheduler;
};

ServeSetup setup_serve(const ServeSpec& s, std::size_t workers, double rate_hz,
                       std::size_t programs, bool read_programs, SpanLog& log) {
  ServeSetup ss;
  SpanLog::Scope span(log, "core.setup", "core");
  core::GroutConfig cfg = paper_cluster(workers);
  if (s.worker_mem != 0) cfg.worker_mem = s.worker_mem;
  ss.rt = std::make_unique<core::GroutRuntime>(std::move(cfg));
  if (read_programs) ss.rt->cluster().tracer().set_enabled(true);
  serve::ServeConfig scfg;
  scfg.seed = s.seed;
  scfg.contention = s.contention;
  for (std::size_t k = 0; k < s.tenants; ++k) {
    serve::TenantSpec t;
    t.name = "t";
    t.name += std::to_string(k);
    t.workload = workloads::WorkloadKind::BlackScholes;
    t.params.footprint = bench::gib(s.program_gib);
    t.params.partitions = 4;
    t.params.iterations = 1;
    t.arrival.kind = serve::ArrivalSpec::Kind::Poisson;
    t.arrival.rate_hz = rate_hz;
    t.programs = programs;
    scfg.tenants.push_back(std::move(t));
  }
  SpanLog::Scope sched(log, "serve.setup", "serve");
  ss.scheduler = std::make_unique<serve::ServeScheduler>(*ss.rt, std::move(scfg));
  return ss;
}

ServeOutcome run_serve(const ServeSpec& s, std::size_t workers, double rate_hz,
                       std::size_t programs, bool read_programs, SpanLog& log,
                       Counters* counters, std::vector<double>* dag_add_ns = nullptr) {
  ServeOutcome out;
  ServeSetup ss = setup_serve(s, workers, rate_hz, programs, read_programs, log);
  core::GroutRuntime* rt = ss.rt.get();
  serve::ServeScheduler* scheduler = ss.scheduler.get();
  const double t1 = cpu_seconds();
  {
    SpanLog::Scope span(log, "serve.run", "serve");
    out.report = scheduler->run();
  }
  out.drive_s = cpu_seconds() - t1;
  std::ostringstream digest;
  digest.precision(17);
  digest << out.report.elapsed.ns() << ' ' << out.report.drained << ' '
         << out.report.total_completed << ' ' << out.report.total_shed;
  for (const serve::TenantReport& t : out.report.tenants) {
    out.submitted += t.submitted;
    out.unfinished += t.admitted - t.completed;
    digest << " | " << t.submitted << ' ' << t.admitted << ' ' << t.completed << ' ' << t.shed
           << ' ' << t.ces_dispatched << ' ' << t.latency_p50_ms << ' ' << t.latency_p99_ms
           << ' ' << t.queue_wait_mean_ms << ' ' << t.starvation_max << ' ' << t.peak_resident;
  }
  out.digest = digest.str();
  if (read_programs) out.programs = programs_from_trace(rt->cluster().tracer());
  if (counters != nullptr) counters->add(*rt);
  if (dag_add_ns != nullptr) replay_dag(rt->global_dag(), *dag_add_ns, log);
  return out;
}

// ---------------------------------------------------------------------------
// Host environment.
// ---------------------------------------------------------------------------

/// Peak resident memory of the process so far. It is read right after the
/// timed passes, before the untimed reference runs.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool release_build() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

/// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pin the calling thread to `cpus` (all of them when given the full set).
void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string spans_path;
};

Options parse_options(int argc, char** argv) {
  Options o;
  if (argc % 2 == 0) throw std::runtime_error("every option needs a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--spans") o.spans_path = v;
    else throw std::runtime_error("unknown option " + k);
  }
  if (o.seconds <= 0.0) throw std::runtime_error("--seconds must be positive");
  return o;
}

// ---------------------------------------------------------------------------
// The run: timed passes, then the reference runs and checks.
// ---------------------------------------------------------------------------

struct PassResult {
  int cpu{-1};  ///< the CPU the pass was pinned to
  double host_s{0.0};
  bool traced{false};
  std::string digest;
  std::map<std::string, double> self_s;
};

class Run {
 public:
  explicit Run(Options o) : opt_{std::move(o)} {}

  int execute() {
    const bool serve_kind = opt_.workload == "serve-soak" || opt_.workload == "serve-shared-rw";
    const bool batch_kind = opt_.workload == "paper-oversub" || opt_.workload == "cg-longrun";
    if (!serve_kind && !batch_kind) {
      std::fprintf(stderr, "error: unknown workload '%s'\n", opt_.workload.c_str());
      return 2;
    }
    if (!release_build()) {
      std::fprintf(stderr, "error: refusing to measure a %s build (Release required)\n",
                   PERFBENCH_BUILD_TYPE);
      return 3;
    }
    j_.begin_object();
    j_.field("workload", opt_.workload).field("seed", opt_.seed);
    j_.field("trace", opt_.trace).field("kind", serve_kind ? "serve" : "batch");
    j_.key("stamp").begin_object();
    j_.field("build_type", PERFBENCH_BUILD_TYPE).field("compiler", __VERSION__);
    j_.field("cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    j_.field("sim_threads", 1u);
    j_.end_object();
    if (serve_kind) {
      serve_workload();
    } else {
      batch_workload();
    }
    write_checks();
    j_.end_object();
    std::printf("%s\n", j_.str().c_str());
    return 0;
  }

 private:
  /// Repeat `pass` until the wall budget is spent (at least `min_passes`).
  /// Under --trace 1 traced and untraced passes alternate. Passes rotate
  /// over the CPUs the process may use, one CPU per pass (each CPU takes a
  /// traced and an untraced pass in turn): on a shared machine the load on
  /// the CPU a thread lands on sets its speed, and rotating samples every
  /// CPU instead of whichever one the scheduler kept the thread on.
  template <typename PassFn>
  std::vector<PassResult> timed_passes(PassFn&& pass, std::size_t min_passes) {
    std::vector<PassResult> passes;
    const std::vector<int> cpus = allowed_cpus();
    const Clock::time_point start = Clock::now();
    while (passes.size() < min_passes || seconds_since(start) < opt_.seconds) {
      const bool traced = opt_.trace && passes.size() % 2 == 0;
      const int cpu = cpus.empty() ? -1
                                   : cpus[(passes.size() / (opt_.trace ? 2 : 1)) % cpus.size()];
      if (cpu >= 0) pin_to({cpu});
      log_.clear();
      log_.set_on(traced);
      PassResult r = pass();
      r.cpu = cpu;
      r.traced = traced;
      if (traced) r.self_s = log_.self_seconds_by_name();
      passes.push_back(std::move(r));
      if (traced && passes.size() == 1 && !opt_.spans_path.empty()) log_.write(opt_.spans_path);
    }
    log_.set_on(false);
    if (!cpus.empty()) pin_to(cpus);
    peak_rss_ = peak_rss_mib();
    const std::string& first = passes.front().digest;
    bool same = true;
    for (const PassResult& p : passes) same = same && p.digest == first;
    checks_.push_back(Check{opt_.trace ? "traced-untraced-identical" : "passes-identical", same,
                            std::to_string(passes.size()) + " passes of one seed"});
    return passes;
  }

  /// Setup time on its own: 21 samples, each the mean of enough setup
  /// rounds (construct, build, then tear down untimed) to span >= 20 ms.
  template <typename RoundFn>
  void setup_samples(RoundFn&& round) {
    const double first = round();
    const auto reps = static_cast<std::size_t>(std::ceil(0.02 / std::max(first, 1e-6)));
    setup_samples_.clear();
    for (int i = 0; i < 21; ++i) {
      double total = 0.0;
      for (std::size_t r = 0; r < reps; ++r) total += round();
      setup_samples_.push_back(total / static_cast<double>(reps));
    }
  }

  void write_passes(const std::vector<PassResult>& passes) {
    j_.key("passes").begin_array();
    for (const PassResult& p : passes) {
      j_.begin_object();
      j_.field("host_s", p.host_s).field("traced", p.traced).field("cpu", static_cast<double>(p.cpu));
      if (p.traced) {
        j_.key("self_s").begin_object();
        for (const auto& [layer, s] : p.self_s) j_.field(layer, s);
        j_.end_object();
      }
      j_.end_object();
    }
    j_.end_array();
    j_.field("setup_samples_s", setup_samples_);
    j_.field("peak_rss_mib", peak_rss_);
  }

  // -- batch -----------------------------------------------------------------

  void batch_workload() {
    const std::vector<CellSpec> cells = batch_cells(opt_.workload, opt_.seed);
    std::vector<double> sizes;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      sizes.push_back(jittered_gib(cells[i].gib, opt_.seed, i / 2));
    }
    std::vector<CellOutcome> outcomes;
    Counters counters;
    std::vector<double> launch_ns;
    std::vector<double> add_ns;
    auto pass = [&] {
      PassResult r;
      Counters c;
      std::vector<CellOutcome> outs;
      std::ostringstream digest;
      digest.precision(17);
      // The first traced pass also replays each Global DAG (after timing).
      const bool replay = log_.on() && add_ns.empty();
      for (std::size_t i = 0; i < cells.size(); ++i) {
        CellOutcome o = run_cell(cells[i], sizes[i], log_, launch_ns, c,
                                 replay ? &add_ns : nullptr);
        r.host_s += o.drive_s;
        digest << o.name << ' ' << o.makespan_s << ' ' << o.completed << ' '
               << o.ce_latency_s.size() << ';';
        outs.push_back(std::move(o));
      }
      r.digest = digest.str() + c.digest();
      outcomes = std::move(outs);
      counters = std::move(c);
      return r;
    };
    setup_samples([&] {
      SpanLog off;
      double total = 0.0;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const workloads::WorkloadParams params = cell_params(cells[i], sizes[i]);
        const double t0 = cpu_seconds();
        CellSetup cs = setup_cell(cells[i], params, off);
        total += cpu_seconds() - t0;
      }
      return total;
    });
    const std::vector<PassResult> passes = timed_passes(pass, 3);
    write_passes(passes);

    // CE counts: the workload's own count, the launches the backend saw,
    // the runtime's scheduled count and the context-free shape must agree.
    std::uint64_t launched = 0;
    bool counts_ok = true;
    std::string count_detail;
    for (const CellOutcome& o : outcomes) {
      launched += o.ces_launched;
      if (o.ces_issued != o.ces_expected || o.ces_launched != o.ces_issued) {
        counts_ok = false;
        count_detail += o.name + ": issued " + std::to_string(o.ces_issued) + " expected " +
                        std::to_string(o.ces_expected) + "; ";
      }
    }
    if (launched != counters.ces_scheduled) {
      counts_ok = false;
      count_detail += "runtime scheduled " + std::to_string(counters.ces_scheduled) +
                      " of " + std::to_string(launched) + " launched; ";
    }
    checks_.push_back(Check{"ce-counts", counts_ok,
                            counts_ok ? std::to_string(launched) + " CEs" : count_detail});

    j_.key("batch").begin_object();
    j_.field("cap_s", bench::run_cap().seconds());
    j_.key("cells").begin_array();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellOutcome& o = outcomes[i];
      j_.begin_object();
      j_.field("name", o.name).field("kind", workloads::to_string(cells[i].kind));
      j_.field("gib", sizes[i]).field("makespan_s", o.makespan_s);
      j_.field("completed", o.completed).field("censored_known", cells[i].censored_known);
      j_.field("ces", o.ces_issued);
      if (!opt_.trace) {
        // The single-node baseline runs the identical program (same size,
        // same shared-matrix layout); cells sharing a program share it.
        const Baseline b = baseline_for(cells[i], sizes[i]);
        j_.field("baseline_s", b.seconds).field("baseline_completed", b.completed);
        j_.field("ce_latency_s", o.ce_latency_s).field("ce_done_s", o.ce_done_s);
      }
      j_.end_object();
    }
    j_.end_array();
    j_.end_object();

    if (opt_.trace) write_layers(counters, launch_ns, add_ns, nullptr);
    if (!opt_.trace) verify_small_cg();
  }

  Baseline baseline_for(const CellSpec& c, double gib_exact) {
    char key[96];
    std::snprintf(key, sizeof key, "%d/%.6f/%d/%zu", static_cast<int>(c.kind), gib_exact,
                  c.shared_matrix ? 1 : 0, c.iterations);
    const auto it = baselines_.find(key);
    if (it != baselines_.end()) return it->second;
    const Baseline b = run_grcuda(c, gib_exact);
    baselines_.emplace(key, b);
    return b;
  }

  /// A materialized CG (small enough for real host storage) must converge.
  void verify_small_cg() {
    CellSpec c{workloads::WorkloadKind::Cg, core::PolicyKind::MinTransferTime, 0.0, 4, 4,
               false, false, opt_.seed};
    workloads::WorkloadParams p = cell_params(c, 0.0);
    p.footprint = 4_MiB;
    polyglot::Context ctx = polyglot::Context::grout(cell_config(c));
    auto w = workloads::make_workload(c.kind, p);
    const workloads::WorkloadResult r = workloads::execute_workload(ctx, *w);
    const bool ok = r.completed && w->verify(ctx);
    checks_.push_back(Check{"cg-verify", ok, "materialized 4 MiB CG on 4 workers"});
  }

  // -- serve -----------------------------------------------------------------

  void serve_workload() {
    const ServeSpec s = serve_spec(opt_.workload, opt_.seed);
    ServeOutcome last;
    Counters counters;
    std::vector<double> add_ns;
    auto pass = [&] {
      Counters c;
      const bool replay = log_.on() && add_ns.empty();
      ServeOutcome o = run_serve(s, s.workers, s.rate_hz, s.programs, false, log_, &c,
                                 replay ? &add_ns : nullptr);
      PassResult r;
      r.host_s = o.drive_s;
      r.digest = o.digest + " | " + c.digest();
      last = std::move(o);
      counters = std::move(c);
      return r;
    };
    setup_samples([&] {
      SpanLog off;
      const double t0 = cpu_seconds();
      ServeSetup ss = setup_serve(s, s.workers, s.rate_hz, s.programs, false, off);
      return cpu_seconds() - t0;
    });
    const std::vector<PassResult> passes = timed_passes(pass, 3);
    write_passes(passes);

    // Accounting: every submitted program is completed, shed, or still in
    // flight at the horizon; every dispatched CE reached the runtime.
    const serve::ServeReport& rep = last.report;
    std::uint64_t dispatched = 0;
    for (const serve::TenantReport& t : rep.tenants) dispatched += t.ces_dispatched;
    const std::size_t expected = s.tenants * s.programs;
    const bool programs_ok =
        rep.total_completed + rep.total_shed + last.unfinished == last.submitted &&
        (!rep.drained || last.submitted == expected);
    checks_.push_back(Check{"serve-accounting", programs_ok,
                            std::to_string(rep.total_completed) + " completed + " +
                                std::to_string(rep.total_shed) + " shed + " +
                                std::to_string(last.unfinished) + " unfinished of " +
                                std::to_string(last.submitted) + " submitted"});
    checks_.push_back(Check{"ce-counts", dispatched == counters.ces_scheduled,
                            std::to_string(dispatched) + " dispatched, " +
                                std::to_string(counters.ces_scheduled) + " scheduled"});
    if (s.contention && s.worker_mem != 0) {
      // MemoryGovernor::make_room is best effort: replicas pinned by
      // in-flight CEs cannot be evicted, so a worker may exceed its budget
      // by the working set of the CEs in flight (at most 4 per worker
      // cluster-wide, each touching keys_per_op arrays).
      const Bytes pinned = 4 * s.workers * s.contention->keys_per_op * s.contention->array_bytes;
      checks_.push_back(Check{"governor-within-budget",
                              counters.peak_resident <= s.worker_mem + pinned,
                              "peak " + format_bytes(counters.peak_resident) + " per worker, " +
                                  "budget " + format_bytes(s.worker_mem) +
                                  " + in-flight pin allowance " + format_bytes(pinned)});
    }

    j_.key("serve").begin_object();
    j_.field("tenants", s.tenants).field("programs_per_tenant", s.programs);
    j_.field("rate_hz", s.rate_hz).field("slo_p99_s", s.slo_p99_s);
    if (!opt_.trace) {
      // Per-program latencies come from the serve layer's trace spans, on
      // untimed passes. Replicate 0 is the timed passes' input and must
      // reproduce them exactly; further replicates draw new arrivals (and
      // keys) from seeds derived from --seed, so the tail is estimated over
      // more programs.
      SpanLog off;
      j_.key("replicates").begin_array();
      for (std::size_t r = 0; r < s.replicates; ++r) {
        const ServeOutcome traced =
            run_serve(replicate(s, r), s.workers, s.rate_hz, s.programs, true, off, nullptr);
        if (r == 0) {
          checks_.push_back(Check{"sim-trace-identical", traced.digest == last.digest,
                                  "serve pass with the simulator tracer on"});
        }
        j_.begin_object();
        write_serve_outcome(traced, false);
        j_.key("programs").begin_array();
        for (const ProgramTimes& p : traced.programs) {
          j_.begin_array().value(p.arrived_s).value(p.done_s).end_array();
        }
        j_.end_array();
        j_.end_object();
      }
      j_.end_array();
      const ServeOutcome one = run_serve(s, 1, s.rate_hz, s.programs, false, off, nullptr);
      j_.key("one_node").begin_object();
      write_serve_outcome(one, false);
      j_.end_object();
      j_.key("ladder").begin_array();
      for (const double rate : s.ladder_hz) {
        j_.begin_object();
        j_.field("rate_hz", rate);
        j_.key("replicates").begin_array();
        for (std::size_t r = 0; r < s.replicates; ++r) {
          const ServeOutcome rung =
              run_serve(replicate(s, r), s.workers, rate, s.ladder_programs, true, off, nullptr);
          j_.begin_object();
          write_serve_outcome(rung, true);
          j_.end_object();
        }
        j_.end_array();
        j_.end_object();
      }
      j_.end_array();
    }
    j_.end_object();

    // The serve layer launches CEs from inside engine callbacks, so the
    // per-launch spans of batch workloads do not exist here; the Global DAG
    // replay and the counters still apply.
    if (opt_.trace) write_layers(counters, {}, add_ns, &last);
  }

  void write_serve_outcome(const ServeOutcome& o, bool with_latencies) {
    const serve::ServeReport& r = o.report;
    j_.field("elapsed_s", r.elapsed.seconds()).field("drained", r.drained);
    j_.field("submitted", o.submitted).field("completed", r.total_completed);
    j_.field("shed", r.total_shed).field("unfinished", o.unfinished);
    if (with_latencies) {
      std::vector<double> lat;
      for (const ProgramTimes& p : o.programs) {
        if (p.done_s >= 0.0) lat.push_back(p.done_s - p.arrived_s);
      }
      j_.field("latency_s", lat);
    }
  }

  // -- per-layer -------------------------------------------------------------

  void write_layers(const Counters& c, const std::vector<double>& launch_ns,
                    const std::vector<double>& add_ns, const ServeOutcome* serve_out) {
    j_.key("layers").begin_object();
    j_.key("counters");
    c.write(j_);
    j_.field("launch_ns", launch_ns).field("dag_add_ns", add_ns);
    j_.field("decision_ns", c.decision_ns);
    if (serve_out != nullptr) {
      const serve::ServeReport& r = serve_out->report;
      double wait_ms = 0.0;
      std::uint64_t starvation = 0;
      std::size_t admitted = 0;
      for (const serve::TenantReport& t : r.tenants) {
        wait_ms += t.queue_wait_mean_ms * static_cast<double>(t.admitted);
        admitted += t.admitted;
        starvation = std::max(starvation, t.starvation_max);
      }
      j_.field("queue_wait_s_mean", admitted > 0 ? wait_ms / admitted / 1e3 : 0.0);
      j_.field("shed", r.total_shed).field("starvation_max", starvation);
    }
    j_.end_object();
  }

  void write_checks() {
    j_.key("checks").begin_array();
    for (const Check& c : checks_) {
      j_.begin_object().field("name", c.name).field("ok", c.ok).field("detail", c.detail);
      j_.end_object();
    }
    j_.end_array();
  }

  Options opt_;
  JsonWriter j_;
  SpanLog log_;
  std::vector<Check> checks_;
  std::map<std::string, Baseline> baselines_;
  double peak_rss_{0.0};
  std::vector<double> setup_samples_;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(parse_options(argc, argv)).execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
