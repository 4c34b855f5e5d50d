// grout_cli — command-line driver for the GrOUT reproduction.
//
//   grout_cli run    --workload mv --size-gib 96 --backend grout --workers 2
//   grout_cli sweep  --workload cg --sizes 4,8,16,32,64,96
//   grout_cli policies --workload mle --size-gib 96
//   grout_cli info
//
// `run` executes one workload and reports timing, UVM pressure and
// scheduler metrics; `sweep` produces Fig-6-style slowdown tables; and
// `policies` compares every inter-node policy at one size. Optional
// --trace writes a chrome://tracing JSON of the distributed execution.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "net/fault.hpp"
#include "report/table.hpp"
#include "script/script.hpp"
#include "serve/serve.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace grout;

// ---------------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------------

struct Options {
  std::string command;
  std::string script_path;
  workloads::WorkloadKind workload = workloads::WorkloadKind::Mv;
  double size_gib = 32.0;
  std::vector<double> sizes = {4, 8, 16, 32, 64, 96, 128, 160};
  std::string backend = "grout";  // "grcuda" | "grout" | "both"
  std::size_t workers = 2;
  core::PolicyKind policy = core::PolicyKind::VectorStep;
  std::vector<std::uint32_t> step_vector = {1};
  core::ExplorationLevel exploration = core::ExplorationLevel::Medium;
  std::size_t partitions = 8;
  std::size_t iterations = 0;  // 0 = workload default
  bool shared_matrix = false;
  std::string eviction = "lru";
  std::optional<double> worker_mem_gib;  // per-worker replica budget; 0 = unbounded
  std::string format = "text";  // text | markdown | csv
  std::optional<std::string> trace_path;
  net::FaultPlan fault_plan;
  // serve command
  std::size_t tenants = 2;
  serve::ArrivalSpec arrival;            // closed:1
  std::vector<double> tenant_weights;    // cycled; empty = all 1.0
  std::vector<double> tenant_quota_gib;  // cycled; empty/0 = unlimited
  std::size_t programs = 4;              // per tenant
  std::size_t max_outstanding = 0;       // 0 = 4 x workers
  std::optional<workloads::ContentionSpec> contention;  // shared-state scenario
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(stderr,
               "usage: grout_cli <script FILE|run|sweep|policies|serve|dag|info> [options]\n"
               "  --workload bs|mle|cg|mv|irr     (default mv)\n"
               "  --size-gib <float>              (run/policies; default 32)\n"
               "  --sizes a,b,c                   (sweep; GiB list)\n"
               "  --backend grcuda|grout|both     (default grout)\n"
               "  --workers <n>                   (default 2)\n"
               "  --policy round-robin|vector-step|min-transfer-size|\n"
               "           min-transfer-time|random|least-outstanding\n"
               "  --step-vector a,b,c             (vector-step CE counts; default 1)\n"
               "  --exploration low|medium|high   (default medium)\n"
               "  --partitions <n>                (default 8)\n"
               "  --iterations <n>                (default: per workload)\n"
               "  --shared-matrix                 (MV: one shared allocation)\n"
               "  --eviction lru|fifo|random      (default lru)\n"
               "  --worker-mem <gib>              (per-worker replica-cache budget;\n"
               "                                   0 = unbounded; default: node GPU\n"
               "                                   memory x headroom)\n"
               "  --format text|markdown|csv      (sweep/policies output)\n"
               "  --trace <file.json>             (chrome://tracing output)\n"
               "  --fault-plan <spec>             (grout backend; ','/';'-separated:\n"
               "       kill:<worker>@<sec>           kill a worker at a sim time\n"
               "       degrade:<a>-<b>@<sec>=<mbit>  link a<->b to <mbit> Mbit/s (0=down)\n"
               "       drop:<n>                      drop next n control messages\n"
               "       droprate:<p>[@<seed>]         drop each control msg with prob p\n"
               "       delay:<us>                    extra control-lane delay\n"
               "     e.g. --fault-plan kill:0@0.5,drop:2)\n"
               "serve options (multi-tenant frontend):\n"
               "  --tenants <n>                   (default 2)\n"
               "  --arrival closed[:depth]|poisson:<rate_hz>   (default closed:1)\n"
               "  --tenant-weights a,b,c          (WFQ weights, cycled; default 1)\n"
               "  --tenant-quota a,b,c            (GiB resident quota, cycled; 0 = none)\n"
               "  --programs <n>                  (programs per tenant; default 4)\n"
               "  --max-outstanding <n>           (CEs in flight; default 4 x workers)\n"
               "  --contention theta=<t>,rw=<r>,shared=<s>\n"
               "                                  (YCSB-style Zipf traffic over a pool of\n"
               "                                   shared arrays instead of per-tenant\n"
               "                                   workloads; optional pool=<n>,bytes=<b>,\n"
               "                                   ops=<n>,keys=<n>)\n");
  std::exit(2);
}

workloads::WorkloadKind parse_workload(const std::string& s) {
  static const std::map<std::string, workloads::WorkloadKind> table = {
      {"bs", workloads::WorkloadKind::BlackScholes},
      {"mle", workloads::WorkloadKind::Mle},
      {"cg", workloads::WorkloadKind::Cg},
      {"mv", workloads::WorkloadKind::Mv},
      {"irr", workloads::WorkloadKind::Irregular},
  };
  const auto it = table.find(s);
  if (it == table.end()) usage(("unknown workload: " + s).c_str());
  return it->second;
}

core::PolicyKind parse_policy(const std::string& s) {
  static const std::map<std::string, core::PolicyKind> table = {
      {"round-robin", core::PolicyKind::RoundRobin},
      {"vector-step", core::PolicyKind::VectorStep},
      {"min-transfer-size", core::PolicyKind::MinTransferSize},
      {"min-transfer-time", core::PolicyKind::MinTransferTime},
      {"random", core::PolicyKind::Random},
      {"least-outstanding", core::PolicyKind::LeastOutstanding},
  };
  const auto it = table.find(s);
  if (it == table.end()) usage(("unknown policy: " + s).c_str());
  return it->second;
}

core::ExplorationLevel parse_exploration(const std::string& s) {
  if (s == "low") return core::ExplorationLevel::Low;
  if (s == "medium") return core::ExplorationLevel::Medium;
  if (s == "high") return core::ExplorationLevel::High;
  usage(("unknown exploration level: " + s).c_str());
}

/// Strict numeric flag parsing: the whole token must be a finite number.
/// "abc", "1x", "nan" and "inf" all die with a clear message instead of
/// misconfiguring the run silently (the parse_arrival hardening idiom).
double parse_number(const std::string& flag, const std::string& s) {
  double v = 0.0;
  std::size_t used = 0;
  try {
    v = std::stod(s, &used);
  } catch (const std::exception&) {
    usage((flag + ": not a number: '" + s + "'").c_str());
  }
  if (used != s.size() || !std::isfinite(v)) {
    usage((flag + ": not a finite number: '" + s + "'").c_str());
  }
  return v;
}

/// Whole-number count flags (workers, partitions, tenants, ...): a strict
/// parse_number that must also be an integer >= 1, so "-1", "0" and "1.5"
/// die here instead of wrapping or truncating into a runaway run.
std::size_t parse_count(const std::string& flag, const std::string& s) {
  const double v = parse_number(flag, s);
  if (v < 1.0 || v > 4294967295.0 || v != std::floor(v)) {
    usage((flag + ": must be a whole number >= 1, got '" + s + "'").c_str());
  }
  return static_cast<std::size_t>(v);
}

/// A GiB amount: positive, or non-negative where 0 is a documented value
/// ("unbounded", "no quota"), and small enough that its byte count fits
/// in Bytes.
double parse_gib(const std::string& flag, const std::string& s, bool allow_zero) {
  const double v = parse_number(flag, s);
  constexpr double kMaxGib = 8589934592.0;  // 2^33 GiB = 2^63 bytes
  if (v < 0.0 || (v == 0.0 && !allow_zero) || v > kMaxGib) {
    usage((flag + ": must be in " + (allow_zero ? "[0" : "(0") + ", 8589934592] GiB, got '" + s +
           "'")
              .c_str());
  }
  return v;
}

/// A structured flag value (fault plan, arrival, contention):
/// the parser's own error becomes a usage error, so every malformed flag
/// exits 2 from argument parsing.
template <typename Parse>
auto parse_flag(const std::string& flag, const std::string& s, Parse parse) {
  try {
    return parse(s);
  } catch (const grout::Error& e) {
    usage((flag + ": " + e.what()).c_str());
  }
}

Options parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Options opt;
  opt.command = argv[1];
  int first_flag = 2;
  if (opt.command == "script") {
    if (argc < 3) usage("script needs a file argument");
    opt.script_path = argv[2];
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      opt.workload = parse_workload(next());
    } else if (flag == "--size-gib") {
      opt.size_gib = parse_gib(flag, next(), /*allow_zero=*/false);
    } else if (flag == "--sizes") {
      opt.sizes.clear();
      for (const auto part : split(next(), ',')) {
        opt.sizes.push_back(parse_gib(flag, std::string(part), /*allow_zero=*/false));
      }
    } else if (flag == "--backend") {
      opt.backend = next();
      if (opt.backend != "grcuda" && opt.backend != "grout" && opt.backend != "both") {
        usage("backend must be grcuda, grout or both");
      }
    } else if (flag == "--workers") {
      opt.workers = parse_count(flag, next());
    } else if (flag == "--policy") {
      opt.policy = parse_policy(next());
    } else if (flag == "--step-vector") {
      opt.step_vector.clear();
      for (const auto part : split(next(), ',')) {
        opt.step_vector.push_back(
            static_cast<std::uint32_t>(parse_count(flag, std::string(part))));
      }
    } else if (flag == "--exploration") {
      opt.exploration = parse_exploration(next());
    } else if (flag == "--partitions") {
      opt.partitions = parse_count(flag, next());
    } else if (flag == "--iterations") {
      opt.iterations = parse_count(flag, next());
    } else if (flag == "--shared-matrix") {
      opt.shared_matrix = true;
    } else if (flag == "--eviction") {
      opt.eviction = next();
    } else if (flag == "--worker-mem") {
      opt.worker_mem_gib = parse_gib(flag, next(), /*allow_zero=*/true);
    } else if (flag == "--format") {
      opt.format = next();
      if (opt.format != "text" && opt.format != "markdown" && opt.format != "csv") {
        usage("format must be text, markdown or csv");
      }
    } else if (flag == "--trace") {
      opt.trace_path = next();
    } else if (flag == "--fault-plan") {
      opt.fault_plan = parse_flag(flag, next(), net::FaultPlan::parse);
    } else if (flag == "--tenants") {
      opt.tenants = parse_count(flag, next());
    } else if (flag == "--arrival") {
      opt.arrival = parse_flag(flag, next(), serve::parse_arrival);
    } else if (flag == "--tenant-weights") {
      opt.tenant_weights.clear();
      for (const auto part : split(next(), ',')) {
        const double w = parse_number(flag, std::string(part));
        // Weight 0 would divide the WFQ vtime increment by zero; negative
        // weights corrupt the ordering — fail at parse time.
        if (w <= 0.0) {
          usage(("--tenant-weights: weight must be positive, got '" + std::string(part) + "'")
                    .c_str());
        }
        opt.tenant_weights.push_back(w);
      }
    } else if (flag == "--tenant-quota") {
      opt.tenant_quota_gib.clear();
      for (const auto part : split(next(), ',')) {
        opt.tenant_quota_gib.push_back(parse_gib(flag, std::string(part), /*allow_zero=*/true));
      }
    } else if (flag == "--programs") {
      opt.programs = parse_count(flag, next());
    } else if (flag == "--max-outstanding") {
      opt.max_outstanding = parse_count(flag, next());
    } else if (flag == "--contention") {
      opt.contention = parse_flag(flag, next(), workloads::parse_contention);
    } else {
      usage(("unknown flag: " + flag).c_str());
    }
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Execution helpers
// ---------------------------------------------------------------------------

uvm::EvictionPolicyKind eviction_of(const Options& opt) {
  if (opt.eviction == "lru") return uvm::EvictionPolicyKind::ClockLru;
  if (opt.eviction == "fifo") return uvm::EvictionPolicyKind::Fifo;
  if (opt.eviction == "random") return uvm::EvictionPolicyKind::Random;
  usage(("unknown eviction policy: " + opt.eviction).c_str());
}

gpusim::GpuNodeConfig node_of(const Options& opt) {
  gpusim::GpuNodeConfig node;
  node.gpu_count = 2;
  node.device = gpusim::v100();
  node.eviction = eviction_of(opt);
  return node;
}

workloads::WorkloadParams params_of(const Options& opt, double size_gib) {
  workloads::WorkloadParams p;
  p.footprint = static_cast<Bytes>(size_gib * 1073741824.0);
  p.partitions = opt.partitions;
  p.iterations = opt.iterations != 0
                     ? opt.iterations
                     : (opt.workload == workloads::WorkloadKind::Cg ? 3 : 1);
  p.shared_matrix = opt.shared_matrix;
  return p;
}

core::GroutConfig grout_config_of(const Options& opt) {
  core::GroutConfig cfg;
  cfg.cluster.workers = opt.workers;
  cfg.cluster.worker_node = node_of(opt);
  cfg.cluster.stream_policy = runtime::StreamPolicyKind::DataLocal;
  cfg.cluster.trace = opt.trace_path.has_value();
  cfg.policy = opt.policy;
  cfg.step_vector = opt.step_vector;
  cfg.exploration = opt.exploration;
  cfg.run_cap = SimTime::from_seconds(9000.0);
  cfg.fault_plan = opt.fault_plan;
  if (opt.worker_mem_gib) {
    cfg.worker_mem = static_cast<Bytes>(*opt.worker_mem_gib * 1073741824.0);
  }
  return cfg;
}

polyglot::Context make_context(const Options& opt, const std::string& backend,
                               polyglot::ContextConfig config = {}) {
  if (backend == "grcuda") {
    return polyglot::Context(
        std::make_unique<polyglot::GrCudaBackend>(node_of(opt),
                                                  runtime::StreamPolicyKind::DataLocal, 2,
                                                  SimTime::from_seconds(9000.0)),
        config);
  }
  return polyglot::Context(std::make_unique<polyglot::GroutBackend>(grout_config_of(opt)),
                           config);
}

struct RunResult {
  double seconds;
  bool completed;
  std::size_t ces;
};

RunResult run_once(const Options& opt, const std::string& backend, double size_gib,
                   bool report = false) {
  // run/sweep/policies report simulated time and never read array contents:
  // no array gets host storage, so kernels are not emulated on the host.
  polyglot::ContextConfig no_storage;
  no_storage.materialize_limit = 0;
  polyglot::Context ctx = make_context(opt, backend, no_storage);
  auto workload = workloads::make_workload(opt.workload, params_of(opt, size_gib));
  const workloads::WorkloadResult r = workloads::execute_workload(ctx, *workload);

  if (report && backend == "grout") {
    auto& grout_backend = dynamic_cast<polyglot::GroutBackend&>(ctx.backend());
    core::GroutRuntime& rt = grout_backend.grout();
    const auto& m = rt.metrics();
    const uvm::UvmStats stats = rt.aggregated_uvm_stats();
    std::printf("\nscheduler:\n");
    std::printf("  CEs scheduled:   %llu\n", static_cast<unsigned long long>(m.ces_scheduled));
    std::printf("  placements:     ");
    for (std::size_t w = 0; w < m.assignments.size(); ++w) {
      std::printf(" w%zu=%llu", w, static_cast<unsigned long long>(m.assignments[w]));
    }
    std::printf("\n  data movement:   %llu controller sends, %llu P2P sends, %s\n",
                static_cast<unsigned long long>(m.controller_sends),
                static_cast<unsigned long long>(m.p2p_sends),
                format_bytes(m.bytes_planned).c_str());
    if (m.decision_ns.count() > 0) {
      std::printf("  decision median: %.1f us (real wall clock)\n",
                  rt.metrics().decision_ns.median() / 1000.0);
    }
    if (!opt.fault_plan.empty()) {
      std::printf("faults:\n");
      std::printf("  %llu worker deaths, %llu CEs rescheduled, %llu replayed, "
                  "%llu arrays recovered\n",
                  static_cast<unsigned long long>(m.worker_deaths),
                  static_cast<unsigned long long>(m.ces_rescheduled),
                  static_cast<unsigned long long>(m.ces_replayed),
                  static_cast<unsigned long long>(m.arrays_recovered));
      std::printf("  control lane: %llu drops, %llu timeouts, %llu retries\n",
                  static_cast<unsigned long long>(m.control_drops),
                  static_cast<unsigned long long>(m.control_timeouts),
                  static_cast<unsigned long long>(m.control_retries));
    }
    std::printf("memory governor:\n");
    std::printf("  budget/worker:   %s\n", m.worker_mem_budget == 0
                                               ? "unbounded"
                                               : format_bytes(m.worker_mem_budget).c_str());
    std::printf("  evictions:       %llu (%s), %llu spills (%s), %llu refetches\n",
                static_cast<unsigned long long>(m.evictions),
                format_bytes(m.bytes_evicted).c_str(),
                static_cast<unsigned long long>(m.spills),
                format_bytes(m.bytes_spilled).c_str(),
                static_cast<unsigned long long>(m.refetches));
    std::printf("  resident:       ");
    for (std::size_t w = 0; w < m.worker_resident.size(); ++w) {
      std::printf(" w%zu=%s (peak %s)", w, format_bytes(m.worker_resident[w]).c_str(),
                  format_bytes(m.worker_resident_peak[w]).c_str());
    }
    std::printf("\n");
    if (m.spill_dram_high_water > 0) {
      std::printf("  spill pressure:  peak controller copies %s, writeback queue peak %llu, "
                  "consumer wait %s\n",
                  format_bytes(m.spill_dram_high_water).c_str(),
                  static_cast<unsigned long long>(m.writeback_queue_peak),
                  format_time(m.spill_wait).c_str());
    }
    std::printf("uvm:\n");
    std::printf("  fetched %s, written back %s, %llu evictions, %llu/%llu storm kernels\n",
                format_bytes(stats.bytes_fetched).c_str(),
                format_bytes(stats.bytes_written_back).c_str(),
                static_cast<unsigned long long>(stats.evictions),
                static_cast<unsigned long long>(stats.storm_kernels),
                static_cast<unsigned long long>(stats.kernels));
    if (opt.trace_path) {
      std::ofstream out(*opt.trace_path);
      out << rt.cluster().tracer().to_chrome_json();
      std::printf("trace:\n  wrote %s\n", opt.trace_path->c_str());
    }
  }
  return RunResult{r.elapsed.seconds(), r.completed, r.ce_count};
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

int cmd_run(const Options& opt) {
  std::printf("workload %s, %.1f GiB (%.2fx oversubscription/node-pair), backend %s\n",
              workloads::to_string(opt.workload), opt.size_gib, opt.size_gib / 32.0,
              opt.backend.c_str());
  const RunResult r = run_once(opt, opt.backend == "both" ? "grout" : opt.backend,
                               opt.size_gib, /*report=*/true);
  std::printf("\nresult: %s%.3f s simulated, %zu CEs\n", r.completed ? "" : ">", r.seconds,
              r.ces);
  if (opt.backend == "both") {
    const RunResult single = run_once(opt, "grcuda", opt.size_gib);
    std::printf("single node: %s%.3f s -> speedup %.2fx\n", single.completed ? "" : ">",
                single.seconds, single.seconds / r.seconds);
  }
  return 0;
}

void emit_table(const Options& opt, const report::Table& table) {
  if (opt.format == "markdown") {
    std::fputs(table.to_markdown().c_str(), stdout);
  } else if (opt.format == "csv") {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    std::fputs(table.to_text().c_str(), stdout);
  }
}

int cmd_sweep(const Options& opt) {
  const bool both = opt.backend == "both";
  std::printf("# sweep: %s, backend %s\n", workloads::to_string(opt.workload),
              opt.backend.c_str());
  std::vector<std::string> headers{"GiB", "oversub"};
  if (both || opt.backend == "grcuda") {
    headers.insert(headers.end(), {"1-node [s]", "slowdown"});
  }
  if (both || opt.backend == "grout") {
    headers.insert(headers.end(), {"grout [s]", "slowdown"});
  }
  report::Table table(std::move(headers));

  double base_single = 0.0;
  double base_grout = 0.0;
  for (const double size : opt.sizes) {
    std::vector<std::string> row{report::cell_gib(size),
                                 report::cell_factor(size / 32.0)};
    if (both || opt.backend == "grcuda") {
      const RunResult r = run_once(opt, "grcuda", size);
      if (base_single == 0.0) base_single = r.seconds;
      row.push_back(report::cell_seconds(r.seconds, !r.completed));
      row.push_back(report::cell_factor(r.seconds / base_single));
    }
    if (both || opt.backend == "grout") {
      const RunResult r = run_once(opt, "grout", size);
      if (base_grout == 0.0) base_grout = r.seconds;
      row.push_back(report::cell_seconds(r.seconds, !r.completed));
      row.push_back(report::cell_factor(r.seconds / base_grout));
    }
    table.add_row(std::move(row));
  }
  emit_table(opt, table);
  return 0;
}

int cmd_policies(const Options& opt) {
  std::printf("# policies: %s at %.1f GiB on %zu workers (normalized to round-robin)\n",
              workloads::to_string(opt.workload), opt.size_gib, opt.workers);
  const core::PolicyKind kinds[] = {
      core::PolicyKind::RoundRobin,      core::PolicyKind::VectorStep,
      core::PolicyKind::MinTransferSize, core::PolicyKind::MinTransferTime,
      core::PolicyKind::Random,          core::PolicyKind::LeastOutstanding,
  };
  report::Table table({"policy", "time [s]", "vs round-robin"});
  double baseline = 0.0;
  for (const auto kind : kinds) {
    Options o = opt;
    o.policy = kind;
    const RunResult r = run_once(o, "grout", opt.size_gib);
    if (kind == core::PolicyKind::RoundRobin) baseline = r.seconds;
    table.add_row({core::to_string(kind), report::cell_seconds(r.seconds, !r.completed),
                   report::cell_factor(r.seconds / baseline)});
  }
  emit_table(opt, table);
  return 0;
}

/// Multi-tenant serving run: N tenants submit programs of the selected
/// workload shape through the admission-controlled WFQ frontend and the
/// per-tenant SLO ledger is printed as a table.
int cmd_serve(const Options& opt) {
  core::GroutRuntime rt(grout_config_of(opt));

  serve::ServeConfig cfg;
  cfg.max_outstanding_ces = opt.max_outstanding;
  const serve::ArrivalSpec& arrival = opt.arrival;
  for (std::size_t k = 0; k < opt.tenants; ++k) {
    serve::TenantSpec t;
    t.name = "t" + std::to_string(k);
    if (!opt.tenant_weights.empty()) {
      t.weight = opt.tenant_weights[k % opt.tenant_weights.size()];
    }
    if (!opt.tenant_quota_gib.empty()) {
      t.quota = static_cast<Bytes>(
          opt.tenant_quota_gib[k % opt.tenant_quota_gib.size()] * 1073741824.0);
    }
    t.workload = opt.workload;
    t.params = params_of(opt, opt.size_gib);
    t.arrival = arrival;
    t.programs = opt.programs;
    cfg.tenants.push_back(std::move(t));
  }
  cfg.contention = opt.contention;

  if (cfg.contention) {
    std::printf("serving %zu tenants of shared-state contention (%s), arrival %s, "
                "%zu programs each\n",
                opt.tenants, workloads::to_string(*cfg.contention).c_str(),
                serve::to_string(arrival).c_str(), opt.programs);
  } else {
    std::printf("serving %zu tenants of %s, %.2f GiB/program, arrival %s, %zu programs each\n",
                opt.tenants, workloads::to_string(opt.workload), opt.size_gib,
                serve::to_string(arrival).c_str(), opt.programs);
  }
  serve::ServeScheduler scheduler(rt, cfg);
  const serve::ServeReport rep = scheduler.run();

  const auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return std::string(buf);
  };
  report::Table table({"tenant", "weight", "done/sub", "shed", "CEs", "p50 [s]", "p95 [s]",
                       "p99 [s]", "wait [s]", "thru [1/s]", "starve", "peak res"});
  for (const serve::TenantReport& t : rep.tenants) {
    table.add_row({t.name, num(t.weight),
                   std::to_string(t.completed) + "/" + std::to_string(t.submitted),
                   std::to_string(t.shed), std::to_string(t.ces_dispatched),
                   report::cell_seconds(t.latency_p50_ms / 1e3, false),
                   report::cell_seconds(t.latency_p95_ms / 1e3, false),
                   report::cell_seconds(t.latency_p99_ms / 1e3, false),
                   report::cell_seconds(t.queue_wait_mean_ms / 1e3, false),
                   num(t.throughput_per_s), std::to_string(t.starvation_max),
                   format_bytes(t.peak_resident)});
  }
  emit_table(opt, table);

  const auto& m = rt.metrics();
  std::printf("\n%s in %.3f s simulated; %zu programs completed, %zu shed\n",
              rep.drained ? "drained" : "HORIZON EXPIRED", rep.elapsed.seconds(),
              rep.total_completed, rep.total_shed);
  std::printf("quota: %llu placement overflow rejections\n",
              static_cast<unsigned long long>(m.quota_overflows));
  if (opt.contention) {
    std::printf("directory: %llu invalidations, %llu ownership transfers, "
                "%llu coherence refetches (%s), %llu stale evictions\n",
                static_cast<unsigned long long>(m.invalidations),
                static_cast<unsigned long long>(m.ownership_transfers),
                static_cast<unsigned long long>(m.coherence_refetches),
                format_bytes(m.refetched_bytes).c_str(),
                static_cast<unsigned long long>(m.stale_evictions));
  }
  if (opt.trace_path) {
    std::ofstream out(*opt.trace_path);
    out << rt.cluster().tracer().to_chrome_json();
    std::printf("trace: wrote %s\n", opt.trace_path->c_str());
  }
  return rep.total_completed > 0 ? 0 : 1;
}

/// Emit the workload's Global DAG (the paper's Fig. 5) as Graphviz DOT,
/// annotated with the worker each CE was placed on.
int cmd_dag(const Options& opt) {
  polyglot::Context ctx = make_context(opt, "grout");
  // Tiny footprint: the DAG's structure is size-independent.
  Options small = opt;
  small.size_gib = 0.001;
  auto workload = workloads::make_workload(opt.workload, params_of(small, small.size_gib));
  workload->build(ctx);
  workload->run(ctx);
  ctx.synchronize();

  auto& backend = dynamic_cast<polyglot::GroutBackend&>(ctx.backend());
  core::GroutRuntime& rt = backend.grout();
  // Per-vertex worker annotation from the assignment order: kernels were
  // assigned in submission order; host-init vertices stay on the controller.
  const auto& dag = rt.global_dag();
  std::map<dag::VertexId, std::string> where;
  {
    // Re-derive placements by replaying the policy is overkill; the DAG
    // label prefix distinguishes controller-side vertices instead.
    for (dag::VertexId v = 0; v < dag.size(); ++v) {
      const auto& label = dag.vertex(v).label;
      where[v] = label.rfind("host-init", 0) == 0 ? "ctl" : "";
    }
  }
  std::fputs(dag.to_dot([&](dag::VertexId v) { return where[v]; }).c_str(), stdout);
  std::fprintf(stderr, "# %zu vertices, %zu edges — pipe through `dot -Tsvg`\n",
               dag.size(), dag.edge_count());
  return 0;
}

/// Run a GrScript program (the paper's guest-language surface). The target
/// backend is taken from the language id inside the script: a program
/// calling polyglot.eval(GrCUDA, ...) runs single-node, GrOUT distributed —
/// the Listing 2 one-line migration, end to end.
int cmd_script(const Options& opt) {
  std::ifstream in(opt.script_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", opt.script_path.c_str());
    return 1;
  }
  std::string source((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const bool grcuda = source.find("polyglot.eval(GrCUDA") != std::string::npos;
  polyglot::Context ctx = make_context(opt, grcuda ? "grcuda" : "grout");
  std::fprintf(stderr, "# running %s on the %s backend\n", opt.script_path.c_str(),
               grcuda ? "GrCUDA (single node)" : "GrOUT (distributed)");
  script::run_script(ctx, source, std::cout);
  ctx.synchronize();
  std::fprintf(stderr, "# simulated time: %s\n", format_time(ctx.now()).c_str());
  return 0;
}

int cmd_info() {
  const gpusim::DeviceSpec spec = gpusim::v100();
  const uvm::UvmTuning tuning;
  std::printf("platform (Section V-A of the paper):\n");
  std::printf("  worker: 2x %s, %s each, PCIe %.1f GiB/s, NIC 4000 Mbit/s\n",
              spec.name.c_str(), format_bytes(spec.memory).c_str(),
              spec.pcie_bw.bps() / 1073741824.0);
  std::printf("  controller NIC: 8000 Mbit/s; 1x oversubscription = 32 GiB\n");
  std::printf("uvm model:\n");
  std::printf("  page %s, storm threshold %.1fx, compound %.1f, replay %g/%g/%g\n",
              format_bytes(tuning.page_size).c_str(),
              tuning.storm_oversubscription_threshold, tuning.storm_compound,
              tuning.replay_moderate, tuning.replay_high, tuning.replay_massive);
  std::printf("  run cap: 2.5 h (the paper's out-of-time bound)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
    if (opt.command == "run") return cmd_run(opt);
    if (opt.command == "sweep") return cmd_sweep(opt);
    if (opt.command == "policies") return cmd_policies(opt);
    if (opt.command == "serve") return cmd_serve(opt);
    if (opt.command == "dag") return cmd_dag(opt);
    if (opt.command == "script") return cmd_script(opt);
    if (opt.command == "info") return cmd_info();
    usage(("unknown command: " + opt.command).c_str());
  } catch (const grout::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
