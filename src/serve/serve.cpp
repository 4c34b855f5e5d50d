#include "serve/serve.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "sim/trace.hpp"

namespace grout::serve {

ArrivalSpec parse_arrival(const std::string& text) {
  ArrivalSpec spec;
  const std::size_t colon = text.find(':');
  const std::string kind = text.substr(0, colon);
  const std::string arg = colon == std::string::npos ? "" : text.substr(colon + 1);
  if (kind == "closed") {
    spec.kind = ArrivalSpec::Kind::Closed;
    if (!arg.empty()) {
      const auto [end, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), spec.depth);
      GROUT_REQUIRE(ec == std::errc{} && end == arg.data() + arg.size(),
                    "closed-loop depth is not a number: '" + arg + "'");
    }
    GROUT_REQUIRE(spec.depth >= 1, "closed-loop depth must be >= 1");
  } else if (kind == "poisson") {
    spec.kind = ArrivalSpec::Kind::Poisson;
    GROUT_REQUIRE(!arg.empty(), "poisson arrival needs a rate: poisson:<rate_hz>");
    const auto [end, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), spec.rate_hz);
    GROUT_REQUIRE(ec == std::errc{} && end == arg.data() + arg.size(),
                  "poisson rate is not a number: '" + arg + "'");
    // A zero/negative/non-finite rate would make the exponential
    // inter-arrival gap infinite or negative and hang the serve loop.
    GROUT_REQUIRE(std::isfinite(spec.rate_hz) && spec.rate_hz > 0.0,
                  "poisson rate must be positive and finite");
  } else {
    GROUT_REQUIRE(false, "unknown arrival spec '" + text +
                             "' (want closed[:depth] or poisson:<rate>)");
  }
  return spec;
}

std::string to_string(const ArrivalSpec& a) {
  if (a.kind == ArrivalSpec::Kind::Closed) {
    return str_cat("closed:", std::to_string(a.depth));
  }
  return str_cat("poisson:", std::to_string(a.rate_hz));
}

ServeScheduler::ServeScheduler(core::GroutRuntime& runtime, ServeConfig config)
    : runtime_{runtime}, config_{std::move(config)} {
  GROUT_REQUIRE(!config_.tenants.empty(), "serving needs at least one tenant");
  tenants_.reserve(config_.tenants.size());
  for (std::size_t k = 0; k < config_.tenants.size(); ++k) {
    Tenant& t = tenants_.emplace_back();
    t.spec = config_.tenants[k];
    // A weight of 0 (or below, or inf/NaN) would corrupt every tenant's
    // vtime through the 1/weight increment — reject loudly up front.
    GROUT_REQUIRE(std::isfinite(t.spec.weight) && t.spec.weight > 0.0,
                  "tenant '" + t.spec.name + "' weight must be positive and finite");
    GROUT_REQUIRE(t.spec.programs >= 1, "tenant must submit at least one program");
    if (t.spec.arrival.kind == ArrivalSpec::Kind::Poisson) {
      // Configs built programmatically can bypass parse_arrival; validate
      // here too so schedule_next_arrival can never compute an infinite or
      // negative gap.
      GROUT_REQUIRE(std::isfinite(t.spec.arrival.rate_hz) && t.spec.arrival.rate_hz > 0.0,
                    "poisson rate must be positive and finite");
    } else {
      GROUT_REQUIRE(t.spec.arrival.depth >= 1, "closed-loop depth must be >= 1");
    }
    if (t.spec.name.empty()) t.spec.name = str_cat("tenant", std::to_string(k));
    // Distinct deterministic arrival streams per tenant.
    t.arrivals.reseed(config_.seed ^ ((k + 1) * 0x9e3779b97f4a7c15ULL));
    t.latency_ms =
        SampleSet(kLatencySampleCap, config_.seed ^ ((k + 1) * 0xd1342543de82ef95ULL));
  }
  if (config_.contention) {
    const workloads::ContentionSpec& c = *config_.contention;
    // The shared pool belongs to the frontend, not to any tenant: arrays
    // are allocated unowned (kNoTenant) so every tenant's CEs may touch
    // them, and host-initialized so the first reader has a source copy.
    shared_pool_.reserve(c.pool_arrays);
    for (std::size_t i = 0; i < c.pool_arrays; ++i) {
      const core::GlobalArrayId id =
          runtime_.alloc(c.array_bytes, str_cat("shared/k", std::to_string(i)), kNoTenant);
      runtime_.host_init(id);
      shared_pool_.push_back(id);
    }
  }
}

sim::Simulator& ServeScheduler::simulator() { return runtime_.cluster().simulator(); }

Bytes ServeScheduler::cluster_budget() const {
  const core::MemoryGovernor& governor = runtime_.governor();
  if (!governor.bounded()) return 0;
  return governor.budget() * runtime_.cluster().worker_count();
}

void ServeScheduler::schedule_next_arrival(std::size_t t) {
  Tenant& tenant = tenants_[t];
  if (tenant.submitted >= tenant.spec.programs) return;
  // Exponential interarrival: -ln(1-u)/rate, u uniform in [0,1).
  const double u = tenant.arrivals.next_double();
  const double gap_s = -std::log(1.0 - u) / tenant.spec.arrival.rate_hz;
  simulator().schedule_after(SimTime::from_seconds(gap_s), [this, t] { submit(t); });
}

void ServeScheduler::submit(std::size_t t) {
  Tenant& tenant = tenants_[t];
  GROUT_REQUIRE(tenant.submitted < tenant.spec.programs, "arrival past program count");
  last_progress_ = simulator().now();
  auto p = std::make_unique<Program>();
  p->tenant = t;
  p->seq = tenant.submitted++;
  if (config_.contention) {
    // Key sequences are pinned per (seed, tenant, seq): resubmitting the
    // same serving config replays bit-identical contention traffic.
    const workloads::ContentionSpec& c = *config_.contention;
    if (!contention_zipf_) {
      contention_zipf_ = std::make_unique<ZipfGenerator>(c.pool_arrays, c.theta);
    }
    const std::uint64_t shape_seed = (config_.seed * 0x9e3779b97f4a7c15ULL) ^
                                     ((t + 1) * 0xbf58476d1ce4e5b9ULL) ^
                                     ((p->seq + 1) * 0x94d049bb133111ebULL);
    p->shape = std::make_shared<const workloads::ProgramShape>(
        workloads::make_contention_shape(c, *contention_zipf_, shape_seed));
  } else {
    if (!tenant.shape) {
      tenant.shape = std::make_shared<const workloads::ProgramShape>(
          workloads::make_program_shape(tenant.spec.workload, tenant.spec.params));
    }
    p->shape = tenant.shape;
  }
  p->arrived = simulator().now();
  if (tenant.spec.arrival.kind == ArrivalSpec::Kind::Poisson) schedule_next_arrival(t);

  const Bytes fp = p->shape->footprint();
  const Bytes budget = cluster_budget();
  // A program that can never fit sheds immediately instead of clogging the
  // admission queue forever.
  const bool hopeless = budget != 0 && fp > budget;
  if (!hopeless && try_admit(p)) return;
  if (hopeless || tenant.waiting.size() >= kMaxQueuedPrograms) {
    ++tenant.shed;
    sim::Tracer& tracer = runtime_.cluster().tracer();
    if (tracer.enabled()) {
      tracer.record(sim::TraceCategory::Scheduling,
                    str_cat("shed:", tenant.spec.name, "/p", std::to_string(p->seq)), "serve",
                    p->arrived, p->arrived, static_cast<TenantId>(t));
    }
    return;
  }
  tenant.waiting.push_back(std::move(p));
}

bool ServeScheduler::try_admit(std::unique_ptr<Program>& p) {
  Tenant& tenant = tenants_[p->tenant];
  const Bytes fp = p->shape->footprint();
  const Bytes budget = cluster_budget();
  if (budget != 0 && active_footprint_ + fp > budget) return false;

  const auto tenant_id = static_cast<TenantId>(p->tenant);
  const std::string prefix = tenant.spec.name + "/p" + std::to_string(p->seq) + "/";
  p->arrays.reserve(p->shape->arrays.size());
  for (const workloads::ShapeArray& a : p->shape->arrays) {
    const core::GlobalArrayId id = runtime_.alloc(a.bytes, prefix + a.name, tenant_id);
    if (a.host_init) runtime_.host_init(id);
    p->arrays.push_back(id);
  }
  p->admitted_at = simulator().now();
  tenant.queue_wait_ms.add((p->admitted_at - p->arrived).seconds() * 1e3);
  active_footprint_ += fp;
  ++tenant.admitted;
  ++programs_in_flight_;
  // Re-entering the backlog catches the vtime up to the virtual clock so an
  // idle period cannot be banked as future dispatch credit.
  if (tenant.dispatchable.empty()) {
    tenant.vtime = std::max(tenant.vtime, virtual_clock_);
  }
  tenant.dispatchable.push_back(p.get());
  sim::Tracer& tracer = runtime_.cluster().tracer();
  if (tracer.enabled()) {
    tracer.record(sim::TraceCategory::Scheduling,
                  str_cat("admit:", tenant.spec.name, "/p", std::to_string(p->seq)), "serve",
                  p->arrived, p->admitted_at, tenant_id);
  }
  p->slot = admitted_.size();
  admitted_.push_back(std::move(p));
  if (!pump_scheduled_) {
    pump_scheduled_ = true;
    simulator().schedule_after(SimTime::zero(), [this] { pump(); });
  }
  return true;
}

void ServeScheduler::retry_admissions() {
  // Keep FIFO order within each tenant, but sweep all tenants: one released
  // footprint may unblock several small programs.
  bool progress = true;
  while (progress) {
    progress = false;
    for (Tenant& tenant : tenants_) {
      if (tenant.waiting.empty()) continue;
      if (try_admit(tenant.waiting.front())) {
        tenant.waiting.pop_front();
        progress = true;
      }
    }
  }
}

void ServeScheduler::pump() {
  pump_scheduled_ = false;
  while (outstanding_ces_ < max_outstanding_) {
    // WFQ pick: the backlogged tenant with the smallest virtual time.
    std::size_t pick = tenants_.size();
    for (std::size_t k = 0; k < tenants_.size(); ++k) {
      if (tenants_[k].dispatchable.empty()) continue;
      if (pick == tenants_.size() || tenants_[k].vtime < tenants_[pick].vtime) pick = k;
    }
    if (pick == tenants_.size()) return;
    for (std::size_t k = 0; k < tenants_.size(); ++k) {
      if (k == pick || tenants_[k].dispatchable.empty()) continue;
      ++tenants_[k].skips;
      tenants_[k].starvation_max = std::max(tenants_[k].starvation_max, tenants_[k].skips);
    }
    Tenant& tenant = tenants_[pick];
    tenant.skips = 0;
    // The clock is the service *start* of the slot being granted; the
    // winner's own tag advances by 1/weight, so weighted increments
    // accumulate and a weight-2 tenant wins twice as many min-vtime picks.
    virtual_clock_ = tenant.vtime;
    tenant.vtime += 1.0 / tenant.spec.weight;
    launch_next_ce(tenant);
  }
}

void ServeScheduler::launch_next_ce(Tenant& tenant) {
  Program* p = tenant.dispatchable.front();
  const workloads::ShapeCe& ce = p->shape->ces[p->next_ce++];
  if (p->next_ce == p->shape->ces.size()) tenant.dispatchable.pop_front();

  gpusim::KernelLaunchSpec spec;
  spec.name = ce.name;
  spec.flops = ce.flops;
  spec.parallelism = ce.parallelism;
  spec.tenant = static_cast<TenantId>(p->tenant);
  spec.params.reserve(ce.params.size());
  for (const workloads::ShapeParam& sp : ce.params) {
    core::GlobalArrayId id;
    if (sp.shared) {
      // Shared params index the frontend's contention pool; a shape with
      // shared params outside a contention run is a construction bug.
      GROUT_CHECK(sp.array < shared_pool_.size(),
                  "shared param indexes past the contention pool");
      id = shared_pool_[sp.array];
    } else {
      id = p->arrays[sp.array];
    }
    spec.params.push_back(uvm::ParamAccess{id, sp.range, sp.mode, sp.pattern});
  }
  ++outstanding_ces_;
  ++tenant.ces;
  core::CeTicket ticket = runtime_.launch(std::move(spec));
  ticket.done->on_complete([this, p] { on_ce_complete(p); });
}

void ServeScheduler::on_ce_complete(Program* p) {
  GROUT_CHECK(outstanding_ces_ > 0, "CE completion with none outstanding");
  --outstanding_ces_;
  last_progress_ = simulator().now();
  Tenant& tenant = tenants_[p->tenant];
  const auto tid = static_cast<TenantId>(p->tenant);
  tenant.peak_resident = std::max(tenant.peak_resident, runtime_.governor().tenant_resident(tid));
  if (++p->completed_ces == p->shape->ces.size()) finish_program(p);
  if (!pump_scheduled_) {
    pump_scheduled_ = true;
    // Completion callbacks fire mid-event; dispatch from a fresh sim event.
    simulator().schedule_after(SimTime::zero(), [this] { pump(); });
  }
}

void ServeScheduler::finish_program(Program* p) {
  Tenant& tenant = tenants_[p->tenant];
  const SimTime now = simulator().now();
  tenant.latency_ms.add((now - p->arrived).seconds() * 1e3);
  ++tenant.completed;
  const Bytes fp = p->shape->footprint();
  GROUT_CHECK(active_footprint_ >= fp, "footprint accounting underflow");
  active_footprint_ -= fp;
  GROUT_CHECK(programs_in_flight_ > 0, "program completion with none in flight");
  --programs_in_flight_;
  sim::Tracer& tracer = runtime_.cluster().tracer();
  if (tracer.enabled()) {
    tracer.record(sim::TraceCategory::Scheduling,
                  str_cat("program-done:", tenant.spec.name, "/p", std::to_string(p->seq)),
                  "serve", p->admitted_at, now, static_cast<TenantId>(p->tenant));
  }
  const std::size_t t = p->tenant;
  // Release the program: nothing reads it after its last CE completed.
  const std::size_t slot = p->slot;
  std::swap(admitted_[slot], admitted_.back());
  admitted_[slot]->slot = slot;
  admitted_.pop_back();
  // Closed loop: the finished program's slot submits the next one.
  if (tenant.spec.arrival.kind == ArrivalSpec::Kind::Closed &&
      tenant.submitted < tenant.spec.programs) {
    submit(t);
  }
  retry_admissions();
}

ServeReport ServeScheduler::run() {
  max_outstanding_ = config_.max_outstanding_ces != 0
                         ? config_.max_outstanding_ces
                         : 4 * runtime_.cluster().worker_count();
  GROUT_REQUIRE(max_outstanding_ >= 1, "need at least one outstanding CE slot");
  for (std::size_t k = 0; k < tenants_.size(); ++k) {
    if (tenants_[k].spec.arrival.kind == ArrivalSpec::Kind::Closed) {
      const std::size_t window =
          std::min(tenants_[k].spec.arrival.depth, tenants_[k].spec.programs);
      for (std::size_t i = 0; i < window; ++i) submit(k);
    } else {
      schedule_next_arrival(k);
    }
  }
  return make_report(simulator().run_until(config_.horizon));
}

ServeReport ServeScheduler::make_report(bool queue_drained) {
  ServeReport report;
  report.elapsed = last_progress_;
  std::size_t still_waiting = 0;
  for (Tenant& t : tenants_) still_waiting += t.waiting.size();
  report.drained = queue_drained && programs_in_flight_ == 0 && still_waiting == 0;
  const double elapsed_s = std::max(report.elapsed.seconds(), 1e-9);
  for (std::size_t k = 0; k < tenants_.size(); ++k) {
    Tenant& t = tenants_[k];
    TenantReport r;
    r.name = t.spec.name;
    r.weight = t.spec.weight;
    r.submitted = t.submitted;
    r.admitted = t.admitted;
    r.completed = t.completed;
    r.shed = t.shed + t.waiting.size();  // unadmitted at horizon counts as shed
    r.ces_dispatched = t.ces;
    if (t.latency_ms.count() > 0) {
      r.latency_p50_ms = t.latency_ms.percentile(50.0);
      r.latency_p95_ms = t.latency_ms.percentile(95.0);
      r.latency_p99_ms = t.latency_ms.percentile(99.0);
    }
    if (t.queue_wait_ms.count() > 0) r.queue_wait_mean_ms = t.queue_wait_ms.mean();
    r.throughput_per_s = static_cast<double>(t.completed) / elapsed_s;
    r.starvation_max = t.starvation_max;
    r.peak_resident = t.peak_resident;
    report.total_completed += t.completed;
    report.total_shed += r.shed;
    report.tenants.push_back(std::move(r));
  }
  return report;
}

}  // namespace grout::serve
