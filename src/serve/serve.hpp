// Multi-tenant serving frontend: admission control, weighted fair
// scheduling, and per-tenant SLO accounting.
//
// N tenants submit independent DAG-producing programs — open-loop Poisson
// or closed-loop arrival processes over the paper's workload shapes — into
// per-tenant queues. One ServeScheduler multiplexes them into a single
// shared GroutRuntime:
//
//   * admission control: a program is admitted only when its array
//     footprint fits both the tenant's memory quota and the cluster's
//     aggregate worker budget; otherwise it waits in the tenant's
//     admission queue (bounded — arrivals beyond the bound are shed);
//   * weighted fair queuing: ready CEs are dispatched tenant-by-tenant in
//     virtual-time order (vtime += 1/weight per CE), so a tenant with
//     weight 2 gets twice the dispatch slots of a weight-1 tenant under
//     saturation, with per-tenant consecutive-skip starvation counters;
//   * SLO accounting: per-tenant program latency percentiles (p50/95/99),
//     queue wait, throughput, shed count — the numbers a serving SLO is
//     written against.
//
// The frontend owns arrival generation and program bookkeeping; placement,
// data movement and memory governance stay in the runtime (tenant quotas
// are enforced there too, via MemoryGovernor's per-tenant accounting).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/grout_runtime.hpp"
#include "workloads/shapes.hpp"
#include "workloads/workloads.hpp"

namespace grout::serve {

/// How a tenant's programs arrive.
struct ArrivalSpec {
  enum class Kind : std::uint8_t {
    Closed,   ///< keep `depth` programs in flight (closed loop)
    Poisson,  ///< open loop, exponential interarrivals at `rate_hz`
  };
  Kind kind{Kind::Closed};
  double rate_hz{1.0};
  std::size_t depth{1};
};

/// Parse "closed", "closed:<depth>", "poisson:<rate_hz>".
ArrivalSpec parse_arrival(const std::string& text);
std::string to_string(const ArrivalSpec& a);

struct TenantSpec {
  std::string name;
  double weight{1.0};
  /// Cluster-wide resident-byte quota (0 = unlimited). Enforced twice: at
  /// program admission here, and at placement/eviction in the runtime.
  Bytes quota{0};
  workloads::WorkloadKind workload{workloads::WorkloadKind::BlackScholes};
  workloads::WorkloadParams params{};
  ArrivalSpec arrival{};
  /// Total programs this tenant submits over the run.
  std::size_t programs{4};
};

struct ServeConfig {
  std::vector<TenantSpec> tenants;
  /// Cap on CEs in flight across all tenants (0 = 4 x worker count): the
  /// backpressure that makes WFQ ordering matter.
  std::size_t max_outstanding_ces{0};
  /// Per-tenant admission-queue bound; arrivals beyond it are shed.
  std::size_t max_queued_programs{8};
  /// Wall-clock (sim) horizon for the whole serving run.
  SimTime horizon = SimTime::from_seconds(9000.0);
  std::uint64_t seed{42};
  /// Shared-state contention scenario: when set, every tenant's programs
  /// are YCSB-style contention shapes over one pool of shared global
  /// arrays (allocated unowned, host-initialized) instead of the tenant's
  /// configured workload. Program key sequences are pinned by
  /// (seed, tenant, seq), so a run is bit-identical for a fixed config.
  std::optional<workloads::ContentionSpec> contention;
  /// Reservoir capacity for per-tenant latency percentiles (0 = keep every
  /// sample). Bounded by default so long open-loop runs stay O(1) memory.
  std::size_t latency_sample_cap{4096};
};

/// Per-tenant serving outcome — the SLO ledger.
struct TenantReport {
  std::string name;
  double weight{1.0};
  std::size_t submitted{0};
  std::size_t admitted{0};
  std::size_t completed{0};
  std::size_t shed{0};
  std::uint64_t ces_dispatched{0};
  double latency_p50_ms{0.0};
  double latency_p95_ms{0.0};
  double latency_p99_ms{0.0};
  double queue_wait_mean_ms{0.0};
  double throughput_per_s{0.0};
  /// Longest run of consecutive WFQ rounds this tenant was passed over
  /// while it had dispatchable work.
  std::uint64_t starvation_max{0};
  /// Peak cluster-wide resident replica bytes (governor accounting).
  Bytes peak_resident{0};
};

struct ServeReport {
  std::vector<TenantReport> tenants;
  SimTime elapsed{SimTime::zero()};
  /// False when the horizon expired with admitted work still in flight.
  bool drained{true};
  std::size_t total_completed{0};
  std::size_t total_shed{0};
};

class ServeScheduler {
 public:
  ServeScheduler(core::GroutRuntime& runtime, ServeConfig config);

  ServeScheduler(const ServeScheduler&) = delete;
  ServeScheduler& operator=(const ServeScheduler&) = delete;

  /// Drive the whole serving run: generate arrivals, admit, dispatch via
  /// WFQ, and collect per-tenant SLOs. Blocks (advances virtual time) until
  /// every submitted program completed or the horizon expired.
  ServeReport run();

 private:
  /// One submitted program instance: a shape stamped out into runtime
  /// arrays at admission, then drained CE by CE through the WFQ.
  struct Program {
    std::size_t tenant{0};
    std::size_t seq{0};
    /// Read-only; a tenant's non-contention programs all share one.
    std::shared_ptr<const workloads::ProgramShape> shape;
    std::vector<core::GlobalArrayId> arrays;  ///< filled at admission
    std::size_t next_ce{0};             ///< launch cursor
    std::size_t completed_ces{0};
    SimTime arrived{SimTime::zero()};
    SimTime admitted_at{SimTime::zero()};
  };

  struct Tenant {
    Tenant() = default;
    Tenant(const Tenant&) = delete;
    Tenant& operator=(const Tenant&) = delete;
    Tenant(Tenant&&) = default;
    Tenant& operator=(Tenant&&) = default;

    TenantSpec spec;
    /// The shape every program of a non-contention tenant runs, built on
    /// its first submit (contention shapes are seeded per program).
    std::shared_ptr<const workloads::ProgramShape> shape;
    double vtime{0.0};
    /// Admitted programs with CEs left to launch, FIFO.
    std::deque<Program*> dispatchable;
    /// Programs waiting for admission (footprint did not fit), FIFO.
    std::deque<std::unique_ptr<Program>> waiting;
    Bytes active_footprint{0};
    std::size_t submitted{0};
    std::size_t admitted{0};
    std::size_t completed{0};
    std::size_t shed{0};
    std::uint64_t ces{0};
    std::uint64_t skips{0};
    std::uint64_t starvation_max{0};
    Bytes peak_resident{0};
    SampleSet latency_ms;
    RunningStats queue_wait_ms;
    Rng arrivals{0};
  };

  [[nodiscard]] sim::Simulator& simulator();
  /// Aggregate replica budget over live workers (0 = unbounded governor).
  [[nodiscard]] Bytes cluster_budget() const;
  /// Collect the per-tenant SLO report once the drive finished;
  /// `queue_drained` is what its run_until(horizon) returned.
  ServeReport make_report(bool queue_drained);

  /// One program arrives for tenant `t` (scheduled by the arrival process).
  void submit(std::size_t t);
  void schedule_next_arrival(std::size_t t);
  /// Admit `p` if its footprint fits quota + cluster budget; returns false
  /// (leaving `p` untouched) when it must wait.
  bool try_admit(std::unique_ptr<Program>& p);
  /// Re-run admission over every tenant's waiting queue (after a program
  /// completed and released its footprint).
  void retry_admissions();
  /// Dispatch CEs in WFQ order while capacity allows.
  void pump();
  void launch_next_ce(Tenant& t);
  void on_ce_complete(Program* p);
  void finish_program(Program* p);

  core::GroutRuntime& runtime_;
  ServeConfig config_;
  std::vector<Tenant> tenants_;
  /// Shared contention pool (empty unless config_.contention is set):
  /// runtime ids of the pool arrays, indexed by key. Owned by no tenant, so
  /// every tenant's CEs may legally touch them.
  std::vector<core::GlobalArrayId> shared_pool_;
  /// Owning store of admitted programs (stable addresses for callbacks).
  std::vector<std::unique_ptr<Program>> admitted_;
  std::size_t outstanding_ces_{0};
  std::size_t max_outstanding_{0};
  /// WFQ virtual clock: the service-start vtime of the last granted slot.
  /// A tenant going idle->backlogged re-enters at this value, so it cannot
  /// bank credit while idle.
  double virtual_clock_{0.0};
  Bytes active_footprint_{0};
  std::size_t programs_in_flight_{0};
  bool pump_scheduled_{false};
  /// Time of the last serve-observable event (arrival or CE completion):
  /// what ServeReport::elapsed reports. The engine clock after the drive is
  /// not usable for this: the last event may be worker-side housekeeping,
  /// such as the ack of a staged copy that unpins its source.
  SimTime last_progress_{SimTime::zero()};
};

}  // namespace grout::serve
