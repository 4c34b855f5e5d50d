// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan is a declarative schedule of failures — worker deaths, link
// degradations, control-lane drops/delays — that a FaultInjector arms
// against one Simulator + NetworkFabric pair. Everything is seedable and
// replays bit-identically: probabilistic control drops come from the
// library's fixed xoshiro256** stream, and timed faults ride the ordinary
// event queue.
//
// Scope of the model: droppable control-lane commands can be lost (the
// fabric retries them, see NetworkFabric::send_command); bulk transfers
// that were already planned before a failure are assumed recoverable from
// the source's host-side staging buffer and complete normally. A worker death
// therefore affects the coherence directory, future placements and the
// CEs resident on the dead node — which the runtime replays from DAG
// lineage — but never un-delivers bytes already on the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/fabric.hpp"

namespace grout::net {

/// Kill worker `worker` (cluster index, not fabric id) at sim time `at`.
struct KillWorkerFault {
  std::size_t worker{0};
  SimTime at{SimTime::zero()};
};

/// Degrade the `a`<->`b` link (fabric ids) to `bw` at sim time `at`.
/// `bw` may be zero: the link is then down until a later degrade restores it.
struct DegradeLinkFault {
  NodeId a{0};
  NodeId b{0};
  SimTime at{SimTime::zero()};
  Bandwidth bw{};
};

struct FaultPlan {
  std::vector<KillWorkerFault> kills;
  std::vector<DegradeLinkFault> degrades;
  /// Drop the next N control-lane sends outright (deterministic).
  std::uint32_t drop_next_controls{0};
  /// Additionally drop each control send with this probability.
  double control_drop_rate{0.0};
  /// Seed for the probabilistic drops (ignored when the rate is 0).
  std::uint64_t seed{0x5eedULL};
  /// Extra one-way delay added to every delivered control message.
  SimTime control_delay{SimTime::zero()};

  [[nodiscard]] bool empty() const;

  /// Parse a plan from its CLI spelling: ','- or ';'-separated directives
  ///   kill:<worker>@<sec>           kill worker at a sim time
  ///   degrade:<a>-<b>@<sec>=<mbit>  set link a<->b to <mbit> Mbit/s (0 = down)
  ///   drop:<n>                      drop the next n control messages
  ///   droprate:<p>[@<seed>]         drop each control message with prob. p
  ///   delay:<us>                    extra control-lane delay per message
  /// e.g. "kill:0@0.5,drop:2,delay:100". Every number is the whole of its
  /// field (no unit suffix such as "5ms") and finite; times are >= 0, and a
  /// degrade names two distinct endpoints. Throws InvalidArgument on errors.
  static FaultPlan parse(const std::string& spec);
};

/// Arms a FaultPlan against one simulator + fabric. The runtime registers a
/// worker-death handler so it can run directory/lineage recovery; the
/// injector owns the fabric-facing half (killing the NIC, dropping control
/// messages, rewriting the bandwidth matrix).
class FaultInjector {
 public:
  using KillHandler = std::function<void(std::size_t worker)>;

  FaultInjector(sim::Simulator& sim, NetworkFabric& fabric, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Install the control-lane hooks and schedule every timed fault.
  /// `on_worker_death` runs at kill time, after the fabric endpoint is dead.
  void arm(KillHandler on_worker_death);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] std::uint64_t injected_kills() const { return injected_kills_; }
  [[nodiscard]] std::uint64_t injected_degrades() const { return injected_degrades_; }

 private:
  bool should_drop_control();

  sim::Simulator& sim_;
  NetworkFabric& fabric_;
  FaultPlan plan_;
  Rng rng_;
  std::uint32_t drops_left_;
  std::uint64_t injected_kills_{0};
  std::uint64_t injected_degrades_{0};
};

}  // namespace grout::net
