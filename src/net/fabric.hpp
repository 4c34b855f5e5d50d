// Simulated cluster interconnect.
//
// Every node owns a full-duplex NIC (a TX and an RX sim::Resource). A
// transfer occupies the sender's TX and the receiver's RX queues at the
// pair's effective bandwidth — min(tx, rx) unless a per-pair override is
// installed (heterogeneous links / VNIC SLAs, Section IV-D). The measured
// interconnection matrix the min-transfer-time policy uses is exactly what
// `bandwidth()` exposes, mirroring the probe GrOUT performs at startup.
//
// Droppable commands on the control lane are retried: a fault hook
// (installed by the FaultInjector) may drop an attempt, in which case the
// sender times out and resends with exponential backoff until the command
// lands or an endpoint dies. Bulk `transfer`s are not subject to drops —
// see the fault model note in net/fault.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/event.hpp"
#include "net/topology.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace grout::net {

struct NicSpec {
  std::string name;
  /// The paper's workers have 4000 Mbit/s NICs; the controller 8000 Mbit/s.
  Bandwidth bw = Bandwidth::mbit_per_sec(4000.0);
  SimTime latency = SimTime::from_us(50.0);
};

class NetworkFabric {
 public:
  NetworkFabric(sim::Simulator& simulator, std::vector<NicSpec> nics,
                sim::Tracer* tracer = nullptr);

  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Effective bandwidth between two nodes (the interconnection matrix).
  /// O(1): served from the dense matrix cache.
  [[nodiscard]] Bandwidth bandwidth(NodeId from, NodeId to) const;

  /// Reference implementation of `bandwidth` probing the per-pair override
  /// map directly (the pre-cache code path). Kept for the differential
  /// suite and the scheduling-overhead benches; production callers use
  /// `bandwidth`.
  [[nodiscard]] Bandwidth bandwidth_uncached(NodeId from, NodeId to) const;

  /// Dense row-major bps matrix over all fabric nodes (entry [from *
  /// node_count() + to]; diagonal entries are 0). Rebuilt lazily after
  /// `set_link_override`/`kill_node` invalidate it. The min-transfer-time
  /// policy reads rows of this directly instead of probing per pair.
  [[nodiscard]] const std::vector<double>& bandwidth_matrix() const;

  /// One-way latency between two nodes.
  [[nodiscard]] SimTime latency(NodeId from, NodeId to) const;

  /// Install a per-pair bandwidth override (both directions). Zero is
  /// allowed and means the link is down until a later override restores it.
  void set_link_override(NodeId a, NodeId b, Bandwidth bw);

  /// Start a transfer when `ready` completes (nullptr = immediately);
  /// the returned event completes when the last byte lands, and never
  /// sooner than `min_deliver_delay` past the start. The controller passes
  /// its one-way edge to a receiving worker, so a copy it starts is never
  /// visible on the worker before a message it sends at the same moment
  /// could be; the transfer's duration already covers the edge whenever
  /// the source NIC is no faster than the controller's own.
  gpusim::EventPtr transfer(NodeId from, NodeId to, Bytes size, std::string label = {},
                            gpusim::EventPtr ready = nullptr,
                            SimTime min_deliver_delay = SimTime::zero());

  /// Ordered command lane: commands from `from` to `to` deliver in send
  /// order (a per-pair FIFO), each as an event scheduled no earlier than
  /// the link latency allows. The lane rides a prioritized QoS class, so a
  /// command pays latency + serialization but does not queue behind bulk
  /// transfers. Two flavors:
  ///   - droppable (`reliable = false`): CE bundles; an attempt the fault
  ///     hook drops (or a link degraded to zero bandwidth loses) is resent
  ///     after a timeout with exponential backoff, and an endpoint's death
  ///     abandons the command (its slot is skipped so later commands still
  ///     deliver, in order);
  ///   - reliable (`reliable = true`): internal cluster operations
  ///     (eviction, staging, releases); never dropped, delivered even when
  ///     an endpoint is dead — tear-down must reach the worker model
  ///     unconditionally.
  /// The in-order guarantee is per (from, to) pair.
  void send_command(NodeId from, NodeId to, Bytes size, std::function<void()> deliver,
                    bool reliable);

  /// Fault-injection surface (see net/fault.hpp). The hook is consulted
  /// once per control-lane attempt; returning true loses that attempt.
  void set_control_fault_hook(std::function<bool(NodeId from, NodeId to)> hook) {
    control_fault_hook_ = std::move(hook);
  }
  void set_control_extra_delay(SimTime delay) { control_extra_delay_ = delay; }

  /// Mark a node as dead: control sends touching it are abandoned. The
  /// bandwidth matrix is left untouched — recovery never routes through a
  /// dead node because the coherence directory drops it as a holder.
  void kill_node(NodeId id);
  [[nodiscard]] bool node_alive(NodeId id) const { return node_ref(id).alive; }

  [[nodiscard]] Bytes total_bytes() const { return total_bytes_; }
  [[nodiscard]] Bytes bytes_sent_by(NodeId node) const;
  [[nodiscard]] std::uint64_t transfer_count() const { return transfers_; }

  // -- control-lane reliability counters -------------------------------------
  [[nodiscard]] std::uint64_t control_sends() const { return control_sends_; }
  [[nodiscard]] std::uint64_t control_drops() const { return control_drops_; }
  [[nodiscard]] std::uint64_t control_timeouts() const { return control_timeouts_; }
  [[nodiscard]] std::uint64_t control_retries() const { return control_retries_; }
  [[nodiscard]] std::uint64_t control_abandoned() const { return control_abandoned_; }

 private:
  struct Node {
    NicSpec nic;
    std::unique_ptr<sim::Resource> tx;
    std::unique_ptr<sim::Resource> rx;
    bool alive{true};
  };

  /// One in-flight (or resolved) slot of a command lane. A droppable
  /// command occupies its slot unresolved until the retry loop either lands
  /// it (`end` set) or abandons it (`skipped`); later slots queue behind.
  struct CommandArrival {
    bool resolved{false};
    bool skipped{false};
    SimTime end{SimTime::zero()};
    std::function<void()> deliver;
  };
  struct CommandLane {
    std::uint64_t next_send{0};
    std::uint64_t next_deliver{0};
    SimTime last_delivery{SimTime::zero()};
    std::map<std::uint64_t, CommandArrival> arrivals;
  };

  void start_transfer(NodeId from, NodeId to, Bytes size, const std::string& label,
                      const gpusim::EventPtr& done, SimTime min_deliver_delay);
  void attempt_command(NodeId from, NodeId to, Bytes size, std::uint64_t seq, SimTime timeout);
  void flush_lane(NodeId from, NodeId to);
  void rebuild_matrix() const;
  const Node& node_ref(NodeId id) const;
  Node& node_ref(NodeId id);

  sim::Simulator& sim_;
  sim::Tracer* tracer_;
  std::vector<Node> nodes_;
  std::map<std::pair<NodeId, NodeId>, Bandwidth> overrides_;
  /// Dense bps cache over (from, to); invalidated by set_link_override and
  /// kill_node, rebuilt on the next query (`mutable`: queries are const).
  mutable std::vector<double> bps_matrix_;
  mutable bool matrix_dirty_{true};
  std::map<std::pair<NodeId, NodeId>, CommandLane> lanes_;
  std::function<bool(NodeId, NodeId)> control_fault_hook_;
  SimTime control_extra_delay_{SimTime::zero()};
  Bytes total_bytes_{0};
  std::uint64_t transfers_{0};
  std::uint64_t control_sends_{0};
  std::uint64_t control_drops_{0};
  std::uint64_t control_timeouts_{0};
  std::uint64_t control_retries_{0};
  std::uint64_t control_abandoned_{0};
};

}  // namespace grout::net
