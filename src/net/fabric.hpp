// Simulated cluster interconnect.
//
// Every node owns a full-duplex NIC (a TX and an RX sim::Resource). A
// transfer occupies the sender's TX and the receiver's RX queues at the
// pair's effective bandwidth — min(tx, rx) unless a per-pair override is
// installed (heterogeneous links / VNIC SLAs, Section IV-D). The measured
// interconnection matrix the min-transfer-time policy uses is exactly what
// `bandwidth()` exposes, mirroring the probe GrOUT performs at startup.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/event.hpp"
#include "net/topology.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"
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
  [[nodiscard]] Bandwidth bandwidth(NodeId from, NodeId to) const;

  /// Dense row-major bps matrix over all fabric nodes (entry [from *
  /// node_count() + to]; diagonal entries are 0). The placement policies
  /// and the memory governor read it in place instead of probing per pair.
  [[nodiscard]] const std::vector<double>& bandwidth_matrix() const { return bps_matrix_; }

  /// One-way latency between two nodes.
  [[nodiscard]] SimTime latency(NodeId from, NodeId to) const;

  /// Override one pair's bandwidth (both directions). The bandwidth must
  /// be positive (a link is never down) and the pair distinct, so the
  /// matrix diagonal stays 0.
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
  /// command does not queue behind bulk transfers. Two cost classes:
  ///   - CE bundles (`ce_bundle = true`): counted in `control_sends` and
  ///     pay latency + serialization;
  ///   - internal cluster operations (eviction, staging, releases): pay the
  ///     raw link latency only.
  /// The in-order guarantee is per (from, to) pair.
  void send_command(NodeId from, NodeId to, Bytes size, sim::Callback deliver, bool ce_bundle);

  [[nodiscard]] Bytes total_bytes() const { return total_bytes_; }
  [[nodiscard]] Bytes bytes_sent_by(NodeId node) const;
  [[nodiscard]] std::uint64_t transfer_count() const { return transfers_; }
  /// CE bundles sent on the command lane.
  [[nodiscard]] std::uint64_t control_sends() const { return control_sends_; }

 private:
  struct Node {
    NicSpec nic;
    std::unique_ptr<sim::Resource> tx;
    std::unique_ptr<sim::Resource> rx;
  };

  /// A transfer parked on its `ready` event; the wait captures its index.
  struct PendingTransfer {
    NodeId from{0};
    NodeId to{0};
    Bytes size{0};
    SimTime min_deliver_delay;
    std::string label;
    gpusim::EventPtr done;
  };

  void start_transfer(NodeId from, NodeId to, Bytes size, const std::string& label,
                      const gpusim::EventPtr& done, SimTime min_deliver_delay);
  const Node& node_ref(NodeId id) const;
  Node& node_ref(NodeId id);

  sim::Simulator& sim_;
  sim::Tracer* tracer_;
  std::vector<Node> nodes_;
  /// Dense bps over (from, to): min of the endpoints' NICs unless a link
  /// override replaced the pair.
  std::vector<double> bps_matrix_;
  /// Last delivery time per command lane, indexed like bps_matrix_ and
  /// sized by the first send: the next command on a lane never lands
  /// before it.
  std::vector<SimTime> lane_last_delivery_;
  /// Transfers waiting on their `ready` event.
  sim::Slab<PendingTransfer> pending_;
  Bytes total_bytes_{0};
  std::uint64_t transfers_{0};
  std::uint64_t control_sends_{0};
};

}  // namespace grout::net
