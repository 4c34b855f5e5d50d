#include "net/fabric.hpp"

#include <algorithm>

namespace grout::net {

NetworkFabric::NetworkFabric(sim::Simulator& simulator, std::vector<NicSpec> nics,
                             sim::Tracer* tracer)
    : sim_{simulator}, tracer_{tracer} {
  GROUT_REQUIRE(nics.size() >= 2, "a fabric needs at least two nodes");
  nodes_.reserve(nics.size());
  for (auto& nic : nics) {
    Node n;
    n.tx = std::make_unique<sim::Resource>(sim_, nic.name + "/tx", nic.bw, SimTime::zero());
    n.rx = std::make_unique<sim::Resource>(sim_, nic.name + "/rx", nic.bw, SimTime::zero());
    n.nic = std::move(nic);
    nodes_.push_back(std::move(n));
  }
  const std::size_t n = nodes_.size();
  bps_matrix_.assign(n * n, 0.0);
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (from == to) continue;
      bps_matrix_[from * n + to] = std::min(nodes_[from].nic.bw, nodes_[to].nic.bw).bps();
    }
  }
}

Bandwidth NetworkFabric::bandwidth(NodeId from, NodeId to) const {
  node_ref(from);
  node_ref(to);
  GROUT_REQUIRE(from != to, "self transfer");
  return Bandwidth::bytes_per_sec(
      bps_matrix_[static_cast<std::size_t>(from) * nodes_.size() +
                  static_cast<std::size_t>(to)]);
}

SimTime NetworkFabric::latency(NodeId from, NodeId to) const {
  return node_ref(from).nic.latency + node_ref(to).nic.latency;
}

void NetworkFabric::set_link_override(NodeId a, NodeId b, Bandwidth bw) {
  GROUT_REQUIRE(bw.valid(), "link override requires positive bandwidth");
  GROUT_REQUIRE(a != b, "self link override");
  node_ref(a);
  node_ref(b);
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  bps_matrix_[ia * nodes_.size() + ib] = bw.bps();
  bps_matrix_[ib * nodes_.size() + ia] = bw.bps();
}

gpusim::EventPtr NetworkFabric::transfer(NodeId from, NodeId to, Bytes size, std::string label,
                                         gpusim::EventPtr ready, SimTime min_deliver_delay) {
  node_ref(from);
  node_ref(to);
  GROUT_REQUIRE(from != to, "self transfer");
  gpusim::EventPtr done = gpusim::make_event();
  if (ready) {
    const std::uint32_t slot = pending_.acquire();
    pending_[slot] = PendingTransfer{from, to, size, min_deliver_delay, std::move(label), done};
    ready->on_complete([this, slot] {
      const PendingTransfer p = std::move(pending_[slot]);
      pending_.release(slot);
      start_transfer(p.from, p.to, p.size, p.label, p.done, p.min_deliver_delay);
    });
  } else {
    start_transfer(from, to, size, label, done, min_deliver_delay);
  }
  return done;
}

void NetworkFabric::start_transfer(NodeId from, NodeId to, Bytes size, const std::string& label,
                                   const gpusim::EventPtr& done, SimTime min_deliver_delay) {
  const SimTime begin = sim_.now();
  const SimTime duration = latency(from, to) + bandwidth(from, to).transfer_time(size);
  // Occupy both endpoints; completion is whichever queue drains last. The
  // wire time already dominates a controller edge for any sane NIC layout;
  // the clamp only bites in exotic configs where the source NIC undercuts
  // the controller's own link latency.
  const SimTime tx_done = node_ref(from).tx->submit_duration(duration, size);
  const SimTime rx_done = node_ref(to).rx->submit_duration(duration, size);
  const SimTime end = std::max(std::max(tx_done, rx_done), begin + min_deliver_delay);
  total_bytes_ += size;
  ++transfers_;
  // Guard on enabled() so the name/location strings are never built for a
  // disabled tracer (record() would just drop them).
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->record(sim::TraceCategory::NetworkTransfer,
                    label.empty() ? "transfer" : label,
                    node_ref(from).nic.name + "->" + node_ref(to).nic.name, begin, end);
  }
  sim_.schedule_at(end, [done, end] { done->complete(end); });
}

void NetworkFabric::send_command(NodeId from, NodeId to, Bytes size, sim::Callback deliver,
                                 bool ce_bundle) {
  node_ref(from);
  node_ref(to);
  GROUT_REQUIRE(from != to, "self command");
  GROUT_REQUIRE(static_cast<bool>(deliver), "null command callback");
  SimTime end = sim_.now() + latency(from, to);
  if (ce_bundle) {
    ++control_sends_;
    total_bytes_ += size;
    end += bandwidth(from, to).transfer_time(size);
  }
  // In-order delivery: never behind the previous command on this lane.
  const std::size_t n = nodes_.size();
  if (lane_last_delivery_.empty()) lane_last_delivery_.assign(n * n, SimTime::zero());
  SimTime& last =
      lane_last_delivery_[static_cast<std::size_t>(from) * n + static_cast<std::size_t>(to)];
  last = std::max(end, last);
  sim_.schedule_at(last, std::move(deliver));
}

Bytes NetworkFabric::bytes_sent_by(NodeId node) const { return node_ref(node).tx->bytes_moved(); }

const NetworkFabric::Node& NetworkFabric::node_ref(NodeId id) const {
  GROUT_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodes_.size()), "unknown fabric node");
  return nodes_[static_cast<std::size_t>(id)];
}

NetworkFabric::Node& NetworkFabric::node_ref(NodeId id) {
  GROUT_REQUIRE(id >= 0 && id < static_cast<NodeId>(nodes_.size()), "unknown fabric node");
  return nodes_[static_cast<std::size_t>(id)];
}

}  // namespace grout::net
