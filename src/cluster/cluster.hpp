// Cluster bootstrap: one Controller-side fabric endpoint plus N Workers.
//
// Fabric node 0 is the Controller (the paper's Intel Xeon 6354 head node
// with an 8 Gbit/s NIC); nodes 1..N are workers (two V100s, 4 Gbit/s NIC).
//
// Membership is fixed at construction: no worker joins or leaves a run.
//
// Every worker, the fabric and the controller-side bookkeeping share one
// serial sim::Simulator owned by the Cluster.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/worker.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"
#include "sim/trace.hpp"

namespace grout::cluster {

struct ClusterConfig {
  std::size_t workers{2};
  net::NicSpec controller_nic{
      .name = "controller", .bw = Bandwidth::mbit_per_sec(8000.0),
      .latency = SimTime::from_us(50.0)};
  net::NicSpec worker_nic{
      .name = "worker", .bw = Bandwidth::mbit_per_sec(4000.0),
      .latency = SimTime::from_us(50.0)};
  gpusim::GpuNodeConfig worker_node{};
  runtime::StreamPolicyKind stream_policy{runtime::StreamPolicyKind::LeastLoaded};
  std::size_t streams_per_gpu{2};
  bool trace{false};
  /// Event-engine thread count, kept so configs that set it still build.
  /// The engine is serial: only 1 is accepted, any other value is rejected
  /// at construction.
  std::size_t sim_threads{1};
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::NetworkFabric& fabric() { return *fabric_; }
  [[nodiscard]] sim::Tracer& tracer() { return tracer_; }

  /// One-way fabric latency between the controller and worker `i`. State
  /// updates that cross between the controller and a worker model (acks,
  /// staged-copy landings) are scheduled this far apart.
  [[nodiscard]] SimTime controller_edge(std::size_t i) const;

  /// The staged-copy protocol: move worker `src`'s copy of `id` (`bytes`
  /// long) to fabric node `dst`, another worker or the controller. A
  /// command reaches the source one edge later; the source stages
  /// the copy to host memory behind its local writers (Worker::stage_send)
  /// and, with `free_source`, releases its allocation once the staging
  /// completes. The staging acks back one edge later, and the controller
  /// then starts the wire transfer to `dst`. A worker destination never
  /// sees the copy sooner than one controller edge after that start.
  /// `on_landed` runs when the last byte lands. Pins and directory updates
  /// are the caller's: this only moves bytes.
  void send_staged(std::size_t src, GlobalArrayId id, Bytes bytes, net::NodeId dst,
                   std::string label, bool free_source, sim::Callback on_landed);

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  [[nodiscard]] Worker& worker(std::size_t i);
  [[nodiscard]] const Worker& worker(std::size_t i) const;

  /// Fabric id of the controller endpoint (delegates to net/topology.hpp,
  /// the single source of truth for the node layout).
  [[nodiscard]] static constexpr net::NodeId controller_id() {
    return net::controller_node_id();
  }
  /// Fabric id of worker `i`.
  [[nodiscard]] static constexpr net::NodeId worker_fabric_id(std::size_t i) {
    return net::worker_node_id(i);
  }

  [[nodiscard]] const ClusterConfig& config() const { return config_; }

 private:
  /// One staged copy in flight, from the command to the wire transfer's
  /// start; each protocol stage captures only its index.
  struct StagedSend {
    std::size_t src{0};
    GlobalArrayId id{0};
    Bytes bytes{0};
    net::NodeId dst{0};
    bool free_source{false};
    std::string label;
    sim::Callback on_landed;
  };

  /// The three stages of send_staged; `s` indexes staged_.
  void stage_at_source(std::uint32_t s);
  void ack_staged(std::uint32_t s);
  void start_staged_transfer(std::uint32_t s);

  ClusterConfig config_;
  sim::Simulator sim_;
  sim::Tracer tracer_;
  std::unique_ptr<net::NetworkFabric> fabric_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Staged copies in flight.
  sim::Slab<StagedSend> staged_;
};

}  // namespace grout::cluster
