#include "cluster/cluster.hpp"

namespace grout::cluster {

Cluster::Cluster(ClusterConfig config) : config_{std::move(config)} {
  GROUT_REQUIRE(config_.workers >= 1, "a cluster needs at least one worker");
  GROUT_REQUIRE(config_.sim_threads == 1, "sim_threads must be 1 (the engine is serial)");
  tracer_.set_enabled(config_.trace);

  std::vector<net::NicSpec> nics;
  nics.reserve(config_.workers + 1);
  nics.push_back(config_.controller_nic);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    net::NicSpec nic = config_.worker_nic;
    nic.name = config_.worker_nic.name + std::to_string(i);
    nics.push_back(std::move(nic));
  }
  fabric_ = std::make_unique<net::NetworkFabric>(sim_, std::move(nics), &tracer_);

  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    gpusim::GpuNodeConfig node_cfg = config_.worker_node;
    node_cfg.name = "node" + std::to_string(i);
    node_cfg.seed = node_cfg.seed + i * 0x9e37ULL;
    workers_.push_back(std::make_unique<Worker>(sim_, std::move(node_cfg),
                                                worker_fabric_id(i), config_.stream_policy,
                                                config_.streams_per_gpu,
                                                config_.trace ? &tracer_ : nullptr));
  }
}

SimTime Cluster::controller_edge(std::size_t i) const {
  return fabric_->latency(controller_id(), worker_fabric_id(i));
}

void Cluster::send_staged(std::size_t src, GlobalArrayId id, Bytes bytes, net::NodeId dst,
                          std::string label, bool free_source,
                          std::function<void()> on_landed) {
  Worker& source = worker(src);
  const net::NodeId src_fid = worker_fabric_id(src);
  const SimTime src_edge = controller_edge(src);
  const SimTime dst_edge =
      dst == controller_id() ? SimTime::zero() : fabric_->latency(controller_id(), dst);
  // Each stage runs once, so it hands its captures on by move.
  fabric_->send_command(
      controller_id(), src_fid, 0,
      [this, &source, src_fid, src_edge, dst, dst_edge, id, bytes, free_source,
       label = std::move(label), on_landed = std::move(on_landed)]() mutable {
        const runtime::Submission staged = source.stage_send(id);
        if (free_source) source.release_array(id, staged.done);
        staged.done->on_complete([this, src_fid, src_edge, dst, dst_edge, bytes,
                                  label = std::move(label),
                                  on_landed = std::move(on_landed)]() mutable {
          sim_.schedule_at(sim_.now() + src_edge,
                           [this, src_fid, dst, dst_edge, bytes, label = std::move(label),
                            on_landed = std::move(on_landed)]() mutable {
                             fabric_->transfer(src_fid, dst, bytes, std::move(label), nullptr,
                                               dst_edge)
                                 ->on_complete(std::move(on_landed));
                           });
        });
      },
      /*ce_bundle=*/false);
}

Worker& Cluster::worker(std::size_t i) {
  GROUT_REQUIRE(i < workers_.size(), "worker index out of range");
  return *workers_[i];
}

const Worker& Cluster::worker(std::size_t i) const {
  GROUT_REQUIRE(i < workers_.size(), "worker index out of range");
  return *workers_[i];
}

}  // namespace grout::cluster
