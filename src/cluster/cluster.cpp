#include "cluster/cluster.hpp"

#include "common/strings.hpp"

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
    node_cfg.name = str_cat("node", std::to_string(i));
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
                          std::string label, bool free_source, sim::Callback on_landed) {
  GROUT_REQUIRE(src < workers_.size(), "worker index out of range");
  const std::uint32_t s = staged_.acquire();
  staged_[s] = StagedSend{src, id, bytes, dst, free_source, std::move(label), std::move(on_landed)};
  fabric_->send_command(controller_id(), worker_fabric_id(src), 0,
                        [this, s] { stage_at_source(s); }, /*ce_bundle=*/false);
}

void Cluster::stage_at_source(std::uint32_t s) {
  const StagedSend& send = staged_[s];
  Worker& source = worker(send.src);
  const runtime::Submission staged = source.stage_send(send.id);
  if (send.free_source) source.release_array(send.id, staged.done);
  staged.done->on_complete([this, s] { ack_staged(s); });
}

void Cluster::ack_staged(std::uint32_t s) {
  sim_.schedule_at(sim_.now() + controller_edge(staged_[s].src),
                   [this, s] { start_staged_transfer(s); });
}

void Cluster::start_staged_transfer(std::uint32_t s) {
  StagedSend send = std::move(staged_[s]);
  staged_.release(s);
  const SimTime dst_edge =
      send.dst == controller_id() ? SimTime::zero() : fabric_->latency(controller_id(), send.dst);
  fabric_->transfer(worker_fabric_id(send.src), send.dst, send.bytes, std::move(send.label),
                    nullptr, dst_edge)
      ->on_complete(std::move(send.on_landed));
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
