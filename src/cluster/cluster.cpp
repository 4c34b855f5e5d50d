#include "cluster/cluster.hpp"

namespace grout::cluster {

const char* to_string(WorkerState s) {
  switch (s) {
    case WorkerState::Active: return "active";
    case WorkerState::Draining: return "draining";
    case WorkerState::Drained: return "drained";
  }
  return "?";
}

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
    append_worker(i, WorkerSpec{});
  }
}

SimTime Cluster::controller_edge(std::size_t i) const {
  return fabric_->latency(controller_id(), worker_fabric_id(i));
}

void Cluster::append_worker(std::size_t i, const WorkerSpec& spec) {
  gpusim::GpuNodeConfig node_cfg = spec.node.value_or(config_.worker_node);
  node_cfg.name = "node" + std::to_string(i);
  node_cfg.seed = node_cfg.seed + i * 0x9e37ULL;
  workers_.push_back(std::make_unique<Worker>(sim_, std::move(node_cfg),
                                              worker_fabric_id(i), config_.stream_policy,
                                              config_.streams_per_gpu,
                                              config_.trace ? &tracer_ : nullptr));
  states_.push_back(WorkerState::Active);
}

std::size_t Cluster::add_worker(const WorkerSpec& spec) {
  const std::size_t i = workers_.size();
  net::NicSpec nic = spec.nic.value_or(config_.worker_nic);
  if (!spec.nic.has_value()) nic.name = config_.worker_nic.name + std::to_string(i);
  const net::NodeId fid = fabric_->add_node(std::move(nic));
  GROUT_CHECK(fid == worker_fabric_id(i),
              "fabric id / worker index skew on hot-join (topology law violated)");
  append_worker(i, spec);
  return i;
}

void Cluster::drain_worker(std::size_t i) {
  GROUT_REQUIRE(i < states_.size(), "worker index out of range");
  GROUT_REQUIRE(states_[i] == WorkerState::Active, "only an active worker can start draining");
  states_[i] = WorkerState::Draining;
}

void Cluster::retire_worker(std::size_t i) {
  GROUT_REQUIRE(i < states_.size(), "worker index out of range");
  GROUT_REQUIRE(states_[i] == WorkerState::Draining, "only a draining worker can be retired");
  states_[i] = WorkerState::Drained;
}

WorkerState Cluster::worker_state(std::size_t i) const {
  GROUT_REQUIRE(i < states_.size(), "worker index out of range");
  return states_[i];
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
