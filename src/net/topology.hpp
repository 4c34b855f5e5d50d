// Fabric endpoint layout shared by the cluster bootstrap and the inter-node
// policies: node 0 is the Controller's NIC, worker i
// owns node i + 1. Keeping the mapping in one place means a future fabric
// topology change (e.g. multiple NICs per node) cannot silently skew the
// min-transfer-time cost model against the cluster wiring.
#pragma once

#include <cstddef>
#include <cstdint>

namespace grout::net {

using NodeId = std::int32_t;

/// Fabric id of the controller endpoint (always 0).
[[nodiscard]] constexpr NodeId controller_node_id() { return 0; }

/// Fabric id of worker `worker`.
[[nodiscard]] constexpr NodeId worker_node_id(std::size_t worker) {
  return static_cast<NodeId>(worker + 1);
}

/// Inverse of worker_node_id; only valid for non-controller ids.
[[nodiscard]] constexpr std::size_t worker_of_node(NodeId id) {
  return static_cast<std::size_t>(id - 1);
}

}  // namespace grout::net
