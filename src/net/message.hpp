// Wire format for Controller -> Worker control messages.
//
// A scheduled CE crosses the network as a compact binary descriptor; the
// kernel execution on the worker is gated on its arrival. Encoding cost is
// part of the controller's per-CE overhead (the "send the CEs to the
// workers" component of Figure 9).
//
// Layout (little-endian):
//   u8  kind                    u16 kernel-name length, bytes
//   f64 flops                   u8  parallelism
//   u16 param count, then per param:
//     u32 array  u8 mode  u8 pattern-tag  u64 range begin  u64 range end
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/kernel.hpp"

namespace grout::net {

enum class MessageKind : std::uint8_t {
  ExecuteCe = 1,
};

/// Serialize a kernel CE into `out` (cleared first); returns the wire size.
Bytes encode_ce(const gpusim::KernelLaunchSpec& spec, std::vector<std::byte>& out);

/// Inverse of encode_ce; throws grout::InvalidArgument on malformed input.
gpusim::KernelLaunchSpec decode_ce(std::span<const std::byte> wire);

/// Wire size without materializing the buffer (for cost accounting).
Bytes encoded_ce_size(const gpusim::KernelLaunchSpec& spec);

}  // namespace grout::net
