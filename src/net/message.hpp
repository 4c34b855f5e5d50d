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
//   u32 tenant                  u16 param count, then per param:
//     u32 array  u8 mode  u8 pattern-tag  f64 pattern-arg
//     u64 range begin  u64 range end
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/kernel.hpp"

namespace grout::net {

enum class MessageKind : std::uint8_t {
  ExecuteCe = 1,
};

/// Serialize a kernel CE into `out` (cleared first); returns the wire size.
/// The simulated worker acts on the CE's spec directly, so nothing decodes
/// the buffer: its size is what the control message costs on the network.
Bytes encode_ce(const gpusim::KernelLaunchSpec& spec, std::vector<std::byte>& out);

}  // namespace grout::net
