// Shared vocabulary types for the UVM simulator.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"

namespace grout::uvm {

/// Device identifier within one node. kHostDevice denotes the CPU/host DRAM.
using DeviceId = std::int32_t;
inline constexpr DeviceId kHostDevice = -1;

/// Identifier of a managed allocation within one UvmSpace.
using ArrayId = std::uint32_t;
inline constexpr ArrayId kInvalidArray = ~ArrayId{0};

/// How a computation touches a parameter.
enum class AccessMode : std::uint8_t {
  Read,       ///< const input: never dirties pages
  Write,      ///< pure output: previous content irrelevant
  ReadWrite,  ///< in/out
};

inline bool writes(AccessMode m) { return m != AccessMode::Read; }
inline bool reads(AccessMode m) { return m != AccessMode::Write; }

const char* to_string(AccessMode m);

/// Degree of parallelism of a kernel. Under a fault storm, more outstanding
/// faulting threads mean more fault-buffer overflow replays (Section V-C:
/// the "massively parallel" MV degrades the hardest).
enum class Parallelism : std::uint8_t {
  Moderate,  ///< e.g. reductions, small frontier kernels
  High,      ///< typical data-parallel kernels
  Massive,   ///< grid covers the whole footprint at once
};

const char* to_string(Parallelism p);

/// Byte range within an allocation. End-exclusive.
struct ByteRange {
  Bytes begin{0};
  Bytes end{0};

  [[nodiscard]] Bytes size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return end <= begin; }
};

/// cudaMemAdvise equivalents.
enum class Advise : std::uint8_t {
  None,
  ReadMostly,  ///< read-duplicate pages across devices
};

const char* to_string(Advise a);

}  // namespace grout::uvm
