// Context-free program shapes for the serving frontend.
//
// The workload suite in workloads.hpp builds arrays and kernels through a
// polyglot::Context, which owns the whole runtime — one program per
// cluster. The serving frontend instead multiplexes many tenant programs
// into ONE shared GroutRuntime, so it needs the workloads' array/CE
// structure as plain data it can instantiate per program (with
// tenant-prefixed array names and tenant-tagged CEs): a ProgramShape.
//
// Shapes are recorded from the workloads themselves: record_program_shape
// runs a Workload's build and run against a backend that executes nothing
// and keeps every allocation, host initialization and kernel launch. A
// serving tenant therefore issues exactly the CE stream the Figure 5 suite
// does — same arrays, access modes/patterns, ranges, flops and CE order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "uvm/access.hpp"
#include "workloads/workloads.hpp"

namespace grout::workloads {

/// One CE parameter: an index into ProgramShape::arrays plus the access
/// descriptor a KernelLaunchSpec wants. When `shared` is set the index
/// refers to the serving frontend's shared global-array pool instead of the
/// program's own arrays (contention shapes only).
struct ShapeParam {
  std::size_t array{0};
  uvm::AccessMode mode{uvm::AccessMode::Read};
  uvm::AccessPattern pattern{uvm::StreamingPattern{}};
  uvm::ByteRange range{};  ///< empty = the whole array
  bool shared{false};
};

struct ShapeCe {
  std::string name;
  double flops{0.0};
  uvm::Parallelism parallelism{uvm::Parallelism::High};
  std::vector<ShapeParam> params;
};

struct ShapeArray {
  std::string name;
  Bytes bytes{0};
  /// Controller-side initialization before the first CE (program inputs);
  /// false for arrays the program only ever writes.
  bool host_init{false};
};

struct ProgramShape {
  std::vector<ShapeArray> arrays;
  /// CEs in issue order (the Global DAG derives the real dependencies from
  /// the access modes, exactly as for Context-driven programs).
  std::vector<ShapeCe> ces;

  /// Total bytes across all arrays — what admission control charges a
  /// program against the cluster's worker budgets.
  [[nodiscard]] Bytes footprint() const;
};

/// Record the shape of a freshly made `workload`: run its build and run
/// over a recording backend (no array is materialized, no kernel runs).
/// Throws a grout::Error naming the array when the program does something
/// a shape cannot express: a memory advise, a mid-program host read, or a
/// host write to an array that an earlier CE already used. The workload is
/// spent afterwards: its arrays and kernels belong to the recording context.
ProgramShape record_program_shape(Workload& workload);

/// The shape of one `kind` program under `params`:
/// record_program_shape(*make_workload(kind, params)).
ProgramShape make_program_shape(WorkloadKind kind, const WorkloadParams& params);

/// YCSB-style contention scenario: programs issue short read/update CEs
/// against a pool of shared global arrays under a Zipfian key distribution.
/// The pool itself is owned by the serving frontend (allocated once, shared
/// across tenants); a contention ProgramShape holds only the program's
/// private arrays and references pool keys via ShapeParam::shared.
struct ContentionSpec {
  double theta{0.9};           ///< Zipf skew in [0, 1); 0 = uniform keys
  double read_fraction{0.95};  ///< fraction of ops that only read their keys
  double shared_fraction{0.8}; ///< probability a key targets the shared pool
  std::size_t pool_arrays{64}; ///< shared pool size in arrays ("keys")
  Bytes array_bytes{1_MiB};    ///< bytes per pool / private array
  std::size_t ops{8};          ///< CEs per program
  std::size_t keys_per_op{2};  ///< distinct keys each CE touches
};

/// Parse "theta=0.9,rw=0.95,shared=0.8[,pool=64,bytes=1048576,ops=8,keys=2]".
/// Rejects malformed fields and out-of-range values with a grout::Error.
ContentionSpec parse_contention(std::string_view text);

std::string to_string(const ContentionSpec& spec);

/// Build one contention program shape. `seed` pins the key sequence, so the
/// same (spec, seed) always yields a bit-identical shape. `zipf` draws the
/// pool keys: it must cover spec.pool_arrays keys with skew spec.theta. A
/// serving run builds it once, since its constructor sums pool_arrays terms.
ProgramShape make_contention_shape(const ContentionSpec& spec, const ZipfGenerator& zipf,
                                   std::uint64_t seed);

/// As above, with a sampler built for this one shape.
ProgramShape make_contention_shape(const ContentionSpec& spec, std::uint64_t seed);

}  // namespace grout::workloads
