// Host-side kernel arguments for functional execution.
//
// Kernels run once per simulated CUDA thread over real host buffers, so
// examples and tests observe real numerical results (the timing comes from
// the GPU/UVM simulator, not from this execution). CompiledKernel and
// native kernels both take their arguments in this form.
#pragma once

#include <cstddef>
#include <vector>

#include "polyglot/types.hpp"

namespace grout::polyglot {

/// A host-side view of one pointer argument.
struct ArrayBinding {
  ElemType type{ElemType::F64};
  void* data{nullptr};
  std::size_t length{0};

  /// Bounds-checked element access; throws InvalidArgument out of range.
  [[nodiscard]] double get(std::size_t i) const;
  void set(std::size_t i, double v) const;
};

/// One launch's arguments: pointer parameters take the corresponding
/// ArrayBinding, scalars the corresponding double.
struct KernelArgs {
  std::vector<ArrayBinding> arrays;  ///< indexed by pointer-parameter order
  std::vector<double> scalars;       ///< indexed by scalar-parameter order
};

}  // namespace grout::polyglot
