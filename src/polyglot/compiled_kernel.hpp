// Slot-compiled kernel executor, the one functional executor for kernels
// built from source.
//
// CompiledKernel lowers the AST once: identifiers become register slots,
// resolved with C block scope (a local declared in an if/for body is
// unknown after it), array
// names become binding indices, and builtin calls become enum
// dispatch. Execution then runs every block and thread in order on one
// flat double register file. Context::launch uses it for functional
// execution; tests diff it against a tree-walking interpreter kept in
// tests/support/kernel_oracle.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "polyglot/ast.hpp"
#include "polyglot/kernel_args.hpp"

namespace grout::polyglot {

class CompiledKernel {
 public:
  /// Lower a parsed kernel; throws ParseError on unknown or out-of-scope
  /// identifiers, a name declared twice in one scope, or unsupported device
  /// functions (caught at compile time, not mid-launch).
  explicit CompiledKernel(const ast::KernelAst& kernel);

  CompiledKernel(CompiledKernel&&) noexcept;
  CompiledKernel& operator=(CompiledKernel&&) noexcept;
  ~CompiledKernel();

  /// Run the kernel over grid_dim x block_dim threads, block by block.
  /// `args` holds the arrays in pointer-parameter order and the scalars in
  /// scalar-parameter order.
  void execute(const KernelArgs& args, std::size_t grid_dim, std::size_t block_dim) const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t array_param_count() const { return array_params_; }
  [[nodiscard]] std::size_t scalar_param_count() const { return scalar_params_; }
  [[nodiscard]] std::size_t register_count() const { return registers_; }

 private:
  struct Impl;
  std::string name_;
  std::size_t array_params_{0};
  std::size_t scalar_params_{0};
  std::size_t registers_{0};
  std::unique_ptr<Impl> impl_;
};

}  // namespace grout::polyglot
