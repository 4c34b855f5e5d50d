// Kernel objects produced by buildkernel / native registration.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "polyglot/ast.hpp"
#include "polyglot/compiled_kernel.hpp"
#include "polyglot/kernel_args.hpp"
#include "polyglot/signature.hpp"
#include "uvm/access.hpp"

namespace grout::polyglot {

class Context;

struct KernelParamInfo {
  std::string name;
  bool pointer{false};
  ElemType type{ElemType::F32};
  uvm::AccessMode mode{uvm::AccessMode::ReadWrite};
  uvm::AccessPattern pattern{uvm::StreamingPattern{}};
};

/// Host implementation of a native (pre-compiled) kernel.
using NativeFn =
    std::function<void(const KernelArgs& args, std::size_t grid, std::size_t block)>;

class KernelObject {
 public:
  KernelObject(Context& ctx, std::string name, std::vector<KernelParamInfo> params)
      : ctx_{&ctx}, name_{std::move(name)}, params_{std::move(params)} {}

  [[nodiscard]] Context& context() const { return *ctx_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<KernelParamInfo>& params() const { return params_; }

  // -- execution-model knobs (chainable) ------------------------------------

  KernelObject& set_flops_per_thread(double f) {
    flops_per_thread_ = f;
    return *this;
  }
  KernelObject& set_parallelism(uvm::Parallelism p) {
    parallelism_ = p;
    return *this;
  }
  /// Override the simulated access pattern of parameter `index`.
  KernelObject& set_param_pattern(std::size_t index, uvm::AccessPattern pattern);

  [[nodiscard]] double flops_per_thread() const { return flops_per_thread_; }
  [[nodiscard]] uvm::Parallelism parallelism() const { return parallelism_; }

  // -- implementations -------------------------------------------------------

  /// Lowers a parsed kernel to the slot-compiled form that functional
  /// execution runs; the AST itself is not kept.
  void compile(const ast::KernelAst& kernel_ast) {
    compiled_ = std::make_shared<CompiledKernel>(kernel_ast);
  }
  void set_native(NativeFn fn) { native_ = std::move(fn); }
  [[nodiscard]] const CompiledKernel* compiled() const { return compiled_.get(); }
  [[nodiscard]] const NativeFn& native() const { return native_; }
  [[nodiscard]] bool has_functional_impl() const {
    return compiled_ != nullptr || native_ != nullptr;
  }

 private:
  Context* ctx_;
  std::string name_;
  std::vector<KernelParamInfo> params_;
  double flops_per_thread_{1.0};
  uvm::Parallelism parallelism_{uvm::Parallelism::High};
  std::shared_ptr<CompiledKernel> compiled_;
  NativeFn native_;
};

/// A kernel bound to a launch configuration: `square(GRID, BLOCK)`.
struct BoundKernel {
  std::shared_ptr<KernelObject> kernel;
  std::size_t grid_dim{1};
  std::size_t block_dim{1};
};

}  // namespace grout::polyglot
