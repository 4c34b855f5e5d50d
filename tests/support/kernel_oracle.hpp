// Tree-walking kernel interpreter, pinned as the test oracle for
// CompiledKernel.
//
// This is the executor the polyglot layer ran before kernels were lowered
// to register slots: it resolves every identifier through hash maps and
// keeps each thread's locals in a fresh stack of C block scopes (the
// function scope holding the scalar parameters, one per if/else body, per
// for statement and per for-body pass), so it is slow but obviously
// faithful to the kernel source. test_compiled_kernel diffs CompiledKernel
// against it over randomized kernels, and the InterpreterTest cases in
// test_polyglot pin its semantics.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "polyglot/ast.hpp"
#include "polyglot/kernel_args.hpp"

namespace grout::oracle {

using polyglot::ArrayBinding;
using polyglot::KernelArgs;
namespace ast = polyglot::ast;

namespace kernel_detail {

inline double call_builtin(const std::string& fn, const std::vector<double>& a) {
  const auto arity = [&](std::size_t n) {
    GROUT_REQUIRE(a.size() == n, "wrong argument count for " + fn);
  };
  if (fn == "exp" || fn == "expf") { arity(1); return std::exp(a[0]); }
  if (fn == "log" || fn == "logf") { arity(1); return std::log(a[0]); }
  if (fn == "sqrt" || fn == "sqrtf") { arity(1); return std::sqrt(a[0]); }
  if (fn == "fabs" || fn == "fabsf" || fn == "abs") { arity(1); return std::fabs(a[0]); }
  if (fn == "sin" || fn == "sinf") { arity(1); return std::sin(a[0]); }
  if (fn == "cos" || fn == "cosf") { arity(1); return std::cos(a[0]); }
  if (fn == "tanh" || fn == "tanhf") { arity(1); return std::tanh(a[0]); }
  if (fn == "erf" || fn == "erff") { arity(1); return std::erf(a[0]); }
  if (fn == "pow" || fn == "powf") { arity(2); return std::pow(a[0], a[1]); }
  if (fn == "fmax" || fn == "fmaxf" || fn == "max") { arity(2); return std::fmax(a[0], a[1]); }
  if (fn == "fmin" || fn == "fminf" || fn == "min") { arity(2); return std::fmin(a[0], a[1]); }
  if (fn == "normcdf" || fn == "normcdff") {
    arity(1);
    return 0.5 * std::erfc(-a[0] / std::sqrt(2.0));
  }
  throw ParseError("unknown device function: " + fn);
}

/// Per-thread evaluation environment.
struct ThreadEnv {
  using Scope = std::unordered_map<std::string, double>;

  const std::unordered_map<std::string, const ArrayBinding*>* arrays;
  /// Block scopes, innermost last; the first is the function scope.
  std::vector<Scope> scopes;
  double thread_idx{0.0};
  double block_idx{0.0};
  double block_dim{0.0};
  double grid_dim{0.0};

  void declare(const std::string& name, double value) {
    if (!scopes.back().emplace(name, value).second) {
      throw ParseError("redeclared identifier in kernel: " + name);
    }
  }

  /// The innermost declaration of `name`.
  [[nodiscard]] double& variable(const std::string& name) {
    for (auto scope = scopes.rbegin(); scope != scopes.rend(); ++scope) {
      if (const auto it = scope->find(name); it != scope->end()) return it->second;
    }
    throw ParseError("unknown identifier in kernel: " + name);
  }

  [[nodiscard]] double lookup(const std::string& name) {
    if (name == "threadIdx.x") return thread_idx;
    if (name == "blockIdx.x") return block_idx;
    if (name == "blockDim.x") return block_dim;
    if (name == "gridDim.x") return grid_dim;
    return variable(name);
  }

  [[nodiscard]] const ArrayBinding& array(const std::string& name) const {
    const auto it = arrays->find(name);
    if (it == arrays->end()) throw ParseError("unknown array in kernel: " + name);
    return *it->second;
  }
};

inline double eval_expr(const ast::Expr& e, ThreadEnv& env);
inline void exec_stmts(const std::vector<ast::StmtPtr>& body, ThreadEnv& env);

/// Run a braced body in a scope of its own.
inline void exec_block(const std::vector<ast::StmtPtr>& body, ThreadEnv& env) {
  env.scopes.emplace_back();
  exec_stmts(body, env);
  env.scopes.pop_back();
}

inline void exec_one(const ast::Stmt& stmt, ThreadEnv& env_ref) {
  {
    struct Visitor {
      ThreadEnv& env;
      void operator()(const ast::Decl& d) const { env.declare(d.name, eval_expr(*d.init, env)); }
      void operator()(const ast::Assign& a) const {
        const double value = eval_expr(*a.value, env);
        if (a.index) {
          const ArrayBinding& arr = env.array(a.target);
          const auto i = static_cast<std::size_t>(eval_expr(*a.index, env));
          double result = value;
          if (a.op != 0) {
            const double old = arr.get(i);
            result = a.op == '+' ? old + value
                     : a.op == '-' ? old - value
                     : a.op == '*' ? old * value
                                   : old / value;
          }
          arr.set(i, result);
        } else {
          double& slot = env.variable(a.target);
          if (a.op == 0) {
            slot = value;
          } else {
            slot = a.op == '+' ? slot + value
                   : a.op == '-' ? slot - value
                   : a.op == '*' ? slot * value
                                 : slot / value;
          }
        }
      }
      void operator()(const ast::If& i) const {
        if (eval_expr(*i.cond, env) != 0.0) {
          exec_block(i.then_body, env);
        } else {
          exec_block(i.else_body, env);
        }
      }
      void operator()(const ast::For& l) const {
        env.scopes.emplace_back();  // a declaration in the init lives until the loop ends
        exec_one(*l.init, env);
        // Guard against runaway device loops: the subset has no breaks, so
        // anything past this bound is a bug in the kernel source.
        constexpr std::uint64_t kMaxTrips = 1u << 28;
        std::uint64_t trips = 0;
        while (eval_expr(*l.cond, env) != 0.0) {
          exec_block(l.body, env);
          exec_one(*l.update, env);
          if (++trips > kMaxTrips) {
            throw ParseError("kernel for-loop exceeded the iteration bound");
          }
        }
        env.scopes.pop_back();
      }
    };
    std::visit(Visitor{env_ref}, stmt.node);
  }
}

inline void exec_stmts(const std::vector<ast::StmtPtr>& body, ThreadEnv& env) {
  for (const auto& stmt : body) exec_one(*stmt, env);
}

inline double eval_expr(const ast::Expr& e, ThreadEnv& env) {
  struct Visitor {
    ThreadEnv& env;
    double operator()(const ast::Number& n) const { return n.value; }
    double operator()(const ast::VarRef& v) const { return env.lookup(v.name); }
    double operator()(const ast::Index& i) const {
      const ArrayBinding& arr = env.array(i.array);
      return arr.get(static_cast<std::size_t>(eval_expr(*i.index, env)));
    }
    double operator()(const ast::Binary& b) const {
      const double l = eval_expr(*b.lhs, env);
      // Short-circuit logical operators.
      if (b.op == ast::BinOp::And) return (l != 0.0 && eval_expr(*b.rhs, env) != 0.0) ? 1.0 : 0.0;
      if (b.op == ast::BinOp::Or) return (l != 0.0 || eval_expr(*b.rhs, env) != 0.0) ? 1.0 : 0.0;
      const double r = eval_expr(*b.rhs, env);
      switch (b.op) {
        case ast::BinOp::Add: return l + r;
        case ast::BinOp::Sub: return l - r;
        case ast::BinOp::Mul: return l * r;
        case ast::BinOp::Div: return l / r;
        case ast::BinOp::Mod: return std::fmod(l, r);
        case ast::BinOp::Lt: return l < r ? 1.0 : 0.0;
        case ast::BinOp::Le: return l <= r ? 1.0 : 0.0;
        case ast::BinOp::Gt: return l > r ? 1.0 : 0.0;
        case ast::BinOp::Ge: return l >= r ? 1.0 : 0.0;
        case ast::BinOp::Eq: return l == r ? 1.0 : 0.0;
        case ast::BinOp::Ne: return l != r ? 1.0 : 0.0;
        case ast::BinOp::And:
        case ast::BinOp::Or: break;  // handled above
      }
      return 0.0;
    }
    double operator()(const ast::Unary& u) const {
      const double v = eval_expr(*u.operand, env);
      return u.op == ast::UnOp::Neg ? -v : (v == 0.0 ? 1.0 : 0.0);
    }
    double operator()(const ast::Call& c) const {
      std::vector<double> args;
      args.reserve(c.args.size());
      for (const auto& a : c.args) args.push_back(eval_expr(*a, env));
      return call_builtin(c.fn, args);
    }
    double operator()(const ast::Ternary& t) const {
      return eval_expr(*t.cond, env) != 0.0 ? eval_expr(*t.when_true, env)
                                            : eval_expr(*t.when_false, env);
    }
  };
  return std::visit(Visitor{env}, e.node);
}

}  // namespace kernel_detail

/// Execute `kernel` over a grid of `grid_dim` blocks of `block_dim` threads,
/// one thread after another. `args` takes the layout CompiledKernel::execute
/// takes: arrays in pointer-parameter order, scalars in scalar-parameter
/// order.
inline void execute_kernel(const ast::KernelAst& kernel, const KernelArgs& args,
                           std::size_t grid_dim, std::size_t block_dim) {
  using namespace kernel_detail;
  GROUT_REQUIRE(grid_dim > 0 && block_dim > 0, "empty launch configuration");

  // Bind parameters by position. Scalar parameters live in the function
  // scope, which each thread starts from afresh.
  std::unordered_map<std::string, const ArrayBinding*> arrays;
  ThreadEnv::Scope scalars;
  std::size_t array_cursor = 0;
  std::size_t scalar_cursor = 0;
  for (const ast::Param& p : kernel.params) {
    if (p.pointer) {
      GROUT_REQUIRE(array_cursor < args.arrays.size(), "missing array argument");
      arrays[p.name] = &args.arrays[array_cursor++];
    } else {
      GROUT_REQUIRE(scalar_cursor < args.scalars.size(), "missing scalar argument");
      scalars[p.name] = args.scalars[scalar_cursor++];
    }
  }

  for (std::size_t block = 0; block < grid_dim; ++block) {
    ThreadEnv env;
    env.arrays = &arrays;
    env.block_dim = static_cast<double>(block_dim);
    env.grid_dim = static_cast<double>(grid_dim);
    env.block_idx = static_cast<double>(block);
    for (std::size_t t = 0; t < block_dim; ++t) {
      env.thread_idx = static_cast<double>(t);
      env.scopes.assign(1, scalars);
      exec_stmts(kernel.body, env);
    }
  }
}

}  // namespace grout::oracle
