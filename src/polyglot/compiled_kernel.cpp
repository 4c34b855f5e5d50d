#include "polyglot/compiled_kernel.hpp"

#include <cmath>
#include <unordered_map>

#include "common/error.hpp"

namespace grout::polyglot {

namespace {

/// Builtin device functions, resolved at compile time.
enum class Builtin : std::uint8_t {
  Exp, Log, Sqrt, Fabs, Sin, Cos, Tanh, Erf, Normcdf,  // unary
  Pow, Fmax, Fmin,                                     // binary
};

struct BuiltinInfo {
  Builtin fn;
  std::size_t arity;
};

const std::unordered_map<std::string, BuiltinInfo>& builtin_table() {
  static const std::unordered_map<std::string, BuiltinInfo> table = {
      {"exp", {Builtin::Exp, 1}},     {"expf", {Builtin::Exp, 1}},
      {"log", {Builtin::Log, 1}},     {"logf", {Builtin::Log, 1}},
      {"sqrt", {Builtin::Sqrt, 1}},   {"sqrtf", {Builtin::Sqrt, 1}},
      {"fabs", {Builtin::Fabs, 1}},   {"fabsf", {Builtin::Fabs, 1}},
      {"abs", {Builtin::Fabs, 1}},    {"sin", {Builtin::Sin, 1}},
      {"sinf", {Builtin::Sin, 1}},    {"cos", {Builtin::Cos, 1}},
      {"cosf", {Builtin::Cos, 1}},    {"tanh", {Builtin::Tanh, 1}},
      {"tanhf", {Builtin::Tanh, 1}},  {"erf", {Builtin::Erf, 1}},
      {"erff", {Builtin::Erf, 1}},    {"normcdf", {Builtin::Normcdf, 1}},
      {"normcdff", {Builtin::Normcdf, 1}},
      {"pow", {Builtin::Pow, 2}},     {"powf", {Builtin::Pow, 2}},
      {"fmax", {Builtin::Fmax, 2}},   {"fmaxf", {Builtin::Fmax, 2}},
      {"max", {Builtin::Fmax, 2}},    {"fmin", {Builtin::Fmin, 2}},
      {"fminf", {Builtin::Fmin, 2}},  {"min", {Builtin::Fmin, 2}},
  };
  return table;
}

double apply_builtin(Builtin fn, double a, double b) {
  switch (fn) {
    case Builtin::Exp: return std::exp(a);
    case Builtin::Log: return std::log(a);
    case Builtin::Sqrt: return std::sqrt(a);
    case Builtin::Fabs: return std::fabs(a);
    case Builtin::Sin: return std::sin(a);
    case Builtin::Cos: return std::cos(a);
    case Builtin::Tanh: return std::tanh(a);
    case Builtin::Erf: return std::erf(a);
    case Builtin::Normcdf: return 0.5 * std::erfc(-a / std::sqrt(2.0));
    case Builtin::Pow: return std::pow(a, b);
    case Builtin::Fmax: return std::fmax(a, b);
    case Builtin::Fmin: return std::fmin(a, b);
  }
  return 0.0;
}

/// Fixed register slots for the CUDA builtins; parameters/locals follow.
constexpr int kThreadIdx = 0;
constexpr int kBlockIdx = 1;
constexpr int kBlockDim = 2;
constexpr int kGridDim = 3;
constexpr int kFirstFreeSlot = 4;

struct CExpr {
  enum class Kind : std::uint8_t { Number, Reg, Index, Binary, Unary, Call, Ternary };
  Kind kind{Kind::Number};
  double number{0.0};
  int slot{-1};          // Reg
  int array{-1};         // Index
  ast::BinOp bop{};      // Binary
  ast::UnOp uop{};       // Unary
  Builtin builtin{};     // Call
  std::vector<CExpr> children;
};

struct CStmt {
  enum class Kind : std::uint8_t { AssignReg, AssignElem, If, For };
  Kind kind{Kind::AssignReg};
  int slot{-1};   // AssignReg target
  int array{-1};  // AssignElem target
  char op{0};     // compound-assign operator, 0 for plain
  CExpr index;    // AssignElem index
  CExpr value;    // assignment RHS / If and For condition
  std::vector<CStmt> body;       // If-then / For body
  std::vector<CStmt> else_body;  // If-else
  std::vector<CStmt> prologue;   // For init + update (init at [0], update at [1])
};

struct ExecState {
  std::vector<double>& regs;
  const std::vector<ArrayBinding>& arrays;
};

double eval(const CExpr& e, ExecState& st) {
  switch (e.kind) {
    case CExpr::Kind::Number: return e.number;
    case CExpr::Kind::Reg: return st.regs[static_cast<std::size_t>(e.slot)];
    case CExpr::Kind::Index:
      return st.arrays[static_cast<std::size_t>(e.array)].get(
          static_cast<std::size_t>(eval(e.children[0], st)));
    case CExpr::Kind::Unary: {
      const double v = eval(e.children[0], st);
      return e.uop == ast::UnOp::Neg ? -v : (v == 0.0 ? 1.0 : 0.0);
    }
    case CExpr::Kind::Binary: {
      const double l = eval(e.children[0], st);
      if (e.bop == ast::BinOp::And) {
        return (l != 0.0 && eval(e.children[1], st) != 0.0) ? 1.0 : 0.0;
      }
      if (e.bop == ast::BinOp::Or) {
        return (l != 0.0 || eval(e.children[1], st) != 0.0) ? 1.0 : 0.0;
      }
      const double r = eval(e.children[1], st);
      switch (e.bop) {
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
        case ast::BinOp::Or: break;
      }
      return 0.0;
    }
    case CExpr::Kind::Call: {
      const double a = eval(e.children[0], st);
      const double b = e.children.size() > 1 ? eval(e.children[1], st) : 0.0;
      return apply_builtin(e.builtin, a, b);
    }
    case CExpr::Kind::Ternary:
      return eval(e.children[0], st) != 0.0 ? eval(e.children[1], st)
                                            : eval(e.children[2], st);
  }
  return 0.0;
}

double combine(char op, double old, double value) {
  switch (op) {
    case '+': return old + value;
    case '-': return old - value;
    case '*': return old * value;
    case '/': return old / value;
    default: return value;
  }
}

void exec(const std::vector<CStmt>& stmts, ExecState& st);

void exec_stmt(const CStmt& s, ExecState& st) {
  {
    switch (s.kind) {
      case CStmt::Kind::AssignReg: {
        double& slot = st.regs[static_cast<std::size_t>(s.slot)];
        slot = s.op == 0 ? eval(s.value, st) : combine(s.op, slot, eval(s.value, st));
        break;
      }
      case CStmt::Kind::AssignElem: {
        const ArrayBinding& arr = st.arrays[static_cast<std::size_t>(s.array)];
        const auto i = static_cast<std::size_t>(eval(s.index, st));
        const double v = eval(s.value, st);
        arr.set(i, s.op == 0 ? v : combine(s.op, arr.get(i), v));
        break;
      }
      case CStmt::Kind::If:
        if (eval(s.value, st) != 0.0) {
          exec(s.body, st);
        } else {
          exec(s.else_body, st);
        }
        break;
      case CStmt::Kind::For: {
        exec_stmt(s.prologue[0], st);  // init
        constexpr std::uint64_t kMaxTrips = 1u << 28;
        std::uint64_t trips = 0;
        while (eval(s.value, st) != 0.0) {
          exec(s.body, st);
          exec_stmt(s.prologue[1], st);  // update
          if (++trips > kMaxTrips) {
            throw ParseError("kernel for-loop exceeded the iteration bound");
          }
        }
        break;
      }
    }
  }
}

void exec(const std::vector<CStmt>& stmts, ExecState& st) {
  for (const CStmt& s : stmts) exec_stmt(s, st);
}

}  // namespace

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct CompiledKernel::Impl {
  std::vector<CStmt> body;
  /// Register slots holding scalar parameters, in scalar-parameter order.
  std::vector<int> scalar_slots;
};

namespace {

class Compiler {
 public:
  explicit Compiler(const ast::KernelAst& kernel) : kernel_{kernel} {
    // Scalar parameters and the body's top-level locals share the
    // function's scope, as in C.
    open_scope();
    for (const ast::Param& p : kernel.params) {
      if (p.pointer) {
        arrays_.emplace(p.name, static_cast<int>(arrays_.size()));
      } else {
        scalar_slots_.push_back(slot_for(p.name, /*declare=*/true));
      }
    }
  }

  std::vector<CStmt> compile_body() { return compile_stmts(kernel_.body); }

  [[nodiscard]] std::size_t array_count() const { return arrays_.size(); }
  [[nodiscard]] std::vector<int> scalar_slots() const { return scalar_slots_; }
  [[nodiscard]] std::size_t register_count() const { return static_cast<std::size_t>(next_slot_); }

 private:
  void open_scope() { scopes_.emplace_back(); }
  void close_scope() { scopes_.pop_back(); }

  std::vector<CStmt> compile_stmts(const std::vector<ast::StmtPtr>& stmts) {
    std::vector<CStmt> out;
    out.reserve(stmts.size());
    for (const auto& s : stmts) out.push_back(compile_stmt(*s));
    return out;
  }

  /// Compile a braced body: what it declares is invisible after it.
  std::vector<CStmt> compile_block(const std::vector<ast::StmtPtr>& stmts) {
    open_scope();
    std::vector<CStmt> out = compile_stmts(stmts);
    close_scope();
    return out;
  }

  CStmt compile_stmt(const ast::Stmt& stmt) {
    struct Visitor {
      Compiler& c;
      CStmt operator()(const ast::Decl& d) const {
        CStmt s;
        s.kind = CStmt::Kind::AssignReg;
        s.slot = c.slot_for(d.name, /*declare=*/true);
        s.value = c.compile_expr(*d.init);
        return s;
      }
      CStmt operator()(const ast::Assign& a) const {
        CStmt s;
        s.op = a.op;
        s.value = c.compile_expr(*a.value);
        if (a.index) {
          s.kind = CStmt::Kind::AssignElem;
          s.array = c.array_for(a.target);
          s.index = c.compile_expr(*a.index);
        } else {
          s.kind = CStmt::Kind::AssignReg;
          s.slot = c.slot_for(a.target, /*declare=*/false);
        }
        return s;
      }
      CStmt operator()(const ast::If& i) const {
        CStmt s;
        s.kind = CStmt::Kind::If;
        s.value = c.compile_expr(*i.cond);
        s.body = c.compile_block(i.then_body);
        s.else_body = c.compile_block(i.else_body);
        return s;
      }
      CStmt operator()(const ast::For& l) const {
        CStmt s;
        s.kind = CStmt::Kind::For;
        c.open_scope();  // a declaration in the init lives until the loop ends
        s.prologue.push_back(c.compile_stmt(*l.init));
        s.value = c.compile_expr(*l.cond);
        s.prologue.push_back(c.compile_stmt(*l.update));
        s.body = c.compile_block(l.body);
        c.close_scope();
        return s;
      }
    };
    return std::visit(Visitor{*this}, stmt.node);
  }

  CExpr compile_expr(const ast::Expr& expr) {
    struct Visitor {
      Compiler& c;
      CExpr operator()(const ast::Number& n) const {
        CExpr e;
        e.kind = CExpr::Kind::Number;
        e.number = n.value;
        return e;
      }
      CExpr operator()(const ast::VarRef& v) const {
        CExpr e;
        e.kind = CExpr::Kind::Reg;
        if (v.name == "threadIdx.x") {
          e.slot = kThreadIdx;
        } else if (v.name == "blockIdx.x") {
          e.slot = kBlockIdx;
        } else if (v.name == "blockDim.x") {
          e.slot = kBlockDim;
        } else if (v.name == "gridDim.x") {
          e.slot = kGridDim;
        } else {
          e.slot = c.slot_for(v.name, /*declare=*/false);
        }
        return e;
      }
      CExpr operator()(const ast::Index& i) const {
        CExpr e;
        e.kind = CExpr::Kind::Index;
        e.array = c.array_for(i.array);
        e.children.push_back(c.compile_expr(*i.index));
        return e;
      }
      CExpr operator()(const ast::Binary& b) const {
        CExpr e;
        e.kind = CExpr::Kind::Binary;
        e.bop = b.op;
        e.children.push_back(c.compile_expr(*b.lhs));
        e.children.push_back(c.compile_expr(*b.rhs));
        return e;
      }
      CExpr operator()(const ast::Unary& u) const {
        CExpr e;
        e.kind = CExpr::Kind::Unary;
        e.uop = u.op;
        e.children.push_back(c.compile_expr(*u.operand));
        return e;
      }
      CExpr operator()(const ast::Call& call) const {
        const auto it = builtin_table().find(call.fn);
        if (it == builtin_table().end()) {
          throw ParseError("unknown device function: " + call.fn);
        }
        if (call.args.size() != it->second.arity) {
          throw ParseError("wrong argument count for " + call.fn);
        }
        CExpr e;
        e.kind = CExpr::Kind::Call;
        e.builtin = it->second.fn;
        for (const auto& a : call.args) e.children.push_back(c.compile_expr(*a));
        return e;
      }
      CExpr operator()(const ast::Ternary& t) const {
        CExpr e;
        e.kind = CExpr::Kind::Ternary;
        e.children.push_back(c.compile_expr(*t.cond));
        e.children.push_back(c.compile_expr(*t.when_true));
        e.children.push_back(c.compile_expr(*t.when_false));
        return e;
      }
    };
    return std::visit(Visitor{*this}, expr.node);
  }

  /// Declare `name` in the innermost scope, or resolve it from the
  /// innermost scope outward. A declaration may shadow an outer name but
  /// not repeat one in its own scope.
  int slot_for(const std::string& name, bool declare) {
    if (declare) {
      const int slot = next_slot_++;
      if (!scopes_.back().emplace(name, slot).second) {
        throw ParseError("redeclared identifier in kernel: " + name);
      }
      return slot;
    }
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      const auto it = scope->find(name);
      if (it != scope->end()) return it->second;
    }
    throw ParseError("unknown identifier in kernel: " + name);
  }

  int array_for(const std::string& name) const {
    const auto it = arrays_.find(name);
    if (it == arrays_.end()) throw ParseError("unknown array in kernel: " + name);
    return it->second;
  }

  const ast::KernelAst& kernel_;
  /// Visible locals and scalar parameters by name, one map per C block
  /// scope, innermost last. Every declaration gets its own register slot.
  std::vector<std::unordered_map<std::string, int>> scopes_;
  std::unordered_map<std::string, int> arrays_;
  std::vector<int> scalar_slots_;
  int next_slot_{kFirstFreeSlot};
};

}  // namespace

CompiledKernel::CompiledKernel(const ast::KernelAst& kernel)
    : name_{kernel.name}, impl_{std::make_unique<Impl>()} {
  Compiler compiler(kernel);
  impl_->body = compiler.compile_body();
  impl_->scalar_slots = compiler.scalar_slots();
  array_params_ = compiler.array_count();
  scalar_params_ = impl_->scalar_slots.size();
  registers_ = compiler.register_count();
}

CompiledKernel::CompiledKernel(CompiledKernel&&) noexcept = default;
CompiledKernel& CompiledKernel::operator=(CompiledKernel&&) noexcept = default;
CompiledKernel::~CompiledKernel() = default;

void CompiledKernel::execute(const KernelArgs& args, std::size_t grid_dim,
                             std::size_t block_dim) const {
  GROUT_REQUIRE(grid_dim > 0 && block_dim > 0, "empty launch configuration");
  GROUT_REQUIRE(args.arrays.size() >= array_params_, "missing array argument");
  GROUT_REQUIRE(args.scalars.size() >= scalar_params_, "missing scalar argument");

  std::vector<double> regs(registers_, 0.0);
  regs[kBlockDim] = static_cast<double>(block_dim);
  regs[kGridDim] = static_cast<double>(grid_dim);
  ExecState st{regs, args.arrays};
  for (std::size_t block = 0; block < grid_dim; ++block) {
    regs[kBlockIdx] = static_cast<double>(block);
    for (std::size_t t = 0; t < block_dim; ++t) {
      regs[kThreadIdx] = static_cast<double>(t);
      // Scalar parameters are per-thread copies: a thread that assigns one
      // must not leak the value to the next.
      for (std::size_t i = 0; i < scalar_params_; ++i) {
        regs[static_cast<std::size_t>(impl_->scalar_slots[i])] = args.scalars[i];
      }
      exec(impl_->body, st);
    }
  }
}

}  // namespace grout::polyglot
