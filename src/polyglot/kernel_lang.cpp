#include "polyglot/kernel_lang.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/error.hpp"

namespace grout::polyglot {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind { Ident, Number, Punct, End };

struct Token {
  TokKind kind{TokKind::End};
  std::string text;
  double number{0.0};
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_{src} { advance(); }

  [[nodiscard]] const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  [[nodiscard]] bool at_punct(std::string_view p) const {
    return current_.kind == TokKind::Punct && current_.text == p;
  }
  [[nodiscard]] bool at_ident(std::string_view id) const {
    return current_.kind == TokKind::Ident && current_.text == id;
  }

  void expect_punct(std::string_view p) {
    if (!at_punct(p)) fail("expected '" + std::string(p) + "'");
    advance();
  }

  std::string expect_ident() {
    if (current_.kind != TokKind::Ident) fail("expected identifier");
    std::string name = current_.text;
    advance();
    return name;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError("kernel parse error near '" + current_.text + "': " + msg);
  }

 private:
  void advance() {
    skip_ws_and_comments();
    if (pos_ >= src_.size()) {
      current_ = Token{TokKind::End, "<eof>", 0.0};
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) || src_[pos_] == '_')) {
        ++pos_;
      }
      current_ = Token{TokKind::Ident, std::string(src_.substr(start, pos_ - start)), 0.0};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < src_.size() &&
         std::isdigit(static_cast<unsigned char>(src_[pos_ + 1])))) {
      std::size_t start = pos_;
      while (pos_ < src_.size() &&
             (std::isdigit(static_cast<unsigned char>(src_[pos_])) || src_[pos_] == '.' ||
              src_[pos_] == 'e' || src_[pos_] == 'E' || src_[pos_] == 'f' || src_[pos_] == 'F' ||
              ((src_[pos_] == '+' || src_[pos_] == '-') && pos_ > start &&
               (src_[pos_ - 1] == 'e' || src_[pos_ - 1] == 'E')))) {
        ++pos_;
      }
      std::string text(src_.substr(start, pos_ - start));
      // Strip CUDA float suffixes before conversion.
      while (!text.empty() && (text.back() == 'f' || text.back() == 'F')) text.pop_back();
      current_ = Token{TokKind::Number, text, std::strtod(text.c_str(), nullptr)};
      return;
    }
    // Multi-char punctuation, longest match first.
    static constexpr std::string_view kTwoChar[] = {"==", "!=", "<=", ">=", "&&", "||",
                                                    "+=", "-=", "*=", "/=", "++", "--"};
    for (const std::string_view p : kTwoChar) {
      if (src_.substr(pos_, 2) == p) {
        current_ = Token{TokKind::Punct, std::string(p), 0.0};
        pos_ += 2;
        return;
      }
    }
    current_ = Token{TokKind::Punct, std::string(1, c), 0.0};
    ++pos_;
  }

  void skip_ws_and_comments() {
    for (;;) {
      while (pos_ < src_.size() && std::isspace(static_cast<unsigned char>(src_[pos_]))) ++pos_;
      if (src_.substr(pos_, 2) == "//") {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
        continue;
      }
      if (src_.substr(pos_, 2) == "/*") {
        pos_ += 2;
        while (pos_ + 1 < src_.size() && src_.substr(pos_, 2) != "*/") ++pos_;
        pos_ = pos_ + 2 <= src_.size() ? pos_ + 2 : src_.size();
        continue;
      }
      return;
    }
  }

  std::string_view src_;
  std::size_t pos_{0};
  Token current_;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

bool is_type_name(std::string_view s) {
  return s == "int" || s == "float" || s == "double" || s == "long" || s == "unsigned" ||
         s == "size_t" || s == "bool";
}

bool is_builtin_vector(std::string_view s) {
  return s == "threadIdx" || s == "blockIdx" || s == "blockDim" || s == "gridDim";
}

class Parser {
 public:
  explicit Parser(std::string_view src) : lex_{src} {}

  ast::KernelAst parse_kernel() {
    // Skip everything up to `__global__` (extern "C", comments, includes of
    // device headers are tolerated by the lexer skipping them as tokens).
    while (!lex_.at_ident("__global__")) {
      if (lex_.peek().kind == TokKind::End) lex_.fail("no __global__ function found");
      lex_.take();
    }
    lex_.take();  // __global__
    if (!lex_.at_ident("void")) lex_.fail("__global__ functions must return void");
    lex_.take();

    ast::KernelAst kernel;
    kernel.name = lex_.expect_ident();
    lex_.expect_punct("(");
    if (!lex_.at_punct(")")) {
      for (;;) {
        kernel.params.push_back(parse_param());
        if (lex_.at_punct(",")) {
          lex_.take();
          continue;
        }
        break;
      }
    }
    lex_.expect_punct(")");
    lex_.expect_punct("{");
    kernel.body = parse_block_body();
    return kernel;
  }

 private:
  ast::Param parse_param() {
    ast::Param p;
    if (lex_.at_ident("const")) {
      p.is_const = true;
      lex_.take();
    }
    p.type = lex_.expect_ident();
    if (!is_type_name(p.type)) lex_.fail("unsupported parameter type '" + p.type + "'");
    if (lex_.at_ident("long")) {  // "long long" etc.
      p.type += ' ';
      p.type += lex_.take().text;
    }
    while (lex_.at_punct("*")) {
      p.pointer = true;
      lex_.take();
    }
    if (lex_.at_ident("__restrict__")) lex_.take();
    p.name = lex_.expect_ident();
    return p;
  }

  /// Parse statements until the matching '}' (which is consumed).
  std::vector<ast::StmtPtr> parse_block_body() {
    std::vector<ast::StmtPtr> body;
    while (!lex_.at_punct("}")) {
      if (lex_.peek().kind == TokKind::End) lex_.fail("unterminated block");
      if (lex_.at_punct(";")) {
        lex_.take();
        continue;
      }
      body.push_back(parse_stmt());
    }
    lex_.take();  // }
    return body;
  }

  ast::StmtPtr parse_stmt() {
    if (lex_.at_ident("if")) return parse_if();
    if (lex_.at_ident("for")) return parse_for();
    if (lex_.at_ident("const")) {
      lex_.take();
      return parse_decl(true);
    }
    if (lex_.peek().kind == TokKind::Ident && is_type_name(lex_.peek().text)) {
      return parse_decl(true);
    }
    return parse_assign(true);
  }

  ast::StmtPtr parse_decl(bool expect_semicolon) {
    lex_.take();  // type name (value ignored: everything is double at runtime)
    ast::Decl decl;
    decl.name = lex_.expect_ident();
    lex_.expect_punct("=");
    decl.init = parse_expr();
    if (expect_semicolon) lex_.expect_punct(";");
    auto stmt = std::make_unique<ast::Stmt>();
    stmt->node = std::move(decl);
    return stmt;
  }

  ast::StmtPtr parse_assign(bool expect_semicolon) {
    ast::Assign assign;
    // Prefix increment/decrement: ++i / --i.
    if (lex_.at_punct("++") || lex_.at_punct("--")) {
      const char op = lex_.take().text[0];
      assign.target = lex_.expect_ident();
      assign.op = op;
      auto one = std::make_unique<ast::Expr>();
      one->node = ast::Number{1.0};
      assign.value = std::move(one);
      if (expect_semicolon) lex_.expect_punct(";");
      auto stmt = std::make_unique<ast::Stmt>();
      stmt->node = std::move(assign);
      return stmt;
    }

    assign.target = lex_.expect_ident();
    if (lex_.at_punct("[")) {
      lex_.take();
      assign.index = parse_expr();
      lex_.expect_punct("]");
    }
    if (lex_.at_punct("=")) {
      lex_.take();
      assign.value = parse_expr();
    } else if (lex_.at_punct("+=") || lex_.at_punct("-=") || lex_.at_punct("*=") ||
               lex_.at_punct("/=")) {
      assign.op = lex_.take().text[0];
      assign.value = parse_expr();
    } else if (lex_.at_punct("++") || lex_.at_punct("--")) {
      // Postfix i++ / i--: same statement semantics as the prefix form.
      assign.op = lex_.take().text[0];
      auto one = std::make_unique<ast::Expr>();
      one->node = ast::Number{1.0};
      assign.value = std::move(one);
    } else {
      lex_.fail("expected assignment operator");
    }
    if (expect_semicolon) lex_.expect_punct(";");
    auto stmt = std::make_unique<ast::Stmt>();
    stmt->node = std::move(assign);
    return stmt;
  }

  ast::StmtPtr parse_for() {
    lex_.take();  // for
    ast::For node;
    lex_.expect_punct("(");
    if (lex_.peek().kind == TokKind::Ident && is_type_name(lex_.peek().text)) {
      node.init = parse_decl(false);
    } else {
      node.init = parse_assign(false);
    }
    lex_.expect_punct(";");
    node.cond = parse_expr();
    lex_.expect_punct(";");
    node.update = parse_assign(false);
    lex_.expect_punct(")");
    node.body = parse_stmt_or_block();
    auto stmt = std::make_unique<ast::Stmt>();
    stmt->node = std::move(node);
    return stmt;
  }

  ast::StmtPtr parse_if() {
    lex_.take();  // if
    ast::If node;
    lex_.expect_punct("(");
    node.cond = parse_expr();
    lex_.expect_punct(")");
    node.then_body = parse_stmt_or_block();
    if (lex_.at_ident("else")) {
      lex_.take();
      node.else_body = parse_stmt_or_block();
    }
    auto stmt = std::make_unique<ast::Stmt>();
    stmt->node = std::move(node);
    return stmt;
  }

  std::vector<ast::StmtPtr> parse_stmt_or_block() {
    std::vector<ast::StmtPtr> body;
    if (lex_.at_punct("{")) {
      lex_.take();
      return parse_block_body();
    }
    body.push_back(parse_stmt());
    return body;
  }

  // Precedence-climbing expression parser.
  ast::ExprPtr parse_expr() { return parse_ternary(); }

  ast::ExprPtr parse_ternary() {
    ast::ExprPtr cond = parse_binary(0);
    if (!lex_.at_punct("?")) return cond;
    lex_.take();
    ast::Ternary t;
    t.cond = std::move(cond);
    t.when_true = parse_expr();
    lex_.expect_punct(":");
    t.when_false = parse_expr();
    auto e = std::make_unique<ast::Expr>();
    e->node = std::move(t);
    return e;
  }

  static std::optional<std::pair<ast::BinOp, int>> binop_of(const Token& t) {
    if (t.kind != TokKind::Punct) return std::nullopt;
    using B = ast::BinOp;
    if (t.text == "||") return {{B::Or, 1}};
    if (t.text == "&&") return {{B::And, 2}};
    if (t.text == "==") return {{B::Eq, 3}};
    if (t.text == "!=") return {{B::Ne, 3}};
    if (t.text == "<") return {{B::Lt, 4}};
    if (t.text == "<=") return {{B::Le, 4}};
    if (t.text == ">") return {{B::Gt, 4}};
    if (t.text == ">=") return {{B::Ge, 4}};
    if (t.text == "+") return {{B::Add, 5}};
    if (t.text == "-") return {{B::Sub, 5}};
    if (t.text == "*") return {{B::Mul, 6}};
    if (t.text == "/") return {{B::Div, 6}};
    if (t.text == "%") return {{B::Mod, 6}};
    return std::nullopt;
  }

  ast::ExprPtr parse_binary(int min_prec) {
    ast::ExprPtr lhs = parse_unary();
    for (;;) {
      const auto op = binop_of(lex_.peek());
      if (!op || op->second < min_prec) return lhs;
      lex_.take();
      ast::ExprPtr rhs = parse_binary(op->second + 1);
      ast::Binary bin;
      bin.op = op->first;
      bin.lhs = std::move(lhs);
      bin.rhs = std::move(rhs);
      lhs = std::make_unique<ast::Expr>();
      lhs->node = std::move(bin);
    }
  }

  ast::ExprPtr parse_unary() {
    if (lex_.at_punct("-")) {
      lex_.take();
      ast::Unary u{ast::UnOp::Neg, parse_unary()};
      auto e = std::make_unique<ast::Expr>();
      e->node = std::move(u);
      return e;
    }
    if (lex_.at_punct("!")) {
      lex_.take();
      ast::Unary u{ast::UnOp::Not, parse_unary()};
      auto e = std::make_unique<ast::Expr>();
      e->node = std::move(u);
      return e;
    }
    if (lex_.at_punct("+")) {
      lex_.take();
      return parse_unary();
    }
    return parse_primary();
  }

  ast::ExprPtr parse_primary() {
    auto e = std::make_unique<ast::Expr>();
    if (lex_.at_punct("(")) {
      lex_.take();
      // A C-style cast like `(float)x` is parsed and discarded: everything
      // evaluates in double precision.
      if (lex_.peek().kind == TokKind::Ident && is_type_name(lex_.peek().text)) {
        lex_.take();
        lex_.expect_punct(")");
        return parse_unary();
      }
      e = parse_expr();
      lex_.expect_punct(")");
      return e;
    }
    if (lex_.peek().kind == TokKind::Number) {
      e->node = ast::Number{lex_.take().number};
      return e;
    }
    if (lex_.peek().kind != TokKind::Ident) lex_.fail("expected expression");
    std::string name = lex_.take().text;
    if (is_builtin_vector(name)) {
      lex_.expect_punct(".");
      const std::string member = lex_.expect_ident();
      if (member != "x") lex_.fail("only the .x dimension is supported");
      e->node = ast::VarRef{name + ".x"};
      return e;
    }
    if (lex_.at_punct("(")) {
      lex_.take();
      ast::Call call;
      call.fn = std::move(name);
      if (!lex_.at_punct(")")) {
        for (;;) {
          call.args.push_back(parse_expr());
          if (lex_.at_punct(",")) {
            lex_.take();
            continue;
          }
          break;
        }
      }
      lex_.expect_punct(")");
      e->node = std::move(call);
      return e;
    }
    if (lex_.at_punct("[")) {
      lex_.take();
      ast::Index idx;
      idx.array = std::move(name);
      idx.index = parse_expr();
      lex_.expect_punct("]");
      e->node = std::move(idx);
      return e;
    }
    e->node = ast::VarRef{std::move(name)};
    return e;
  }

  Lexer lex_;
};

// ---------------------------------------------------------------------------
// Flop counting
// ---------------------------------------------------------------------------

double expr_flops(const ast::Expr& e);

double stmt_flops(const ast::Stmt& s) {
  struct Visitor {
    double operator()(const ast::Decl& d) const { return expr_flops(*d.init); }
    double operator()(const ast::Assign& a) const {
      double f = expr_flops(*a.value) + (a.op != 0 ? 1.0 : 0.0);
      if (a.index) f += expr_flops(*a.index);
      return f;
    }
    double operator()(const ast::If& i) const {
      double f = expr_flops(*i.cond);
      double then_f = 0.0;
      for (const auto& s2 : i.then_body) then_f += stmt_flops(*s2);
      double else_f = 0.0;
      for (const auto& s2 : i.else_body) else_f += stmt_flops(*s2);
      // Both branches cannot execute; count the heavier one.
      return f + std::max(then_f, else_f);
    }
    double operator()(const ast::For& l) const {
      double body = expr_flops(*l.cond) + stmt_flops(*l.update);
      for (const auto& s2 : l.body) body += stmt_flops(*s2);
      // Static trip-count estimate: `... < literal` bounds give the count;
      // anything else counts one iteration (callers can override
      // flops_per_thread for data-dependent loops).
      double trips = 1.0;
      if (const auto* cmp = std::get_if<ast::Binary>(&l.cond->node)) {
        if ((cmp->op == ast::BinOp::Lt || cmp->op == ast::BinOp::Le)) {
          if (const auto* bound = std::get_if<ast::Number>(&cmp->rhs->node)) {
            trips = std::max(1.0, bound->value);
          }
        }
      }
      return stmt_flops(*l.init) + body * trips;
    }
  };
  return std::visit(Visitor{}, s.node);
}

double expr_flops(const ast::Expr& e) {
  struct Visitor {
    double operator()(const ast::Number&) const { return 0.0; }
    double operator()(const ast::VarRef&) const { return 0.0; }
    double operator()(const ast::Index& i) const { return expr_flops(*i.index); }
    double operator()(const ast::Binary& b) const {
      return 1.0 + expr_flops(*b.lhs) + expr_flops(*b.rhs);
    }
    double operator()(const ast::Unary& u) const { return 1.0 + expr_flops(*u.operand); }
    double operator()(const ast::Call& c) const {
      double f = 8.0;  // transcendental call cost
      for (const auto& a : c.args) f += expr_flops(*a);
      return f;
    }
    double operator()(const ast::Ternary& t) const {
      return 1.0 + expr_flops(*t.cond) +
             std::max(expr_flops(*t.when_true), expr_flops(*t.when_false));
    }
  };
  return std::visit(Visitor{}, e.node);
}

}  // namespace

ast::KernelAst parse_kernel_source(std::string_view source) {
  Parser parser(source);
  return parser.parse_kernel();
}

namespace ast {
double count_flops(const KernelAst& kernel) {
  double total = 0.0;
  for (const auto& s : kernel.body) total += stmt_flops(*s);
  return total;
}
}  // namespace ast

}  // namespace grout::polyglot
