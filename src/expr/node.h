// Internal expression-DAG node hierarchy shared by the recursive evaluator
// (expr.cpp) and the tape compiler (compiled.cpp). Not part of the public
// API: the public header only forward-declares detail::Node.
//
// Every concrete node exposes read accessors so the compiler can flatten the
// DAG without widening the virtual interface; the virtual methods implement
// the recursive tree-walk paths (value / forward-mode dual / print).
#ifndef SAFEOPT_EXPR_NODE_H
#define SAFEOPT_EXPR_NODE_H

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "safeopt/expr/expr.h"
#include "safeopt/stats/distribution.h"
#include "safeopt/support/contracts.h"
#include "safeopt/support/strings.h"

namespace safeopt::expr::detail {

enum class NodeKind { kConst, kParam, kBinary, kUnary, kPow, kCdf, kFunction };
enum class BinaryOp { kAdd, kSub, kMul, kDiv, kMin, kMax };
enum class UnaryOp { kNeg, kExp, kLog, kSqrt };

class Node {
 public:
  explicit Node(NodeKind kind) : kind_(kind) {}
  virtual ~Node() = default;
  [[nodiscard]] NodeKind kind() const noexcept { return kind_; }
  [[nodiscard]] virtual double value(const ParameterAssignment& env) const = 0;
  [[nodiscard]] virtual Dual dual(const ParameterAssignment& env,
                                  const std::vector<std::string>& wrt)
      const = 0;
  virtual void collect_parameters(std::set<std::string>& out) const = 0;
  [[nodiscard]] virtual std::string print() const = 0;

 private:
  NodeKind kind_;
};

class ConstNode final : public Node {
 public:
  explicit ConstNode(double c) : Node(NodeKind::kConst), c_(c) {}
  double value(const ParameterAssignment&) const override { return c_; }
  Dual dual(const ParameterAssignment&,
            const std::vector<std::string>& wrt) const override {
    return Dual(c_, wrt.size());
  }
  void collect_parameters(std::set<std::string>&) const override {}
  std::string print() const override { return format_double(c_); }
  [[nodiscard]] double constant() const noexcept { return c_; }

 private:
  double c_;
};

class ParamNode final : public Node {
 public:
  explicit ParamNode(std::string name)
      : Node(NodeKind::kParam), name_(std::move(name)) {}
  double value(const ParameterAssignment& env) const override {
    return env.get(name_);
  }
  Dual dual(const ParameterAssignment& env,
            const std::vector<std::string>& wrt) const override {
    const double v = env.get(name_);
    const auto it = std::find(wrt.begin(), wrt.end(), name_);
    if (it == wrt.end()) return Dual(v, wrt.size());
    return Dual::variable(v, wrt.size(),
                          static_cast<std::size_t>(it - wrt.begin()));
  }
  void collect_parameters(std::set<std::string>& out) const override {
    out.insert(name_);
  }
  std::string print() const override { return name_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
};

class BinaryNode final : public Node {
 public:
  BinaryNode(BinaryOp op, std::shared_ptr<const Node> a,
             std::shared_ptr<const Node> b)
      : Node(NodeKind::kBinary), op_(op), a_(std::move(a)), b_(std::move(b)) {}

  double value(const ParameterAssignment& env) const override {
    const double x = a_->value(env);
    const double y = b_->value(env);
    switch (op_) {
      case BinaryOp::kAdd: return x + y;
      case BinaryOp::kSub: return x - y;
      case BinaryOp::kMul: return x * y;
      case BinaryOp::kDiv: return x / y;
      case BinaryOp::kMin: return std::min(x, y);
      case BinaryOp::kMax: return std::max(x, y);
    }
    SAFEOPT_ASSERT(false);
    return 0.0;
  }

  Dual dual(const ParameterAssignment& env,
            const std::vector<std::string>& wrt) const override {
    const Dual x = a_->dual(env, wrt);
    const Dual y = b_->dual(env, wrt);
    switch (op_) {
      case BinaryOp::kAdd: return x + y;
      case BinaryOp::kSub: return x - y;
      case BinaryOp::kMul: return x * y;
      case BinaryOp::kDiv: return x / y;
      case BinaryOp::kMin: return min(x, y);
      case BinaryOp::kMax: return max(x, y);
    }
    SAFEOPT_ASSERT(false);
    return Dual(0.0, wrt.size());
  }

  void collect_parameters(std::set<std::string>& out) const override {
    a_->collect_parameters(out);
    b_->collect_parameters(out);
  }

  std::string print() const override {
    switch (op_) {
      case BinaryOp::kAdd: return concat("(", a_->print(), " + ", b_->print(), ")");
      case BinaryOp::kSub: return concat("(", a_->print(), " - ", b_->print(), ")");
      case BinaryOp::kMul: return concat("(", a_->print(), " * ", b_->print(), ")");
      case BinaryOp::kDiv: return concat("(", a_->print(), " / ", b_->print(), ")");
      case BinaryOp::kMin: return concat("min(", a_->print(), ", ", b_->print(), ")");
      case BinaryOp::kMax: return concat("max(", a_->print(), ", ", b_->print(), ")");
    }
    SAFEOPT_ASSERT(false);
    return {};
  }

  [[nodiscard]] BinaryOp op() const noexcept { return op_; }
  [[nodiscard]] const std::shared_ptr<const Node>& lhs() const noexcept {
    return a_;
  }
  [[nodiscard]] const std::shared_ptr<const Node>& rhs() const noexcept {
    return b_;
  }

 private:
  BinaryOp op_;
  std::shared_ptr<const Node> a_;
  std::shared_ptr<const Node> b_;
};

class UnaryNode final : public Node {
 public:
  UnaryNode(UnaryOp op, std::shared_ptr<const Node> a)
      : Node(NodeKind::kUnary), op_(op), a_(std::move(a)) {}

  double value(const ParameterAssignment& env) const override {
    const double x = a_->value(env);
    switch (op_) {
      case UnaryOp::kNeg: return -x;
      case UnaryOp::kExp: return std::exp(x);
      case UnaryOp::kLog: return std::log(x);
      case UnaryOp::kSqrt: return std::sqrt(x);
    }
    SAFEOPT_ASSERT(false);
    return 0.0;
  }

  Dual dual(const ParameterAssignment& env,
            const std::vector<std::string>& wrt) const override {
    const Dual x = a_->dual(env, wrt);
    switch (op_) {
      case UnaryOp::kNeg: return -x;
      case UnaryOp::kExp: return exp(x);
      case UnaryOp::kLog: return log(x);
      case UnaryOp::kSqrt: return sqrt(x);
    }
    SAFEOPT_ASSERT(false);
    return Dual(0.0, wrt.size());
  }

  void collect_parameters(std::set<std::string>& out) const override {
    a_->collect_parameters(out);
  }

  std::string print() const override {
    switch (op_) {
      case UnaryOp::kNeg: return concat("(-", a_->print(), ")");
      case UnaryOp::kExp: return concat("exp(", a_->print(), ")");
      case UnaryOp::kLog: return concat("log(", a_->print(), ")");
      case UnaryOp::kSqrt: return concat("sqrt(", a_->print(), ")");
    }
    SAFEOPT_ASSERT(false);
    return {};
  }

  [[nodiscard]] UnaryOp op() const noexcept { return op_; }
  [[nodiscard]] const std::shared_ptr<const Node>& operand() const noexcept {
    return a_;
  }

 private:
  UnaryOp op_;
  std::shared_ptr<const Node> a_;
};

class PowNode final : public Node {
 public:
  PowNode(std::shared_ptr<const Node> a, double p)
      : Node(NodeKind::kPow), a_(std::move(a)), p_(p) {}
  double value(const ParameterAssignment& env) const override {
    return std::pow(a_->value(env), p_);
  }
  Dual dual(const ParameterAssignment& env,
            const std::vector<std::string>& wrt) const override {
    return pow(a_->dual(env, wrt), p_);
  }
  void collect_parameters(std::set<std::string>& out) const override {
    a_->collect_parameters(out);
  }
  std::string print() const override {
    return concat("pow(", a_->print(), ", ", format_double(p_), ")");
  }

  [[nodiscard]] const std::shared_ptr<const Node>& operand() const noexcept {
    return a_;
  }
  [[nodiscard]] double exponent() const noexcept { return p_; }

 private:
  std::shared_ptr<const Node> a_;
  double p_;
};

/// F(arg) or 1 − F(arg) for a distribution F; derivative is ±pdf(arg).
class CdfNode final : public Node {
 public:
  CdfNode(std::shared_ptr<const stats::Distribution> dist,
          std::shared_ptr<const Node> arg, bool survival)
      : Node(NodeKind::kCdf),
        dist_(std::move(dist)),
        arg_(std::move(arg)),
        survival_(survival) {
    SAFEOPT_EXPECTS(dist_ != nullptr);
  }

  double value(const ParameterAssignment& env) const override {
    const double x = arg_->value(env);
    // survival() is cancellation-free deep in the tail, where 1 − cdf()
    // would round to zero — the regime hazard probabilities live in.
    return survival_ ? dist_->survival(x) : dist_->cdf(x);
  }

  Dual dual(const ParameterAssignment& env,
            const std::vector<std::string>& wrt) const override {
    const Dual x = arg_->dual(env, wrt);
    const double density = dist_->pdf(x.value());
    return survival_ ? x.chain(dist_->survival(x.value()), -density)
                     : x.chain(dist_->cdf(x.value()), density);
  }

  void collect_parameters(std::set<std::string>& out) const override {
    arg_->collect_parameters(out);
  }

  std::string print() const override {
    const std::string fn = survival_ ? "survival" : "cdf";
    return concat(fn, "[", dist_->name(), "](", arg_->print(), ")");
  }

  [[nodiscard]] const std::shared_ptr<const stats::Distribution>& distribution()
      const noexcept {
    return dist_;
  }
  [[nodiscard]] const std::shared_ptr<const Node>& operand() const noexcept {
    return arg_;
  }
  [[nodiscard]] bool is_survival() const noexcept { return survival_; }

 private:
  std::shared_ptr<const stats::Distribution> dist_;
  std::shared_ptr<const Node> arg_;
  bool survival_;
};

/// Opaque numeric function with optional analytic derivative.
class FunctionNode final : public Node {
 public:
  FunctionNode(std::string name, std::function<double(double)> fn,
               std::function<double(double)> derivative,
               std::shared_ptr<const Node> arg)
      : Node(NodeKind::kFunction),
        name_(std::move(name)),
        fn_(std::move(fn)),
        derivative_(std::move(derivative)),
        arg_(std::move(arg)) {
    SAFEOPT_EXPECTS(static_cast<bool>(fn_));
  }

  double value(const ParameterAssignment& env) const override {
    return fn_(arg_->value(env));
  }

  Dual dual(const ParameterAssignment& env,
            const std::vector<std::string>& wrt) const override {
    const Dual x = arg_->dual(env, wrt);
    const double f = fn_(x.value());
    return x.chain(f, derivative_at(x.value()));
  }

  void collect_parameters(std::set<std::string>& out) const override {
    arg_->collect_parameters(out);
  }

  std::string print() const override {
    return concat(name_, "(", arg_->print(), ")");
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::function<double(double)>& fn() const noexcept {
    return fn_;
  }
  [[nodiscard]] const std::shared_ptr<const Node>& operand() const noexcept {
    return arg_;
  }
  /// Analytic derivative when provided, otherwise a central finite
  /// difference: the chain-rule factor dual() applies.
  [[nodiscard]] double derivative_at(double x) const {
    if (derivative_) return derivative_(x);
    const double h = 1e-6 * std::max(1.0, std::abs(x));
    return (fn_(x + h) - fn_(x - h)) / (2.0 * h);
  }

 private:
  std::string name_;
  std::function<double(double)> fn_;
  std::function<double(double)> derivative_;
  std::shared_ptr<const Node> arg_;
};

}  // namespace safeopt::expr::detail

#endif  // SAFEOPT_EXPR_NODE_H
