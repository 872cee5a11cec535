#include "safeopt/expr/expr.h"

#include <algorithm>
#include <cmath>

#include "node.h"
#include "safeopt/support/contracts.h"

namespace safeopt::expr {

// --------------------------------------------------- ParameterAssignment

ParameterAssignment::ParameterAssignment(
    std::initializer_list<std::pair<std::string, double>> entries) {
  for (const auto& [name, value] : entries) set(name, value);
}

void ParameterAssignment::set(std::string name, double value) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& entry, const std::string& key) {
        return entry.first < key;
      });
  if (it != entries_.end() && it->first == name) {
    it->second = value;
  } else {
    entries_.insert(it, {std::move(name), value});
  }
}

double ParameterAssignment::get(std::string_view name) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& entry, std::string_view key) {
        return entry.first < key;
      });
  SAFEOPT_EXPECTS(it != entries_.end() && it->first == name);
  return it->second;
}

bool ParameterAssignment::contains(std::string_view name) const noexcept {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& entry, std::string_view key) {
        return entry.first < key;
      });
  return it != entries_.end() && it->first == name;
}

// ------------------------------------------------------------------ Nodes
//
// The node classes themselves live in node.h so the tape compiler
// (compiled.cpp) can flatten the DAG; this file keeps construction.

namespace detail {
namespace {

/// Returns the folded constant if the node is a ConstNode, else nullptr.
const ConstNode* as_constant(const std::shared_ptr<const Node>& node) {
  return node->kind() == NodeKind::kConst
             ? static_cast<const ConstNode*>(node.get())
             : nullptr;
}

Expr make_binary(BinaryOp op, Expr a, Expr b) {
  const ConstNode* ca = as_constant(a.node());
  const ConstNode* cb = as_constant(b.node());
  if (ca != nullptr && cb != nullptr) {
    const ParameterAssignment empty;
    const auto node =
        std::make_shared<BinaryNode>(op, a.node(), b.node());
    return constant(node->value(empty));
  }
  return Expr(std::make_shared<BinaryNode>(op, a.node(), b.node()));
}

}  // namespace
}  // namespace detail

// ------------------------------------------------------------------- Expr

Expr::Expr() : node_(std::make_shared<detail::ConstNode>(0.0)) {}

Expr::Expr(std::shared_ptr<const detail::Node> node)
    : node_(std::move(node)) {
  SAFEOPT_EXPECTS(node_ != nullptr);
}

double Expr::evaluate(const ParameterAssignment& env) const {
  return node_->value(env);
}

Dual Expr::evaluate_dual(const ParameterAssignment& env,
                         const std::vector<std::string>& wrt) const {
  return node_->dual(env, wrt);
}

std::set<std::string> Expr::parameters() const {
  std::set<std::string> out;
  node_->collect_parameters(out);
  return out;
}

std::string Expr::to_string() const { return node_->print(); }

namespace {

/// True if a parameter node occurs anywhere below `node`.
bool mentions_parameter(const detail::Node& node) {
  switch (node.kind()) {
    case detail::NodeKind::kConst: return false;
    case detail::NodeKind::kParam: return true;
    case detail::NodeKind::kBinary: {
      const auto& binary = static_cast<const detail::BinaryNode&>(node);
      return mentions_parameter(*binary.lhs()) ||
             mentions_parameter(*binary.rhs());
    }
    case detail::NodeKind::kUnary:
      return mentions_parameter(
          *static_cast<const detail::UnaryNode&>(node).operand());
    case detail::NodeKind::kPow:
      return mentions_parameter(
          *static_cast<const detail::PowNode&>(node).operand());
    case detail::NodeKind::kCdf:
      return mentions_parameter(
          *static_cast<const detail::CdfNode&>(node).operand());
    case detail::NodeKind::kFunction:
      return mentions_parameter(
          *static_cast<const detail::FunctionNode&>(node).operand());
  }
  return true;
}

}  // namespace

bool Expr::is_constant() const { return !mentions_parameter(*node_); }

// ----------------------------------------------------------- constructors

Expr constant(double c) {
  return Expr(std::make_shared<detail::ConstNode>(c));
}

Expr parameter(std::string name) {
  SAFEOPT_EXPECTS(!name.empty());
  return Expr(std::make_shared<detail::ParamNode>(std::move(name)));
}

Expr cdf(std::shared_ptr<const stats::Distribution> dist, Expr arg) {
  return Expr(
      std::make_shared<detail::CdfNode>(std::move(dist), arg.node(), false));
}

Expr survival(std::shared_ptr<const stats::Distribution> dist, Expr arg) {
  return Expr(
      std::make_shared<detail::CdfNode>(std::move(dist), arg.node(), true));
}

// -------------------------------------------------------------- operators

using detail::BinaryOp;
using detail::UnaryOp;

Expr operator+(Expr a, Expr b) {
  return detail::make_binary(BinaryOp::kAdd, std::move(a), std::move(b));
}
Expr operator-(Expr a, Expr b) {
  return detail::make_binary(BinaryOp::kSub, std::move(a), std::move(b));
}
Expr operator*(Expr a, Expr b) {
  return detail::make_binary(BinaryOp::kMul, std::move(a), std::move(b));
}
Expr operator/(Expr a, Expr b) {
  return detail::make_binary(BinaryOp::kDiv, std::move(a), std::move(b));
}
Expr operator-(Expr a) {
  return Expr(std::make_shared<detail::UnaryNode>(UnaryOp::kNeg, a.node()));
}

Expr operator+(double a, Expr b) { return constant(a) + std::move(b); }
Expr operator+(Expr a, double b) { return std::move(a) + constant(b); }
Expr operator-(double a, Expr b) { return constant(a) - std::move(b); }
Expr operator-(Expr a, double b) { return std::move(a) - constant(b); }
Expr operator*(double a, Expr b) { return constant(a) * std::move(b); }
Expr operator*(Expr a, double b) { return std::move(a) * constant(b); }
Expr operator/(double a, Expr b) { return constant(a) / std::move(b); }
Expr operator/(Expr a, double b) { return std::move(a) / constant(b); }

// -------------------------------------------------------------- functions

Expr exp(Expr a) {
  return Expr(std::make_shared<detail::UnaryNode>(UnaryOp::kExp, a.node()));
}
Expr log(Expr a) {
  return Expr(std::make_shared<detail::UnaryNode>(UnaryOp::kLog, a.node()));
}
Expr sqrt(Expr a) {
  return Expr(std::make_shared<detail::UnaryNode>(UnaryOp::kSqrt, a.node()));
}
Expr pow(Expr a, double p) {
  return Expr(std::make_shared<detail::PowNode>(a.node(), p));
}
Expr min(Expr a, Expr b) {
  return detail::make_binary(BinaryOp::kMin, std::move(a), std::move(b));
}
Expr max(Expr a, Expr b) {
  return detail::make_binary(BinaryOp::kMax, std::move(a), std::move(b));
}
Expr clamp(Expr a, double lo, double hi) {
  SAFEOPT_EXPECTS(lo <= hi);
  return min(max(std::move(a), constant(lo)), constant(hi));
}

Expr poisson_exposure(double rate, Expr window) {
  SAFEOPT_EXPECTS(rate >= 0.0);
  return 1.0 - exp(constant(-rate) * std::move(window));
}

Expr function1(std::string name, std::function<double(double)> fn,
               std::function<double(double)> derivative, Expr arg) {
  return Expr(std::make_shared<detail::FunctionNode>(
      std::move(name), std::move(fn), std::move(derivative), arg.node()));
}

}  // namespace safeopt::expr
