// Vector-forward-mode automatic differentiation. A Dual carries a value plus
// the gradient with respect to a fixed ordered list of free parameters; all
// directional derivatives propagate in one evaluation pass. Used to give the
// §IV-C.2 sensitivity analysis exact gradients of the cost and of the
// parameterized hazard probabilities (paper Eqs. 3-6) instead of finite
// differences. Every value is computed with the same operations as
// Expr::evaluate, so evaluate_dual(...).value() equals evaluate(...) bitwise.
#ifndef SAFEOPT_EXPR_DUAL_H
#define SAFEOPT_EXPR_DUAL_H

#include <cmath>
#include <cstddef>
#include <vector>

#include "safeopt/support/contracts.h"

namespace safeopt::expr {

/// Value + gradient pair for forward-mode autodiff.
class Dual {
 public:
  Dual() = default;
  /// A constant: value with zero gradient in `dims` directions.
  Dual(double value, std::size_t dims) : value_(value), grad_(dims, 0.0) {}
  /// A seed variable: unit derivative in direction `index`.
  static Dual variable(double value, std::size_t dims, std::size_t index) {
    SAFEOPT_EXPECTS(index < dims);
    Dual d(value, dims);
    d.grad_[index] = 1.0;
    return d;
  }

  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] const std::vector<double>& grad() const noexcept {
    return grad_;
  }
  [[nodiscard]] double grad(std::size_t i) const noexcept {
    SAFEOPT_EXPECTS(i < grad_.size());
    return grad_[i];
  }
  [[nodiscard]] std::size_t dims() const noexcept { return grad_.size(); }

  friend Dual operator+(const Dual& a, const Dual& b) {
    SAFEOPT_EXPECTS(a.dims() == b.dims());
    Dual r = a;
    r.value_ += b.value_;
    for (std::size_t i = 0; i < r.grad_.size(); ++i) r.grad_[i] += b.grad_[i];
    return r;
  }

  friend Dual operator-(const Dual& a, const Dual& b) {
    SAFEOPT_EXPECTS(a.dims() == b.dims());
    Dual r = a;
    r.value_ -= b.value_;
    for (std::size_t i = 0; i < r.grad_.size(); ++i) r.grad_[i] -= b.grad_[i];
    return r;
  }

  friend Dual operator-(const Dual& a) {
    Dual r = a;
    r.value_ = -r.value_;
    for (double& g : r.grad_) g = -g;
    return r;
  }

  friend Dual operator*(const Dual& a, const Dual& b) {
    SAFEOPT_EXPECTS(a.dims() == b.dims());
    Dual r(a.value_ * b.value_, a.dims());
    for (std::size_t i = 0; i < r.grad_.size(); ++i) {
      r.grad_[i] = a.grad_[i] * b.value_ + a.value_ * b.grad_[i];
    }
    return r;
  }

  friend Dual operator/(const Dual& a, const Dual& b) {
    SAFEOPT_EXPECTS(a.dims() == b.dims());
    Dual r(a.value_ / b.value_, a.dims());
    const double inv_b2 = 1.0 / (b.value_ * b.value_);
    for (std::size_t i = 0; i < r.grad_.size(); ++i) {
      r.grad_[i] =
          (a.grad_[i] * b.value_ - a.value_ * b.grad_[i]) * inv_b2;
    }
    return r;
  }

  /// Chain rule for a scalar function: f(a) with derivative df at a.value().
  [[nodiscard]] Dual chain(double f_value, double df) const {
    Dual r(f_value, dims());
    for (std::size_t i = 0; i < r.grad_.size(); ++i) {
      r.grad_[i] = df * grad_[i];
    }
    return r;
  }

 private:
  double value_ = 0.0;
  std::vector<double> grad_;
};

inline Dual exp(const Dual& a) {
  const double e = std::exp(a.value());
  return a.chain(e, e);
}

inline Dual log(const Dual& a) {
  return a.chain(std::log(a.value()), 1.0 / a.value());
}

inline Dual sqrt(const Dual& a) {
  const double s = std::sqrt(a.value());
  return a.chain(s, 0.5 / s);
}

inline Dual pow(const Dual& a, double p) {
  return a.chain(std::pow(a.value(), p), p * std::pow(a.value(), p - 1.0));
}

/// min/max propagate the gradient of the selected branch. They select
/// exactly as std::min / std::max do (what Expr::evaluate and the tape use):
/// the first argument at a tie and whenever a comparison involves NaN, so a
/// NaN first operand propagates.
inline Dual min(const Dual& a, const Dual& b) {
  return b.value() < a.value() ? b : a;
}

inline Dual max(const Dual& a, const Dual& b) {
  return a.value() < b.value() ? b : a;
}

}  // namespace safeopt::expr

#endif  // SAFEOPT_EXPR_DUAL_H
