// Expression layer for *parameterized probabilities* (paper §II-D.2).
//
// A parameterized failure probability P(PF)(X) is represented as a small
// immutable expression DAG over named free parameters. The same expression
// can be
//   * evaluated numerically against a ParameterAssignment,
//   * differentiated exactly (forward-mode autodiff, see dual.h) — which the
//     §IV-C.2 sensitivity analysis (core/sensitivity.h) consumes,
//   * printed symbolically for reports, and
//   * queried for the set of parameters it mentions (used to implement the
//     paper's footnote 2: each hazard depends only on a subset X_{i,1..n_i}).
//
// Distribution CDF / survival nodes make the paper's constructions direct:
//   P(OT1)(T1) = 1 − P_OHV(Time <= T1)  ==>  survival(driving_time, param("T1"))
#ifndef SAFEOPT_EXPR_EXPR_H
#define SAFEOPT_EXPR_EXPR_H

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "safeopt/expr/dual.h"
#include "safeopt/stats/distribution.h"

namespace safeopt::expr {

/// Name -> value binding for the free parameters of a system.
class ParameterAssignment {
 public:
  ParameterAssignment() = default;
  /// Convenience: build from {{"T1", 19.0}, {"T2", 15.6}}.
  ParameterAssignment(
      std::initializer_list<std::pair<std::string, double>> entries);

  void set(std::string name, double value);
  /// Precondition: contains(name).
  [[nodiscard]] double get(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& entries()
      const noexcept {
    return entries_;
  }

 private:
  // Sorted by name; linear scan is fine for the handful of parameters real
  // systems have, binary search keeps it honest for generated sweeps.
  std::vector<std::pair<std::string, double>> entries_;
};

namespace detail {
class Node;
}

/// Immutable expression handle (cheap to copy; shares the underlying DAG).
class Expr {
 public:
  /// Default-constructed Expr is the constant 0.
  Expr();
  explicit Expr(std::shared_ptr<const detail::Node> node);

  /// Numeric evaluation. Every parameter mentioned must be bound.
  [[nodiscard]] double evaluate(const ParameterAssignment& env) const;

  /// Value + exact gradient with respect to `wrt` (order defines gradient
  /// component order). Parameters not in `wrt` are treated as constants.
  [[nodiscard]] Dual evaluate_dual(const ParameterAssignment& env,
                                   const std::vector<std::string>& wrt) const;

  /// All parameter names mentioned anywhere in the expression.
  [[nodiscard]] std::set<std::string> parameters() const;

  /// Symbolic rendering, e.g. "(1 - cdf[TruncatedNormal(4, 2, [0, inf])](T1))".
  [[nodiscard]] std::string to_string() const;

  /// True if the expression contains no parameters (is a constant fold).
  [[nodiscard]] bool is_constant() const;

  [[nodiscard]] const std::shared_ptr<const detail::Node>& node()
      const noexcept {
    return node_;
  }

 private:
  std::shared_ptr<const detail::Node> node_;
};

// ----- Constructors ---------------------------------------------------------

/// The constant c.
[[nodiscard]] Expr constant(double c);
/// A named free parameter.
[[nodiscard]] Expr parameter(std::string name);
/// F(arg) for a distribution F — P(X <= arg).
[[nodiscard]] Expr cdf(std::shared_ptr<const stats::Distribution> dist,
                       Expr arg);
/// 1 − F(arg) — P(X > arg); its own node for accuracy near F ≈ 1.
[[nodiscard]] Expr survival(std::shared_ptr<const stats::Distribution> dist,
                            Expr arg);

// ----- Operators (constant-folding where both sides are constants) ----------

[[nodiscard]] Expr operator+(Expr a, Expr b);
[[nodiscard]] Expr operator-(Expr a, Expr b);
[[nodiscard]] Expr operator*(Expr a, Expr b);
[[nodiscard]] Expr operator/(Expr a, Expr b);
[[nodiscard]] Expr operator-(Expr a);
[[nodiscard]] Expr operator+(double a, Expr b);
[[nodiscard]] Expr operator+(Expr a, double b);
[[nodiscard]] Expr operator-(double a, Expr b);
[[nodiscard]] Expr operator-(Expr a, double b);
[[nodiscard]] Expr operator*(double a, Expr b);
[[nodiscard]] Expr operator*(Expr a, double b);
[[nodiscard]] Expr operator/(double a, Expr b);
[[nodiscard]] Expr operator/(Expr a, double b);

// ----- Functions -------------------------------------------------------------

[[nodiscard]] Expr exp(Expr a);
[[nodiscard]] Expr log(Expr a);
[[nodiscard]] Expr sqrt(Expr a);
[[nodiscard]] Expr pow(Expr a, double p);
[[nodiscard]] Expr min(Expr a, Expr b);
[[nodiscard]] Expr max(Expr a, Expr b);
/// Clamps into [lo, hi]; probabilities are clamped into [0,1] with this.
[[nodiscard]] Expr clamp(Expr a, double lo, double hi);

/// P(at least one arrival in window `w`) for a Poisson process with the given
/// rate: 1 − exp(−rate·w). The workhorse for exposure-window failure
/// probabilities (paper §IV-C: P(FDLBpost)(T1), P(HVODfinal)(T2)).
[[nodiscard]] Expr poisson_exposure(double rate, Expr window);

/// An opaque user function f(arg) with optional analytic derivative df.
/// When `derivative` is empty, autodiff falls back to a central finite
/// difference of `fn` (step 1e-6 · max(1, |x|)). Used for model terms that
/// only exist as numeric procedures, e.g. expectations evaluated by
/// quadrature. `name` appears in to_string() as "name(arg)".
[[nodiscard]] Expr function1(std::string name, std::function<double(double)> fn,
                             std::function<double(double)> derivative,
                             Expr arg);

}  // namespace safeopt::expr

#endif  // SAFEOPT_EXPR_EXPR_H
