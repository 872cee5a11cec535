// Test-only helper: deterministic random expression-DAG generation for the
// expression property tests (tape vs tree equivalence, Dual value vs tree
// value). Generated expressions are domain-safe by construction — arguments
// of log/sqrt/div/pow are clamped into strictly positive ranges and exp
// arguments are bounded — so evaluation never produces NaN/inf for
// parameter values in [0.25, 4].
#ifndef SAFEOPT_TESTS_TESTUTIL_RANDOM_EXPR_H
#define SAFEOPT_TESTS_TESTUTIL_RANDOM_EXPR_H

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "safeopt/expr/expr.h"
#include "safeopt/stats/distribution.h"
#include "safeopt/support/rng.h"

namespace safeopt::testutil {

inline expr::Expr random_expr(Rng& rng,
                              const std::vector<std::string>& params,
                              std::size_t depth) {
  using expr::Expr;
  const auto leaf = [&]() -> Expr {
    if (bernoulli(rng, 0.6)) {
      return expr::parameter(
          params[static_cast<std::size_t>(uniform_index(rng, params.size()))]);
    }
    return expr::constant(uniform(rng, 0.25, 2.0));
  };
  if (depth == 0) return leaf();
  const auto sub = [&]() { return random_expr(rng, params, depth - 1); };

  switch (uniform_index(rng, 14)) {
    case 0: return sub() + sub();
    case 1: return sub() - sub();
    case 2: return sub() * sub();
    case 3: return sub() / expr::clamp(sub(), 0.5, 8.0);
    case 4: return expr::min(sub(), sub());
    case 5: return expr::max(sub(), sub());
    case 6: return -sub();
    case 7: return expr::exp(expr::clamp(sub(), -4.0, 4.0));
    case 8: return expr::log(expr::clamp(sub(), 0.25, 8.0));
    case 9: return expr::sqrt(expr::clamp(sub(), 0.25, 8.0));
    case 10:
      return expr::pow(expr::clamp(sub(), 0.25, 8.0),
                       uniform(rng, 0.5, 3.0));
    case 11: {
      const auto normal = std::make_shared<stats::Normal>(
          uniform(rng, -1.0, 1.0), uniform(rng, 0.5, 2.0));
      return bernoulli(rng, 0.5) ? expr::cdf(normal, sub())
                                 : expr::survival(normal, sub());
    }
    case 12:
      return expr::poisson_exposure(uniform(rng, 0.01, 0.5),
                                    expr::clamp(sub(), 0.0, 8.0));
    default: {
      // Opaque function node; half the time without an analytic derivative
      // so the finite-difference fallback is exercised too.
      const bool with_derivative = bernoulli(rng, 0.5);
      return expr::function1(
          "tanh", [](double x) { return std::tanh(x); },
          with_derivative
              ? std::function<double(double)>([](double x) {
                  const double t = std::tanh(x);
                  return 1.0 - t * t;
                })
              : std::function<double(double)>(),
          expr::clamp(sub(), -6.0, 6.0));
    }
  }
}

inline expr::ParameterAssignment random_assignment(
    Rng& rng, const std::vector<std::string>& params) {
  expr::ParameterAssignment env;
  for (const std::string& name : params) {
    env.set(name, uniform(rng, 0.25, 4.0));
  }
  return env;
}

}  // namespace safeopt::testutil

#endif  // SAFEOPT_TESTS_TESTUTIL_RANDOM_EXPR_H
