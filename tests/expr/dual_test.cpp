#include "safeopt/expr/dual.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "safeopt/expr/expr.h"
#include "safeopt/stats/distribution.h"
#include "safeopt/support/rng.h"
#include "testutil/random_expr.h"

namespace safeopt::expr {
namespace {

TEST(DualTest, ConstantsHaveZeroGradient) {
  const Dual c(3.0, 2);
  EXPECT_DOUBLE_EQ(c.value(), 3.0);
  EXPECT_DOUBLE_EQ(c.grad(0), 0.0);
  EXPECT_DOUBLE_EQ(c.grad(1), 0.0);
}

TEST(DualTest, VariablesSeedUnitGradient) {
  const Dual x = Dual::variable(5.0, 3, 1);
  EXPECT_DOUBLE_EQ(x.value(), 5.0);
  EXPECT_DOUBLE_EQ(x.grad(0), 0.0);
  EXPECT_DOUBLE_EQ(x.grad(1), 1.0);
  EXPECT_DOUBLE_EQ(x.grad(2), 0.0);
}

TEST(DualTest, ProductRule) {
  const Dual x = Dual::variable(3.0, 2, 0);
  const Dual y = Dual::variable(4.0, 2, 1);
  const Dual p = x * y;
  EXPECT_DOUBLE_EQ(p.value(), 12.0);
  EXPECT_DOUBLE_EQ(p.grad(0), 4.0);  // ∂(xy)/∂x = y
  EXPECT_DOUBLE_EQ(p.grad(1), 3.0);  // ∂(xy)/∂y = x
}

TEST(DualTest, QuotientRule) {
  const Dual x = Dual::variable(3.0, 2, 0);
  const Dual y = Dual::variable(4.0, 2, 1);
  const Dual q = x / y;
  EXPECT_DOUBLE_EQ(q.value(), 0.75);
  EXPECT_DOUBLE_EQ(q.grad(0), 0.25);          // 1/y
  EXPECT_DOUBLE_EQ(q.grad(1), -3.0 / 16.0);   // −x/y²
}

TEST(DualTest, ChainRuleThroughExp) {
  const Dual x = Dual::variable(2.0, 1, 0);
  const Dual e = exp(x * x);
  EXPECT_NEAR(e.value(), std::exp(4.0), 1e-12);
  EXPECT_NEAR(e.grad(0), 2.0 * 2.0 * std::exp(4.0), 1e-10);
}

TEST(DualTest, MinMaxPickBranchGradient) {
  const Dual x = Dual::variable(1.0, 2, 0);
  const Dual y = Dual::variable(2.0, 2, 1);
  const Dual lo = min(x, y);
  EXPECT_DOUBLE_EQ(lo.grad(0), 1.0);
  EXPECT_DOUBLE_EQ(lo.grad(1), 0.0);
  const Dual hi = max(x, y);
  EXPECT_DOUBLE_EQ(hi.grad(0), 0.0);
  EXPECT_DOUBLE_EQ(hi.grad(1), 1.0);
}

// ------------------------------------------------------------------------
// Property sweep: autodiff gradients of whole expressions must agree with
// central finite differences at several evaluation points.

struct GradientCase {
  std::string name;
  std::function<Expr()> build;
  std::vector<double> at;  // (x, y)
};

// gtest otherwise prints the raw object bytes, which hold heap and code
// addresses, into the listed (and ctest-discovered) test names.
void PrintTo(const GradientCase& c, std::ostream* os) { *os << c.name; }

class AutodiffVsFiniteDifference
    : public ::testing::TestWithParam<GradientCase> {};

TEST_P(AutodiffVsFiniteDifference, GradientsAgree) {
  const GradientCase& c = GetParam();
  const Expr e = c.build();
  const std::vector<std::string> wrt{"x", "y"};
  ParameterAssignment env{{"x", c.at[0]}, {"y", c.at[1]}};
  const Dual d = e.evaluate_dual(env, wrt);
  EXPECT_EQ(d.value(), e.evaluate(env));

  const double h = 1e-6;
  for (std::size_t i = 0; i < wrt.size(); ++i) {
    ParameterAssignment up = env;
    ParameterAssignment down = env;
    up.set(wrt[i], c.at[i] + h);
    down.set(wrt[i], c.at[i] - h);
    const double numeric =
        (e.evaluate(up) - e.evaluate(down)) / (2.0 * h);
    const double scale = std::max(1.0, std::abs(numeric));
    EXPECT_NEAR(d.grad(i), numeric, 1e-5 * scale)
        << c.name << " d/d" << wrt[i];
  }
}

Expr hazard_like() {
  const auto transit = std::make_shared<stats::TruncatedNormal>(
      stats::TruncatedNormal::nonnegative(4.0, 2.0));
  const Expr ot1 = survival(transit, parameter("x"));
  const Expr ot2 = survival(transit, parameter("y"));
  // The paper's P(HCol) shape.
  return constant(1e-8) + 0.01 * (ot1 + (1.0 - ot1) * ot2);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AutodiffVsFiniteDifference,
    ::testing::Values(
        GradientCase{"polynomial",
                     [] {
                       const Expr x = parameter("x");
                       const Expr y = parameter("y");
                       return x * x * y + 3.0 * x - y;
                     },
                     {1.5, -2.0}},
        GradientCase{"rational",
                     [] {
                       const Expr x = parameter("x");
                       const Expr y = parameter("y");
                       return (x + y) / (1.0 + x * x);
                     },
                     {0.7, 2.3}},
        GradientCase{"exp_log",
                     [] {
                       const Expr x = parameter("x");
                       const Expr y = parameter("y");
                       return exp(-0.13 * x) + log(y);
                     },
                     {15.6, 3.0}},
        GradientCase{"sqrt_pow",
                     [] {
                       const Expr x = parameter("x");
                       const Expr y = parameter("y");
                       return sqrt(x) * pow(y, 2.5);
                     },
                     {4.0, 2.0}},
        GradientCase{"poisson_exposure",
                     [] {
                       return poisson_exposure(0.13, parameter("x")) *
                              poisson_exposure(0.05, parameter("y"));
                     },
                     {15.6, 19.0}},
        GradientCase{"truncated_normal_survival", hazard_like, {8.0, 9.0}},
        GradientCase{"cost_function_shape",
                     [] {
                       return 100000.0 * hazard_like() +
                              poisson_exposure(0.13, parameter("y"));
                     },
                     {19.0, 15.6}}),
    [](const ::testing::TestParamInfo<GradientCase>& info) {
      return info.param.name;
    });

// A Dual does the same floating-point operations as Expr::evaluate, so its
// value is the tree walk's bit for bit (two NaNs count as equal).
TEST(DualExprTest, ValueIsEvaluateOnRandomDags) {
  const std::vector<std::string> params = {"a", "b", "c"};
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed * 104729 + 3);
    const Expr e = testutil::random_expr(rng, params, 5);
    const ParameterAssignment env = testutil::random_assignment(rng, params);
    const double dual = e.evaluate_dual(env, params).value();
    const double tree = e.evaluate(env);
    if (std::isnan(tree)) {
      EXPECT_TRUE(std::isnan(dual)) << "seed " << seed << ": " << e.to_string();
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dual),
                std::bit_cast<std::uint64_t>(tree))
          << "seed " << seed << ": " << e.to_string();
    }
  }
}

// min/max select as std::min / std::max do, so a NaN operand reaches the
// result exactly when it does in Expr::evaluate and the tape.
TEST(DualExprTest, MinMaxPropagateNaNAsEvaluateDoes) {
  const std::vector<std::string> wrt{"x", "y"};
  const ParameterAssignment env{{"x", -1.0}, {"y", 2.0}};
  const Expr x = parameter("x");
  const Expr y = parameter("y");
  for (const Expr& e : {min(sqrt(x), y), max(sqrt(x), y), min(y, sqrt(x)),
                        max(y, sqrt(x))}) {
    const double tree = e.evaluate(env);
    const Dual d = e.evaluate_dual(env, wrt);
    EXPECT_EQ(std::isnan(d.value()), std::isnan(tree)) << e.to_string();
    if (!std::isnan(tree)) {
      EXPECT_EQ(d.value(), tree) << e.to_string();
    }
  }
  const Dual lo = min(sqrt(x), y).evaluate_dual(env, wrt);
  EXPECT_TRUE(std::isnan(lo.value()));
  // The sqrt branch is selected (its gradient is NaN too), not y's (1).
  EXPECT_TRUE(std::isnan(lo.grad(1)));
}

TEST(DualExprTest, ParametersNotInWrtAreConstants) {
  const Expr e = parameter("x") * parameter("z");
  const Dual d = e.evaluate_dual({{"x", 2.0}, {"z", 5.0}}, {"x"});
  EXPECT_DOUBLE_EQ(d.value(), 10.0);
  ASSERT_EQ(d.dims(), 1u);
  EXPECT_DOUBLE_EQ(d.grad(0), 5.0);  // z treated as the constant 5
}

TEST(DualExprTest, Function1FallsBackToNumericDerivative) {
  const Expr f = function1(
      "cube", [](double x) { return x * x * x; }, {}, parameter("x"));
  const Dual d = f.evaluate_dual({{"x", 2.0}}, {"x"});
  EXPECT_NEAR(d.grad(0), 12.0, 1e-5);
}

TEST(DualExprTest, Function1UsesAnalyticDerivativeWhenGiven) {
  const Expr f = function1(
      "cube", [](double x) { return x * x * x; },
      [](double x) { return 3.0 * x * x; }, parameter("x"));
  const Dual d = f.evaluate_dual({{"x", 2.0}}, {"x"});
  EXPECT_DOUBLE_EQ(d.grad(0), 12.0);
}

}  // namespace
}  // namespace safeopt::expr
