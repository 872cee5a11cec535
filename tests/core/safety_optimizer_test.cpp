#include "safeopt/core/safety_optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace safeopt::core {
namespace {

using expr::constant;
using expr::parameter;

/// A synthetic two-hazard system with a known interior optimum:
///   P(H1)(x) = e^{-x}        (risk falls with the free parameter)
///   P(H2)(x) = 0.01·x        (nuisance rises with it)
///   f_cost   = A·e^{-x} + B·0.01·x, argmin x* = ln(A / (0.01·B)).
struct SyntheticSystem {
  double a = 50.0;
  double b = 1.0;

  [[nodiscard]] SafetyOptimizer make() const {
    CostModel model;
    model.add_hazard({"H1", expr::exp(-parameter("x")), a});
    model.add_hazard({"H2", 0.01 * parameter("x"), b});
    ParameterSpace space{{"x", 0.1, 20.0, "", "free parameter"}};
    return SafetyOptimizer(std::move(model), std::move(space));
  }

  [[nodiscard]] double analytic_optimum() const {
    return std::log(a / (0.01 * b));
  }
};

class EveryAlgorithm : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryAlgorithm, FindsTheAnalyticOptimum) {
  const SyntheticSystem system;
  const SafetyOptimizer optimizer = system.make();
  const SafetyOptimizationResult result = optimizer.optimize(GetParam());
  EXPECT_NEAR(result.optimization.argmin[0], system.analytic_optimum(), 0.05)
      << GetParam();
  EXPECT_EQ(result.hazard_probabilities.size(), 2u);
  EXPECT_NEAR(result.cost, result.optimization.value, 1e-15);
  EXPECT_NEAR(result.optimal_parameters.get("x"),
              result.optimization.argmin[0], 1e-15);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EveryAlgorithm,
    ::testing::Values("grid_search", "nelder_mead", "multi_start",
                      "gradient_descent", "hooke_jeeves",
                      "coordinate_descent", "simulated_annealing",
                      "differential_evolution", "golden_section"),
    [](const auto& param_info) { return param_info.param; });

TEST(SafetyOptimizerTest, EvaluateAtReportsConfiguration) {
  const SyntheticSystem system;
  const SafetyOptimizer optimizer = system.make();
  const auto at = optimizer.evaluate_at({{"x", 2.0}});
  EXPECT_NEAR(at.hazard_probabilities[0], std::exp(-2.0), 1e-12);
  EXPECT_NEAR(at.hazard_probabilities[1], 0.02, 1e-12);
  EXPECT_NEAR(at.cost, 50.0 * std::exp(-2.0) + 0.02, 1e-12);
}

TEST(SafetyOptimizerTest, CompareReportsRelativeChanges) {
  const SyntheticSystem system;
  const SafetyOptimizer optimizer = system.make();
  const auto optimal = optimizer.optimize("nelder_mead");
  const expr::ParameterAssignment baseline{{"x", 2.0}};
  const ComparisonReport report = optimizer.compare(baseline, optimal);
  EXPECT_GT(report.baseline_cost, report.optimal_cost);
  EXPECT_LT(report.cost_relative_change, 0.0);
  ASSERT_EQ(report.hazards.size(), 2u);
  // Moving from x=2 to x*≈8.5: H1 falls, H2 rises.
  EXPECT_LT(report.hazards[0].relative_change, 0.0);
  EXPECT_GT(report.hazards[1].relative_change, 0.0);
  EXPECT_NEAR(report.hazards[0].baseline_probability, std::exp(-2.0), 1e-12);
}

TEST(SafetyOptimizerTest, ProblemExposesExactGradient) {
  const SyntheticSystem system;
  const SafetyOptimizer optimizer = system.make();
  const opt::Problem problem = optimizer.problem();
  ASSERT_TRUE(problem.has_gradient());
  const std::vector<double> at{3.0};
  const auto grad = problem.gradient(at);
  // d/dx [50 e^{-x} + 0.01x] = −50 e^{-x} + 0.01.
  EXPECT_NEAR(grad[0], -50.0 * std::exp(-3.0) + 0.01, 1e-10);
  EXPECT_NEAR(problem.objective(at), 50.0 * std::exp(-3.0) + 0.03, 1e-12);
}

TEST(SafetyOptimizerTest, TwoParameterSeparableSystem) {
  // Two parameters controlling two separate hazards; both optima are known.
  CostModel model;
  model.add_hazard({"A", expr::exp(-parameter("x")), 100.0});
  model.add_hazard({"A_nuisance", 0.1 * parameter("x"), 1.0});
  model.add_hazard({"B", expr::exp(-2.0 * parameter("y")), 100.0});
  model.add_hazard({"B_nuisance", 0.1 * parameter("y"), 1.0});
  ParameterSpace space{{"x", 0.1, 20.0, "", ""}, {"y", 0.1, 20.0, "", ""}};
  const SafetyOptimizer optimizer(std::move(model), std::move(space));
  const auto result = optimizer.optimize("multi_start");
  EXPECT_NEAR(result.optimization.argmin[0], std::log(1000.0), 0.05);
  EXPECT_NEAR(result.optimization.argmin[1], 0.5 * std::log(2000.0), 0.05);
}

TEST(SafetyOptimizerDeathTest, RejectsUnknownParameters) {
  CostModel model;
  model.add_hazard({"H", parameter("unknown"), 1.0});
  ParameterSpace space{{"x", 0.0, 1.0, "", ""}};
  EXPECT_DEATH(SafetyOptimizer(std::move(model), std::move(space)),
               "precondition");
}

}  // namespace
}  // namespace safeopt::core
