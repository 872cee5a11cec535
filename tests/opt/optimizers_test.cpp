#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "safeopt/opt/solver.h"

namespace safeopt::opt {
namespace {

OptimizationResult solve(const std::string& name, const Problem& problem,
                         const SolverConfig& config = {}) {
  return SolverRegistry::create(name)->solve(problem, config);
}

/// Every solver applicable to >= 2 dimensions, by display name: the
/// registry solver it runs and the extras it runs with.
OptimizationResult solve_as(const std::string& display,
                            const Problem& problem) {
  SolverConfig config;
  if (display == "GridSearch") {
    return solve("grid_search", problem,
                 config.set("points_per_dimension", 17.0));
  }
  if (display == "NelderMead") return solve("nelder_mead", problem);
  if (display == "HookeJeeves") return solve("hooke_jeeves", problem);
  if (display == "CoordinateDescent") {
    return solve("coordinate_descent", problem);
  }
  if (display == "DifferentialEvolution") {
    return solve("differential_evolution", problem,
                 config.set("generations", 400.0));
  }
  // "MultiStartNelderMead": six Nelder–Mead starts.
  return solve("multi_start", problem, config.set("starts", 6.0));
}

const std::string kAllSolvers[] = {
    "GridSearch",        "NelderMead",            "HookeJeeves",
    "CoordinateDescent", "DifferentialEvolution", "MultiStartNelderMead"};

class EverySolver : public ::testing::TestWithParam<std::string> {};

TEST_P(EverySolver, SolvesShiftedQuadratic) {
  // f(x, y) = (x − 0.7)² + 2(y + 1.2)², argmin (0.7, −1.2), min 0.
  Problem problem;
  problem.bounds = Box({-3.0, -3.0}, {3.0, 3.0});
  problem.objective = [](std::span<const double> x) {
    return (x[0] - 0.7) * (x[0] - 0.7) + 2.0 * (x[1] + 1.2) * (x[1] + 1.2);
  };
  const OptimizationResult result = solve_as(GetParam(), problem);
  EXPECT_NEAR(result.argmin[0], 0.7, 2e-2) << GetParam();
  EXPECT_NEAR(result.argmin[1], -1.2, 2e-2) << GetParam();
  EXPECT_LT(result.value, 1e-3) << GetParam();
  EXPECT_GT(result.evaluations, 0u);
}

TEST_P(EverySolver, RespectsBoxWhenMinimumIsOutside) {
  // Unconstrained argmin at (5, 5) — outside the box: solution must be the
  // box corner (1, 1).
  Problem problem;
  problem.bounds = Box({-1.0, -1.0}, {1.0, 1.0});
  problem.objective = [](std::span<const double> x) {
    return (x[0] - 5.0) * (x[0] - 5.0) + (x[1] - 5.0) * (x[1] - 5.0);
  };
  const OptimizationResult result = solve_as(GetParam(), problem);
  EXPECT_TRUE(problem.bounds.contains(result.argmin)) << GetParam();
  EXPECT_NEAR(result.argmin[0], 1.0, 5e-2) << GetParam();
  EXPECT_NEAR(result.argmin[1], 1.0, 5e-2) << GetParam();
}

TEST_P(EverySolver, HandlesRosenbrockValley) {
  // Banana function in a box containing the optimum (1, 1).
  Problem problem;
  problem.bounds = Box({-2.0, -1.0}, {2.0, 3.0});
  problem.objective = [](std::span<const double> x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  const OptimizationResult result = solve_as(GetParam(), problem);
  // The curved valley is hard for coarse methods; accept any point well
  // inside the valley (f < 0.1 is far below typical plateaus).
  EXPECT_LT(result.value, 0.1) << GetParam() << ": " << result.message;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EverySolver, ::testing::ValuesIn(kAllSolvers),
                         [](const auto& param_info) { return param_info.param; });

// ------------------------------------------------------------- specifics

TEST(GoldenSectionTest, FindsUnimodalMinimum) {
  Problem problem;
  problem.bounds = Box::interval(0.0, 10.0);
  problem.objective = [](std::span<const double> x) {
    return (x[0] - 3.3) * (x[0] - 3.3) + 1.5;
  };
  const auto result = solve("golden_section", problem);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.argmin[0], 3.3, 1e-7);
  EXPECT_NEAR(result.value, 1.5, 1e-10);
}

TEST(GoldenSectionTest, AsymmetricCostLikeAviationExample) {
  // The paper's §III pre-flight tolerance intuition: crash risk falls and
  // cancel risk rises with the tolerance; the optimum is interior.
  Problem problem;
  problem.bounds = Box::interval(0.01, 5.0);
  problem.objective = [](std::span<const double> x) {
    const double crash = 1000.0 * std::exp(-3.0 / x[0]);
    const double cancel = 2.0 / x[0];
    return crash + cancel;
  };
  const auto result = solve("golden_section", problem);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.argmin[0], 0.02);
  EXPECT_LT(result.argmin[0], 4.9);
  // Interior stationarity: neighbours are worse.
  const double at = result.argmin[0];
  for (const double delta : {-1e-3, 1e-3}) {
    EXPECT_GE(problem.objective(std::vector<double>{at + delta}),
              result.value - 1e-12);
  }
}

TEST(GridSearchTest, TabulateMatchesObjective) {
  const Objective f = [](std::span<const double> x) {
    return x[0] * 10.0 + x[1];
  };
  const GridTable table = tabulate_2d(f, Box({0.0, 0.0}, {1.0, 1.0}), 3, 5);
  ASSERT_EQ(table.xs.size(), 3u);
  ASSERT_EQ(table.ys.size(), 5u);
  EXPECT_DOUBLE_EQ(table.value(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(table.value(2, 4), 11.0);
  EXPECT_DOUBLE_EQ(table.value(1, 2), 5.5);
  const auto [i, j] = table.argmin();
  EXPECT_EQ(i, 0u);
  EXPECT_EQ(j, 0u);
}

TEST(GridSearchTest, RefinementSharpensTheMinimum) {
  Problem problem;
  problem.bounds = Box({0.0}, {1.0});
  problem.objective = [](std::span<const double> x) {
    return std::abs(x[0] - 0.337);
  };
  SolverConfig coarse;
  coarse.set("points_per_dimension", 11.0).set("refinement_rounds", 1.0);
  SolverConfig refined;
  refined.set("points_per_dimension", 11.0).set("refinement_rounds", 5.0);
  const double coarse_error =
      std::abs(solve("grid_search", problem, coarse).argmin[0] - 0.337);
  const double refined_error =
      std::abs(solve("grid_search", problem, refined).argmin[0] - 0.337);
  EXPECT_LT(refined_error, coarse_error);
  EXPECT_LT(refined_error, 1e-4);
}

TEST(StochasticSolversTest, AreDeterministicPerSeed) {
  Problem problem;
  problem.bounds = Box({-2.0, -2.0}, {2.0, 2.0});
  problem.objective = [](std::span<const double> x) {
    return std::cos(3.0 * x[0]) + x[0] * x[0] + std::sin(2.0 * x[1]) +
           x[1] * x[1];
  };
  SolverConfig config;
  config.seed = 99;
  for (const char* name : {"differential_evolution", "multi_start"}) {
    const auto r1 = solve(name, problem, config);
    const auto r2 = solve(name, problem, config);
    EXPECT_EQ(r1.argmin, r2.argmin) << name;
    EXPECT_EQ(r1.evaluations, r2.evaluations) << name;
  }
}

TEST(MultiStartTest, EscapesLocalMinimumThatTrapsSingleStart) {
  // Double well: local minimum near x=−1 (f=0.5), global near x=+1 (f=0).
  Problem problem;
  problem.bounds = Box({-2.0}, {2.0});
  problem.objective = [](std::span<const double> x) {
    const double left = (x[0] + 1.0) * (x[0] + 1.0) + 0.5;
    const double right = 4.0 * (x[0] - 1.0) * (x[0] - 1.0);
    return std::min(left, right);
  };
  // A single Nelder-Mead from −1.8 falls into the left well.
  SolverConfig single;
  single.initial = {-1.8};
  EXPECT_GT(solve("nelder_mead", problem, single).value, 0.4);
  // Multi-start finds the global one.
  SolverConfig multi;
  multi.set("starts", 12.0);
  EXPECT_LT(solve("multi_start", problem, multi).value, 1e-4);
}

TEST(EvaluationCountingTest, EvaluationsAreReported) {
  Problem problem;
  problem.bounds = Box({0.0}, {1.0});
  std::size_t actual_calls = 0;
  problem.objective = [&actual_calls](std::span<const double> x) {
    ++actual_calls;
    return x[0];
  };
  SolverConfig config;
  config.set("points_per_dimension", 11.0).set("refinement_rounds", 2.0);
  const auto result = solve("grid_search", problem, config);
  EXPECT_EQ(result.evaluations, actual_calls);
  EXPECT_EQ(result.evaluations, 22u);
}

}  // namespace
}  // namespace safeopt::opt
