// Safety optimization through core::Study (paper §III): every registered
// solver on a system with a known optimum, evaluate_at and compare, and the
// bits every reported number must carry. The suites are named after the
// paper's safety optimizer, which Study runs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "safeopt/core/study.h"
#include "safeopt/elbtunnel/elbtunnel_model.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/support/rng.h"

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

  [[nodiscard]] Study make() const {
    CostModel model;
    model.add_hazard({"H1", expr::exp(-parameter("x")), a});
    model.add_hazard({"H2", 0.01 * parameter("x"), b});
    ParameterSpace space{{"x", 0.1, 20.0, "", "free parameter"}};
    return Study(std::move(model), std::move(space));
  }

  [[nodiscard]] double analytic_optimum() const {
    return std::log(a / (0.01 * b));
  }
};

class EveryAlgorithm : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryAlgorithm, FindsTheAnalyticOptimum) {
  const SyntheticSystem system;
  Study study = system.make();
  const SafetyOptimizationResult result = study.solver(GetParam()).run();
  EXPECT_NEAR(result.optimization.argmin[0], system.analytic_optimum(), 0.05)
      << GetParam();
  EXPECT_EQ(result.hazard_probabilities.size(), 2u);
  EXPECT_NEAR(result.cost, result.optimization.value, 1e-15);
  EXPECT_NEAR(result.optimal_parameters.get("x"),
              result.optimization.argmin[0], 1e-15);
}

// differential_evolution is absent: it rejects 1-D boxes (SolverTraits).
INSTANTIATE_TEST_SUITE_P(
    Sweep, EveryAlgorithm,
    ::testing::Values("grid_search", "nelder_mead", "multi_start",
                      "hooke_jeeves", "coordinate_descent", "golden_section"),
    [](const auto& param_info) { return param_info.param; });

TEST(SafetyOptimizerTest, EvaluateAtReportsConfiguration) {
  const SyntheticSystem system;
  const Study study = system.make();
  const auto at = study.evaluate_at({{"x", 2.0}});
  EXPECT_NEAR(at.hazard_probabilities[0], std::exp(-2.0), 1e-12);
  EXPECT_NEAR(at.hazard_probabilities[1], 0.02, 1e-12);
  EXPECT_NEAR(at.cost, 50.0 * std::exp(-2.0) + 0.02, 1e-12);
}

TEST(SafetyOptimizerTest, CompareReportsRelativeChanges) {
  const SyntheticSystem system;
  Study study = system.make();
  const auto optimal = study.solver("nelder_mead").run();
  const expr::ParameterAssignment baseline{{"x", 2.0}};
  const ComparisonReport report = study.compare(baseline, optimal);
  EXPECT_GT(report.baseline_cost, report.optimal_cost);
  EXPECT_LT(report.cost_relative_change, 0.0);
  ASSERT_EQ(report.hazards.size(), 2u);
  // Moving from x=2 to x*≈8.5: H1 falls, H2 rises.
  EXPECT_LT(report.hazards[0].relative_change, 0.0);
  EXPECT_GT(report.hazards[1].relative_change, 0.0);
  EXPECT_NEAR(report.hazards[0].baseline_probability, std::exp(-2.0), 1e-12);
}

TEST(SafetyOptimizerTest, TwoParameterSeparableSystem) {
  // Two parameters controlling two separate hazards; both optima are known.
  CostModel model;
  model.add_hazard({"A", expr::exp(-parameter("x")), 100.0});
  model.add_hazard({"A_nuisance", 0.1 * parameter("x"), 1.0});
  model.add_hazard({"B", expr::exp(-2.0 * parameter("y")), 100.0});
  model.add_hazard({"B_nuisance", 0.1 * parameter("y"), 1.0});
  ParameterSpace space{{"x", 0.1, 20.0, "", ""}, {"y", 0.1, 20.0, "", ""}};
  const Study study(std::move(model), std::move(space));
  const auto result = study.run();  // multi_start
  EXPECT_NEAR(result.optimization.argmin[0], std::log(1000.0), 0.05);
  EXPECT_NEAR(result.optimization.argmin[1], 0.5 * std::log(2000.0), 0.05);
}

// ---- evaluate_at / compare / optimize vs the CostModel walk (the oracle) --

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// `count` seeded uniform points in the space's box.
std::vector<expr::ParameterAssignment> random_points(
    const ParameterSpace& space, std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<expr::ParameterAssignment> points;
  for (int i = 0; i < count; ++i) {
    expr::ParameterAssignment at;
    for (std::size_t d = 0; d < space.size(); ++d) {
      at.set(space[d].name, uniform(rng, space[d].lower, space[d].upper));
    }
    points.push_back(std::move(at));
  }
  return points;
}

/// Every number evaluate_at, compare and run report must carry the bits of
/// CostModel's Expr walk, whatever evaluator computes it.
void expect_bits_of_the_expr_walk(Study study, std::uint64_t seed) {
  const CostModel& model = study.model();
  const auto points = random_points(study.space(), seed, 25);
  for (const expr::ParameterAssignment& at : points) {
    const SafetyOptimizationResult result = study.evaluate_at(at);
    EXPECT_EQ(bits(result.cost), bits(model.cost(at)));
    EXPECT_EQ(bits(result.optimization.value), bits(model.cost(at)));
    const std::vector<double> expected = model.hazard_probabilities(at);
    ASSERT_EQ(result.hazard_probabilities.size(), expected.size());
    for (std::size_t h = 0; h < expected.size(); ++h) {
      EXPECT_EQ(bits(result.hazard_probabilities[h]), bits(expected[h]))
          << model.hazard(h).name;
    }
  }
  // compare(): baseline numbers evaluated, optimum passed through.
  const SafetyOptimizationResult optimal = study.evaluate_at(points[0]);
  for (const expr::ParameterAssignment& baseline : points) {
    const ComparisonReport report = study.compare(baseline, optimal);
    EXPECT_EQ(bits(report.baseline_cost), bits(model.cost(baseline)));
    const std::vector<double> expected = model.hazard_probabilities(baseline);
    ASSERT_EQ(report.hazards.size(), expected.size());
    for (std::size_t h = 0; h < expected.size(); ++h) {
      EXPECT_EQ(bits(report.hazards[h].baseline_probability),
                bits(expected[h]));
    }
  }
  // run(): the hazard probabilities reported at the optimum.
  opt::SolverConfig config;
  config.max_evaluations = 200;
  const SafetyOptimizationResult solved =
      study.solver("nelder_mead", config).run();
  const std::vector<double> expected =
      model.hazard_probabilities(solved.optimal_parameters);
  ASSERT_EQ(solved.hazard_probabilities.size(), expected.size());
  for (std::size_t h = 0; h < expected.size(); ++h) {
    EXPECT_EQ(bits(solved.hazard_probabilities[h]), bits(expected[h]));
  }
  EXPECT_EQ(bits(solved.cost), bits(model.cost(solved.optimal_parameters)));
}

class ExampleStudyEvaluation : public ::testing::TestWithParam<std::string> {};

TEST_P(ExampleStudyEvaluation, ReportsTheBitsOfTheExprWalk) {
  const Study loaded = Study::from_document(ftio::load_study(
      std::string(SAFEOPT_SOURCE_DIR) + "/examples/models/" + GetParam() +
      ".ft"));
  const Study study(loaded.model(), loaded.space());
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expect_bits_of_the_expr_walk(study, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ExampleStudyEvaluation,
                         ::testing::Values("cooling_system", "elbtunnel",
                                           "pressure_vessel",
                                           "railroad_crossing"));

TEST(SafetyOptimizerTest, ElbtunnelReportsTheBitsOfTheExprWalk) {
  const elbtunnel::ElbtunnelModel model;
  const Study study(model.cost_model(), model.parameter_space());
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    expect_bits_of_the_expr_walk(study, seed);
  }
  const auto report = study.compare(model.engineers_guess(),
                                    study.evaluate_at(model.engineers_guess()));
  EXPECT_EQ(bits(report.baseline_cost),
            bits(model.cost_model().cost(model.engineers_guess())));
}

TEST(SafetyOptimizerTest, EvaluateAtIsThreadSafe) {
  const elbtunnel::ElbtunnelModel model;
  const Study study(model.cost_model(), model.parameter_space());
  const auto points = random_points(study.space(), 9, 64);
  std::vector<double> serial;
  for (const auto& at : points) serial.push_back(study.evaluate_at(at).cost);

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> costs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& at : points) {
        costs[t].push_back(study.evaluate_at(at).cost);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& per_thread : costs) {
    ASSERT_EQ(per_thread.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(bits(per_thread[i]), bits(serial[i]));
    }
  }
}

TEST(SafetyOptimizerDeathTest, RejectsUnknownParameters) {
  CostModel model;
  model.add_hazard({"H", parameter("unknown"), 1.0});
  ParameterSpace space{{"x", 0.0, 1.0, "", ""}};
  EXPECT_DEATH(Study(std::move(model), std::move(space)), "precondition");
}

}  // namespace
}  // namespace safeopt::core
