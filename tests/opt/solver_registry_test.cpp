#include "safeopt/opt/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace safeopt::opt {
namespace {

/// Smooth convex bowl with its minimum at (0.3, −0.2): every solver must
/// find it.
Problem bowl_2d() {
  Problem problem;
  problem.bounds = Box({-1.0, -1.0}, {1.0, 1.0});
  problem.objective = [](std::span<const double> x) {
    const double a = x[0] - 0.3;
    const double b = x[1] + 0.2;
    return a * a + 2.0 * b * b;
  };
  return problem;
}

Problem bowl_1d() {
  Problem problem;
  problem.bounds = Box({-1.0}, {1.0});
  problem.objective = [](std::span<const double> x) {
    const double a = x[0] - 0.3;
    return a * a;
  };
  return problem;
}

constexpr const char* kBuiltins[] = {
    "coordinate_descent", "differential_evolution", "golden_section",
    "grid_search",        "hooke_jeeves",           "multi_start",
    "nelder_mead",
};

TEST(SolverRegistryTest, ListsEveryBuiltinSolver) {
  const std::vector<std::string> available = SolverRegistry::available();
  for (const char* name : kBuiltins) {
    EXPECT_TRUE(std::find(available.begin(), available.end(), name) !=
                available.end())
        << name;
    EXPECT_TRUE(SolverRegistry::contains(name)) << name;
  }
}

TEST(SolverRegistryTest, CreateReportsNameAndUnknownNamesThrow) {
  for (const char* name : kBuiltins) {
    EXPECT_EQ(SolverRegistry::create(name)->name(), name);
  }
  try {
    (void)SolverRegistry::create("no_such_solver");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("available"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("nelder_mead"),
              std::string::npos);
  }
}

TEST(SolverRegistryTest, EveryBuiltinFindsTheBowlMinimum) {
  for (const char* name : kBuiltins) {
    const auto solver = SolverRegistry::create(name);
    const bool one_dimensional = solver->traits().max_dimension == 1;
    const Problem problem = one_dimensional ? bowl_1d() : bowl_2d();
    const OptimizationResult result = solver->solve(problem);
    EXPECT_NEAR(result.argmin[0], 0.3, 0.05) << name;
    if (!one_dimensional) {
      EXPECT_NEAR(result.argmin[1], -0.2, 0.05) << name;
    }
  }
}

TEST(SolverRegistryTest, GoldenSectionRejectsMultiDimensionalBoxes) {
  const auto solver = SolverRegistry::create("golden_section");
  EXPECT_EQ(solver->traits().max_dimension, 1u);
  try {
    (void)solver->solve(bowl_2d());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("1-dimensional"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("2 dimensions"),
              std::string::npos);
  }
}

TEST(SolverRegistryTest, DifferentialEvolutionRejectsOneDimensionalBoxes) {
  // On an interval every DE mutant is the forced axis of a + F(b - c),
  // clamped into the box: the population collapses onto a bound and used to
  // report convergence there. The solver, and multi_start around it, now
  // refuse the box and name the 1-D solvers instead.
  const auto solver = SolverRegistry::create("differential_evolution");
  EXPECT_EQ(solver->traits().min_dimension, 2u);
  SolverConfig wrapped;
  wrapped.set("inner", std::string("differential_evolution"));
  for (const SolverConfig& config : {SolverConfig{}, wrapped}) {
    const auto runner = SolverRegistry::create(
        config.has("inner") ? "multi_start" : "differential_evolution");
    try {
      (void)runner->solve(bowl_1d(), config);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("differential_evolution needs at least "
                             "2-dimensional problems"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("golden_section"), std::string::npos);
      EXPECT_NE(message.find("nelder_mead"), std::string::npos);
    }
  }
  EXPECT_NO_THROW((void)solver->solve(bowl_2d()));
}

TEST(SolverRegistryTest, GoldenSectionReproducesItsPinnedResultBitwise) {
  // Pinned bits of the golden-section run on the 1-D bowl: a refactor of
  // the solver must leave every one of them unchanged.
  const OptimizationResult result =
      SolverRegistry::create("golden_section")->solve(bowl_1d());
  EXPECT_EQ(result.argmin, (std::vector<double>{0x1.33333333088bep-2}));
  EXPECT_EQ(result.value, 0x1.c6d4e65e4p-74);
  EXPECT_EQ(result.evaluations, 53u);
  EXPECT_EQ(result.iterations, 50u);
  EXPECT_EQ(result.message, "interval collapsed below tolerance");
}

TEST(SolverRegistryTest, RegistrarRegistersACustomSolver) {
  struct CenterSolver final : Solver {
    [[nodiscard]] std::string_view name() const noexcept override {
      return "test_center";
    }
    [[nodiscard]] OptimizationResult run(
        const Problem& problem, const SolverConfig&) const override {
      OptimizationResult result;
      result.argmin = problem.bounds.center();
      result.value = problem.objective(result.argmin);
      result.evaluations = 1;
      result.converged = true;
      return result;
    }
  };
  const SolverRegistrar registrar("test_center",
                                  [] { return std::make_unique<CenterSolver>(); });
  ASSERT_TRUE(SolverRegistry::contains("test_center"));
  const OptimizationResult result =
      SolverRegistry::create("test_center")->solve(bowl_2d());
  EXPECT_EQ(result.argmin, (std::vector<double>{0.0, 0.0}));
}

TEST(SolverConfigTest, TypedExtrasRoundTrip) {
  SolverConfig config;
  EXPECT_FALSE(config.has("starts"));
  EXPECT_EQ(config.number_or("starts", 8.0), 8.0);
  EXPECT_EQ(config.string_or("inner", "nelder_mead"), "nelder_mead");
  config.set("starts", 4.0).set("inner", std::string("hooke_jeeves"));
  EXPECT_TRUE(config.has("starts"));
  EXPECT_TRUE(config.has("inner"));
  EXPECT_EQ(config.number_or("starts", 8.0), 4.0);
  EXPECT_EQ(config.string_or("inner", "nelder_mead"), "hooke_jeeves");
  EXPECT_EQ(config.max_iterations, 1000u);
  EXPECT_EQ(config.tolerance, 1e-10);
}

TEST(SolverConfigTest, CountExtrasRejectNonsenseValues) {
  // Size-typed extras come from user input; a negative/NaN/fractional
  // value must surface as a clear error from the declared option table,
  // never as a double→unsigned cast or a contract abort.
  const auto multi_start = SolverRegistry::create("multi_start");
  for (const double bad : {-1.0, 0.5, 0.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    SolverConfig config;
    config.set("starts", bad);
    EXPECT_THROW(multi_start->check_options(config), std::invalid_argument)
        << bad;
    EXPECT_THROW((void)multi_start->validate(bowl_2d(), config),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW((void)multi_start->solve(bowl_2d(), config),
                 std::invalid_argument)
        << bad;
  }
  SolverConfig fine;
  fine.set("starts", 3.0);
  EXPECT_NO_THROW(multi_start->check_options(fine));
  EXPECT_NO_THROW(multi_start->check_options(SolverConfig{}));
}

TEST(SolverConfigTest, SeedIsHonoredByStochasticSolvers) {
  const Problem problem = bowl_2d();
  const auto solve_with_seed = [&](std::uint64_t seed) {
    SolverConfig config;
    config.seed = seed;
    return SolverRegistry::create("differential_evolution")
        ->solve(problem, config);
  };
  const auto first = solve_with_seed(1);
  const auto again = solve_with_seed(1);
  const auto other = solve_with_seed(2);
  EXPECT_EQ(first.argmin, again.argmin);  // deterministic under a seed
  EXPECT_NE(first.argmin, other.argmin);  // and the seed matters
}

TEST(SolverRegistryTest, MultiStartWrapsAnyInnerSolverByName) {
  SolverConfig config;
  config.set("inner", std::string("hooke_jeeves")).set("starts", 4.0);
  const OptimizationResult result =
      SolverRegistry::create("multi_start")->solve(bowl_2d(), config);
  EXPECT_NEAR(result.argmin[0], 0.3, 1e-4);
  EXPECT_NEAR(result.argmin[1], -0.2, 1e-4);

  SolverConfig bad_inner;
  bad_inner.set("inner", std::string("golden_section"));
  EXPECT_THROW((void)SolverRegistry::create("multi_start")
                   ->solve(bowl_2d(), bad_inner),
               std::invalid_argument);

  // Self-nesting would recurse 8^depth; refused up front.
  SolverConfig recursive;
  recursive.set("inner", std::string("multi_start"));
  EXPECT_THROW((void)SolverRegistry::create("multi_start")
                   ->solve(bowl_2d(), recursive),
               std::invalid_argument);
}

TEST(SolverObserverTest, BestSoFarIsMonotoneAndEvaluationsNondecreasing) {
  for (const char* name : kBuiltins) {
    const auto solver = SolverRegistry::create(name);
    const Problem problem =
        solver->traits().max_dimension == 1 ? bowl_1d() : bowl_2d();
    std::vector<ProgressEvent> events;
    std::vector<std::vector<double>> points;
    SolverConfig config;
    config.observer = [&](const ProgressEvent& event) {
      events.push_back(event);
      points.emplace_back(event.best_point.begin(), event.best_point.end());
    };
    const OptimizationResult result = solver->solve(problem, config);
    ASSERT_FALSE(events.empty()) << name;
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_LE(events[i].best_value, events[i - 1].best_value) << name;
      EXPECT_GE(events[i].evaluations, events[i - 1].evaluations) << name;
      EXPECT_EQ(events[i].iteration, i) << name;
    }
    // The final best-so-far is at least as good as the reported optimum
    // (solvers may report a point refined with evaluations of their own,
    // never a worse one) and its snapshot evaluates to its value.
    EXPECT_LE(events.back().best_value, result.value + 1e-15) << name;
    EXPECT_EQ(problem.objective(points.back()), events.back().best_value)
        << name;
  }
}

TEST(SolverObserverTest, ObservationDoesNotChangeTheResult) {
  for (const char* name : kBuiltins) {
    const auto solver = SolverRegistry::create(name);
    const Problem problem =
        solver->traits().max_dimension == 1 ? bowl_1d() : bowl_2d();
    const OptimizationResult plain = solver->solve(problem);
    SolverConfig config;
    std::size_t calls = 0;
    config.observer = [&calls](const ProgressEvent&) { ++calls; };
    const OptimizationResult observed = solver->solve(problem, config);
    EXPECT_EQ(plain.argmin, observed.argmin) << name;
    EXPECT_EQ(plain.value, observed.value) << name;
    EXPECT_GT(calls, 0u) << name;
  }
}

TEST(SolverBudgetTest, EvaluationCountsNeverExceedTheBudget) {
  constexpr std::size_t kBudget = 37;
  for (const char* name : kBuiltins) {
    const auto solver = SolverRegistry::create(name);
    const Problem problem =
        solver->traits().max_dimension == 1 ? bowl_1d() : bowl_2d();
    SolverConfig config;
    config.max_evaluations = kBudget;
    const OptimizationResult result = solver->solve(problem, config);
    EXPECT_LE(result.evaluations, kBudget) << name;
    // Every builtin needs more than 37 evaluations on the bowl, so the
    // budget must have been the binding constraint.
    EXPECT_FALSE(result.converged) << name;
    EXPECT_NE(result.message.find("budget"), std::string::npos) << name;
    // The returned point is the best one actually evaluated.
    EXPECT_EQ(problem.objective(result.argmin), result.value) << name;
  }
}

TEST(SolverBudgetTest, ExactFitBudgetIsANormalCompletion) {
  // A budget equal to what the run needs anyway must not flip the result
  // to "budget exhausted" — nothing was ever refused.
  const Problem problem = bowl_2d();
  const auto solver = SolverRegistry::create("nelder_mead");
  const OptimizationResult free_run = solver->solve(problem);
  ASSERT_TRUE(free_run.converged);
  SolverConfig config;
  config.max_evaluations = free_run.evaluations;
  const OptimizationResult fitted = solver->solve(problem, config);
  EXPECT_TRUE(fitted.converged);
  EXPECT_EQ(fitted.argmin, free_run.argmin);
  EXPECT_EQ(fitted.value, free_run.value);
  EXPECT_EQ(fitted.evaluations, free_run.evaluations);
}

TEST(SolverBudgetTest, BudgetedRunsStayDeterministic) {
  SolverConfig config;
  config.max_evaluations = 50;
  const Problem problem = bowl_2d();
  const auto first =
      SolverRegistry::create("nelder_mead")->solve(problem, config);
  const auto again =
      SolverRegistry::create("nelder_mead")->solve(problem, config);
  EXPECT_EQ(first.argmin, again.argmin);
  EXPECT_EQ(first.value, again.value);
  EXPECT_EQ(first.evaluations, again.evaluations);
}

}  // namespace
}  // namespace safeopt::opt
