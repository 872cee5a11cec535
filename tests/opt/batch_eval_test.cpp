// Batched evaluation through opt::Problem: the fallback loop, the grid_search
// block path, synchronous differential evolution, and parallel multi-start
// must all produce results that are bitwise-independent of how (and whether)
// evaluation is batched or threaded.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "safeopt/opt/problem.h"
#include "safeopt/opt/solver.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::opt {
namespace {

double himmelblau(std::span<const double> x) {
  const double a = x[0] * x[0] + x[1] - 11.0;
  const double b = x[0] + x[1] * x[1] - 7.0;
  return a * a + b * b;
}

Problem himmelblau_problem() {
  Problem problem;
  problem.objective = himmelblau;
  problem.bounds = Box({-5.0, -5.0}, {5.0, 5.0});
  return problem;
}

TEST(ProblemBatchTest, FallbackLoopMatchesObjective) {
  const Problem problem = himmelblau_problem();
  ASSERT_FALSE(problem.has_batch_objective());
  std::vector<double> points{1.0, 2.0, -3.0, 0.5, 4.0, -4.0};
  std::vector<double> out(3);
  problem.evaluate_batch(points, out);
  for (std::size_t r = 0; r < out.size(); ++r) {
    EXPECT_EQ(out[r], himmelblau(std::span<const double>(&points[r * 2], 2)));
  }
}

TEST(ProblemBatchTest, BatchObjectiveIsPreferred) {
  Problem problem = himmelblau_problem();
  std::atomic<int> batch_calls{0};
  problem.batch_objective = [&batch_calls](std::span<const double> points,
                                           std::span<double> out) {
    ++batch_calls;
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = himmelblau(points.subspan(r * 2, 2));
    }
  };
  std::vector<double> points{0.0, 0.0, 3.0, 2.0};
  std::vector<double> out(2);
  problem.evaluate_batch(points, out);
  EXPECT_EQ(batch_calls.load(), 1);
  EXPECT_EQ(out[1], 0.0);  // (3, 2) is a Himmelblau minimum
}

TEST(GridSearchBatchTest, BatchedProblemGivesIdenticalResult) {
  const Problem scalar = himmelblau_problem();
  Problem batched = himmelblau_problem();
  ThreadPool pool(3);
  batched.batch_objective = [&pool](std::span<const double> points,
                                    std::span<double> out) {
    pool.parallel_for(out.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t r = begin; r < end; ++r) {
        out[r] = himmelblau(points.subspan(r * 2, 2));
      }
    });
  };

  const auto search = SolverRegistry::create("grid_search");
  SolverConfig config;
  config.set("points_per_dimension", 41.0).set("refinement_rounds", 4.0);
  const OptimizationResult a = search->solve(scalar, config);
  const OptimizationResult b = search->solve(batched, config);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.argmin, b.argmin);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(GridSearchBatchTest, BlockedScanKeepsFirstOfTiedMinima) {
  // A constant objective ties everywhere; the incumbent must be the first
  // enumerated grid point (axis 0 fastest from the lower corner), exactly
  // as the pre-batching scalar loop behaved.
  Problem problem;
  problem.objective = [](std::span<const double>) { return 1.0; };
  problem.bounds = Box({0.0, 0.0}, {1.0, 1.0});
  SolverConfig config;
  config.set("points_per_dimension", 5.0).set("refinement_rounds", 1.0);
  const OptimizationResult result =
      SolverRegistry::create("grid_search")->solve(problem, config);
  EXPECT_EQ(result.argmin, (std::vector<double>{0.0, 0.0}));
}

TEST(DifferentialEvolutionBatchTest, SynchronousModeIsDeterministic) {
  const auto solver = SolverRegistry::create("differential_evolution");
  SolverConfig config;
  config.set("generations", 40.0).set("synchronous_batch", 1.0);
  config.seed = 0xfeed;

  const Problem scalar = himmelblau_problem();
  const OptimizationResult reference = solver->solve(scalar, config);

  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    Problem batched = himmelblau_problem();
    batched.batch_objective = [&pool](std::span<const double> points,
                                      std::span<double> out) {
      pool.parallel_for(out.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          out[r] = himmelblau(points.subspan(r * 2, 2));
        }
      });
    };
    const OptimizationResult result = solver->solve(batched, config);
    EXPECT_EQ(result.value, reference.value) << threads << " threads";
    EXPECT_EQ(result.argmin, reference.argmin) << threads << " threads";
  }
}

TEST(DifferentialEvolutionBatchTest, SynchronousModeFindsTheMinimum) {
  SolverConfig config;
  config.set("synchronous_batch", 1.0);
  const OptimizationResult result =
      SolverRegistry::create("differential_evolution")
          ->solve(himmelblau_problem(), config);
  EXPECT_NEAR(result.value, 0.0, 1e-8);
}

TEST(MultiStartParallelTest, PoolGivesIdenticalResultToSequential) {
  const Problem problem = himmelblau_problem();
  const auto solver = SolverRegistry::create("multi_start");
  SolverConfig config;
  config.seed = 0xabc;
  const OptimizationResult reference = solver->solve(problem, config);

  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    config.pool = &pool;
    const OptimizationResult result = solver->solve(problem, config);
    EXPECT_EQ(result.value, reference.value) << threads << " threads";
    EXPECT_EQ(result.argmin, reference.argmin) << threads << " threads";
    EXPECT_EQ(result.evaluations, reference.evaluations)
        << threads << " threads";
    EXPECT_EQ(result.message, reference.message) << threads << " threads";
  }
}

}  // namespace
}  // namespace safeopt::opt
