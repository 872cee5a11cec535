// Fixed-budget Monte Carlo: the sampler with no stopping target
// (target_halfwidth = 0) must spend exactly its trial budget, agree with the
// exact probability, and — sequential or pooled — be a pure function of
// (tree, input, trials, seed), never of the thread count.
#include <gtest/gtest.h>

#include <cmath>

#include "testutil/random_tree.h"
#include "safeopt/bdd/bdd.h"
#include "safeopt/mc/adaptive_monte_carlo.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::mc {
namespace {

AdaptiveResult fixed_budget(const fta::FaultTree& tree,
                            const fta::QuantificationInput& input,
                            std::uint64_t trials,
                            std::uint64_t seed = AdaptiveOptions{}.seed,
                            ThreadPool* pool = nullptr) {
  AdaptiveOptions options;
  options.target_halfwidth = 0.0;  // no stopping target
  options.max_trials = trials;
  options.seed = seed;
  options.pool = pool;
  return AdaptiveMonteCarlo(options).estimate(tree, input);
}

/// How many of `runs` fixed-budget runs at consecutive seeds (the default
/// seed first) have a 95% interval that misses `exact`. One run's interval
/// misses on ~1 stream in 20 by construction, so a single pinned seed says
/// little about coverage; the miss count over many seeds does. The callers'
/// bounds fail an honest 95% interval with probability < 0.4%
/// (P[Bin(40, 0.05) >= 7], P[Bin(20, 0.05) >= 5]).
std::size_t interval_misses(const fta::FaultTree& tree,
                            const fta::QuantificationInput& input,
                            double exact, std::uint64_t trials,
                            std::uint64_t runs, ThreadPool* pool) {
  std::size_t misses = 0;
  for (std::uint64_t run = 0; run < runs; ++run) {
    const AdaptiveResult result =
        fixed_budget(tree, input, trials, AdaptiveOptions{}.seed + run, pool);
    if (!result.consistent_with(exact)) ++misses;
  }
  return misses;
}

fta::FaultTree simple_or() {
  fta::FaultTree tree("or");
  const auto a = tree.add_basic_event("a");
  const auto b = tree.add_basic_event("b");
  tree.set_top(tree.add_or("top", {a, b}));
  return tree;
}

TEST(MonteCarloTest, EstimatesSimpleOrProbability) {
  const fta::FaultTree tree = simple_or();
  fta::QuantificationInput input = fta::QuantificationInput::for_tree(tree, 0.0);
  input.set(tree, "a", 0.1);
  input.set(tree, "b", 0.2);
  const AdaptiveResult result = fixed_budget(tree, input, 200000);
  // Exact: 0.1 + 0.2 − 0.02 = 0.28.
  EXPECT_EQ(result.trials, 200000u);
  EXPECT_NEAR(result.estimate, 0.28, 0.01);
  // No stopping target: the run never claims convergence.
  EXPECT_FALSE(result.converged);
  EXPECT_FALSE(result.aborted);
  // The 95% interval covers 0.28 on the expected share of streams.
  EXPECT_LE(interval_misses(tree, input, 0.28, 200000, 40, nullptr), 6u);
}

TEST(MonteCarloTest, IsDeterministicPerSeed) {
  const fta::FaultTree tree = simple_or();
  fta::QuantificationInput input =
      fta::QuantificationInput::for_tree(tree, 0.15);
  const auto r1 = fixed_budget(tree, input, 10000, 42);
  const auto r2 = fixed_budget(tree, input, 10000, 42);
  EXPECT_EQ(r1.occurrences, r2.occurrences);
  const auto r3 = fixed_budget(tree, input, 10000, 43);
  EXPECT_NE(r1.occurrences, r3.occurrences);
}

TEST(MonteCarloTest, ZeroProbabilityNeverFires) {
  const fta::FaultTree tree = simple_or();
  const fta::QuantificationInput input =
      fta::QuantificationInput::for_tree(tree, 0.0);
  const auto result = fixed_budget(tree, input, 10000);
  EXPECT_EQ(result.occurrences, 0u);
  EXPECT_DOUBLE_EQ(result.estimate, 0.0);
  // Wilson still gives a meaningful (non-degenerate) upper bound.
  EXPECT_GT(result.ci95.hi, 0.0);
}

TEST(MonteCarloTest, CertainHazardAlwaysFires) {
  const fta::FaultTree tree = simple_or();
  const fta::QuantificationInput input =
      fta::QuantificationInput::for_tree(tree, 1.0);
  const auto result = fixed_budget(tree, input, 1000);
  EXPECT_EQ(result.occurrences, 1000u);
}

TEST(MonteCarloTest, ConditionsSampleAsBernoulli) {
  fta::FaultTree tree("inh");
  const auto pf = tree.add_basic_event("pf");
  const auto env = tree.add_condition("env");
  tree.set_top(tree.add_inhibit("top", pf, env));
  fta::QuantificationInput input = fta::QuantificationInput::for_tree(tree, 0.0);
  input.set(tree, "pf", 0.4);
  input.set(tree, "env", 0.5);
  const auto result = fixed_budget(tree, input, 200000);
  EXPECT_TRUE(result.consistent_with(0.2));
}

class MonteCarloVsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonteCarloVsExact, EstimateWithinFiveSigmaOfExactBdd) {
  const fta::FaultTree tree = testutil::random_tree(
      GetParam(), {.basic_events = 7, .conditions = 1, .gates = 6});
  const fta::QuantificationInput input =
      testutil::random_probabilities(tree, GetParam(), 0.05, 0.4);
  bdd::CompiledFaultTree compiled = bdd::compile(tree);
  const double exact = compiled.probability(input);
  constexpr std::uint64_t kTrials = 60000;
  const auto result = fixed_budget(tree, input, kTrials, GetParam() * 7 + 1);
  // 5-sigma band: per-seed false-failure probability ~6e-7, so the sweep
  // over all seeds stays deterministic-for-practical-purposes.
  const double sigma =
      std::sqrt(exact * (1.0 - exact) / static_cast<double>(kTrials));
  EXPECT_NEAR(result.estimate, exact, 5.0 * sigma + 1e-9)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonteCarloVsExact,
                         ::testing::Range<std::uint64_t>(0, 20));

// Pooled runs: per-chunk xoshiro jump() streams make the result independent
// of the thread count, and the estimate still agrees with the exact value.

TEST(ParallelMonteCarloTest, ResultIndependentOfThreadCount) {
  const fta::FaultTree tree = testutil::random_tree(21);
  const auto input = fta::QuantificationInput::for_tree(tree, 0.05);

  // 100000 trials = one full 65536-trial round of 16 chunks plus a
  // 34464-trial round of 9, so slabs of 2 and 5 chunks straddle rounds.
  const AdaptiveResult reference =
      fixed_budget(tree, input, 100000, 0xabcd);
  for (const std::size_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    const AdaptiveResult result =
        fixed_budget(tree, input, 100000, 0xabcd, &pool);
    EXPECT_EQ(result.occurrences, reference.occurrences)
        << threads << " threads";
    EXPECT_EQ(result.trials, reference.trials);
    EXPECT_EQ(result.estimate, reference.estimate);
    EXPECT_EQ(result.ci95.lo, reference.ci95.lo);
    EXPECT_EQ(result.ci95.hi, reference.ci95.hi);
  }
}

TEST(ParallelMonteCarloTest, SeedChangesTheSample) {
  const fta::FaultTree tree = testutil::random_tree(22);
  const auto input = fta::QuantificationInput::for_tree(tree, 0.05);
  ThreadPool pool(2);
  const AdaptiveResult a = fixed_budget(tree, input, 50000, 1, &pool);
  const AdaptiveResult b = fixed_budget(tree, input, 50000, 2, &pool);
  EXPECT_NE(a.occurrences, b.occurrences);
}

TEST(ParallelMonteCarloTest, PartialFinalChunkCountsAllTrials) {
  const fta::FaultTree tree = testutil::random_tree(23);
  const auto input = fta::QuantificationInput::for_tree(tree, 0.1);
  ThreadPool pool(3);
  // 40000 is not a multiple of the 4096-trial chunk size.
  const AdaptiveResult result =
      fixed_budget(tree, input, 40000, AdaptiveOptions{}.seed, &pool);
  EXPECT_EQ(result.trials, 40000u);
  EXPECT_LE(result.occurrences, result.trials);
}

TEST(ParallelMonteCarloTest, EstimateIsConsistentWithExactProbability) {
  const fta::FaultTree tree = testutil::random_tree(24);
  const auto input = fta::QuantificationInput::for_tree(tree, 0.05);
  const double exact = bdd::compile(tree).probability(input);

  ThreadPool pool(4);
  EXPECT_LE(interval_misses(tree, input, exact, 400000, 20, &pool), 4u);
}

}  // namespace
}  // namespace safeopt::mc
