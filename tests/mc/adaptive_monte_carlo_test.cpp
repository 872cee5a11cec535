// Adaptive + rare-event Monte Carlo: the stopping rule must hold what it
// promises (half-width at or below target when converged, budget respected
// when not), the degenerate leaves p = 0 / p = 1 must behave, importance
// sampling must stay consistent with the exact probability while using far
// fewer trials than crude sampling would need, and the whole trajectory —
// including the stopped trial count — must be bitwise thread-count-invariant
// at a fixed seed.
#include <gtest/gtest.h>

#include <cmath>

#include "safeopt/bdd/bdd.h"
#include "safeopt/mc/adaptive_monte_carlo.h"
#include "safeopt/support/thread_pool.h"
#include "testutil/random_tree.h"

namespace safeopt::mc {
namespace {

/// AND of three rare leaves under a rare demand condition: P(top) ~ 1e-7,
/// unresolvable by crude sampling at test-sized budgets.
struct RareSystem {
  fta::FaultTree tree{"Rupture"};
  fta::QuantificationInput input;

  RareSystem() {
    const auto valve = tree.add_basic_event("Valve");
    const auto disc = tree.add_basic_event("Disc");
    const auto plc = tree.add_basic_event("Plc");
    const auto demand = tree.add_condition("Demand");
    const auto lost = tree.add_and("ProtectionLost", {valve, disc, plc});
    tree.set_top(tree.add_inhibit("Rupture", lost, demand));

    input = fta::QuantificationInput::for_tree(tree, 0.0);
    input.set(tree, "Valve", 2e-2);
    input.set(tree, "Disc", 8e-3);
    input.set(tree, "Plc", 4e-3);
    input.set(tree, "Demand", 2e-2);
  }
};

TEST(AdaptiveMonteCarloTest, ConvergedRunMeetsTheAbsoluteTarget) {
  const fta::FaultTree tree = testutil::random_tree(31);
  const auto input = fta::QuantificationInput::for_tree(tree, 0.05);

  AdaptiveOptions options;
  options.target_halfwidth = 5e-3;
  options.relative = false;
  options.batch = 1 << 12;
  options.max_trials = 1 << 22;
  const auto result = AdaptiveMonteCarlo(options).estimate(tree, input);

  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.halfwidth(), options.target_halfwidth);
  EXPECT_LE(result.trials, options.max_trials);
  EXPECT_FALSE(result.importance);
  EXPECT_EQ(result.ess, static_cast<double>(result.trials));
}

TEST(AdaptiveMonteCarloTest, ConvergedRunMeetsTheRelativeTarget) {
  const fta::FaultTree tree = testutil::random_tree(32);
  const auto input = fta::QuantificationInput::for_tree(tree, 0.1);

  AdaptiveOptions options;
  options.target_halfwidth = 0.05;
  options.relative = true;
  options.batch = 1 << 12;
  options.max_trials = 1 << 22;
  const auto result = AdaptiveMonteCarlo(options).estimate(tree, input);

  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.estimate, 0.0);
  EXPECT_LE(result.halfwidth(), options.target_halfwidth * result.estimate);
}

TEST(AdaptiveMonteCarloTest, AbsoluteVsRelativeTargetsStopAtDifferentTimes) {
  // At p ~ 0.3, an absolute half-width of 0.03 is ten times looser than a
  // 1% relative target — the relative run must keep sampling after the
  // absolute run stopped.
  fta::FaultTree tree("Single");
  tree.set_top(tree.add_basic_event("E"));
  auto input = fta::QuantificationInput::for_tree(tree, 0.3);

  AdaptiveOptions loose;
  loose.target_halfwidth = 0.03;
  loose.relative = false;
  loose.batch = 1 << 12;
  AdaptiveOptions tight = loose;
  tight.target_halfwidth = 0.01;
  tight.relative = true;
  tight.max_trials = 1 << 24;

  const auto absolute = AdaptiveMonteCarlo(loose).estimate(tree, input);
  const auto relative = AdaptiveMonteCarlo(tight).estimate(tree, input);
  ASSERT_TRUE(absolute.converged);
  ASSERT_TRUE(relative.converged);
  EXPECT_LT(absolute.trials, relative.trials);
  EXPECT_LE(relative.halfwidth(), 0.01 * relative.estimate);
}

TEST(AdaptiveMonteCarloTest, ImpossibleEventConvergesOnAbsoluteTarget) {
  // Every leaf at p = 0: the event cannot occur, and the Wilson interval
  // around 0/n still shrinks below an absolute target.
  const fta::FaultTree tree = testutil::random_tree(33);
  const auto input = fta::QuantificationInput::for_tree(tree, 0.0);

  AdaptiveOptions options;
  options.target_halfwidth = 1e-4;
  options.relative = false;
  options.batch = 1 << 14;
  const auto result = AdaptiveMonteCarlo(options).estimate(tree, input);

  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.estimate, 0.0);
  EXPECT_EQ(result.occurrences, 0u);
  EXPECT_LE(result.halfwidth(), 1e-4);
}

TEST(AdaptiveMonteCarloTest, ImpossibleEventExhaustsBudgetOnRelativeTarget) {
  // A relative target against an estimate of 0 is unreachable by
  // construction; the loop must run to the budget and say so.
  const fta::FaultTree tree = testutil::random_tree(34);
  const auto input = fta::QuantificationInput::for_tree(tree, 0.0);

  AdaptiveOptions options;
  options.target_halfwidth = 0.1;
  options.relative = true;
  options.batch = 1 << 14;
  options.max_trials = 100000;
  const auto result = AdaptiveMonteCarlo(options).estimate(tree, input);

  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.trials, options.max_trials);
  EXPECT_EQ(result.estimate, 0.0);
}

TEST(AdaptiveMonteCarloTest, CertainEventConvergesInBothModes) {
  // Every leaf at p = 1 under an OR/AND tree: every trial hits.
  const fta::FaultTree tree = testutil::random_tree(35);
  const auto input = fta::QuantificationInput::for_tree(tree, 1.0);
  // random_tree conditions default to 1.0 already via for_tree.

  for (const bool relative : {false, true}) {
    AdaptiveOptions options;
    options.target_halfwidth = 1e-3;
    options.relative = relative;
    options.batch = 1 << 14;
    const auto result = AdaptiveMonteCarlo(options).estimate(tree, input);
    ASSERT_TRUE(result.converged) << "relative=" << relative;
    EXPECT_EQ(result.estimate, 1.0);
    EXPECT_EQ(result.occurrences, result.trials);
  }
}

TEST(AdaptiveMonteCarloTest, BudgetExhaustionReportsAchievedPrecision) {
  const fta::FaultTree tree = testutil::random_tree(36);
  const auto input = fta::QuantificationInput::for_tree(tree, 0.05);

  AdaptiveOptions options;
  options.target_halfwidth = 1e-6;  // unreachable inside the budget
  options.relative = false;
  options.batch = 1 << 12;
  options.max_trials = 50000;  // not a multiple of the batch
  const auto result = AdaptiveMonteCarlo(options).estimate(tree, input);

  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.trials, 50000u);  // the budget is exact, not rounded
  EXPECT_GT(result.halfwidth(), 1e-6);
  EXPECT_GT(result.ci95.width(), 0.0);
}

TEST(AdaptiveMonteCarloTest, StoppedTrialCountIsThreadCountInvariant) {
  const fta::FaultTree tree = testutil::random_tree(37);
  const auto input = fta::QuantificationInput::for_tree(tree, 0.03);

  AdaptiveOptions options;
  options.target_halfwidth = 0.05;
  options.relative = true;
  options.batch = 1 << 13;
  options.seed = 0xfeed;
  const auto reference = AdaptiveMonteCarlo(options).estimate(tree, input);

  for (const std::size_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    AdaptiveOptions pooled = options;
    pooled.pool = &pool;
    const auto result = AdaptiveMonteCarlo(pooled).estimate(tree, input);
    EXPECT_EQ(result.trials, reference.trials) << threads << " threads";
    EXPECT_EQ(result.occurrences, reference.occurrences);
    EXPECT_EQ(result.estimate, reference.estimate);
    EXPECT_EQ(result.ci95.lo, reference.ci95.lo);
    EXPECT_EQ(result.ci95.hi, reference.ci95.hi);
  }
}

TEST(AdaptiveMonteCarloTest, ImportanceSamplingIsThreadCountInvariant) {
  const RareSystem system;

  AdaptiveOptions options;
  options.target_halfwidth = 0.1;
  options.relative = true;
  options.tilt = 20.0;
  options.batch = 1 << 14;
  options.seed = 0xbeef;
  const auto reference =
      AdaptiveMonteCarlo(options).estimate(system.tree, system.input);
  ASSERT_TRUE(reference.converged);

  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    AdaptiveOptions pooled = options;
    pooled.pool = &pool;
    const auto result =
        AdaptiveMonteCarlo(pooled).estimate(system.tree, system.input);
    EXPECT_EQ(result.trials, reference.trials) << threads << " threads";
    EXPECT_EQ(result.estimate, reference.estimate);
    EXPECT_EQ(result.ess, reference.ess);
  }
}

TEST(AdaptiveMonteCarloTest, ImportanceSamplingResolvesTheRareEvent) {
  const RareSystem system;
  const double exact = bdd::compile(system.tree).probability(system.input);
  ASSERT_LT(exact, 1e-6);  // genuinely rare

  AdaptiveOptions options;
  options.target_halfwidth = 0.1;
  options.relative = true;
  options.tilt = 20.0;
  options.batch = 1 << 14;
  options.max_trials = 1 << 22;
  const auto result =
      AdaptiveMonteCarlo(options).estimate(system.tree, system.input);

  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(result.importance);
  EXPECT_TRUE(result.consistent_with(exact))
      << "estimate " << result.estimate << " vs exact " << exact;
  EXPECT_LE(result.halfwidth(), 0.1 * result.estimate);
  // Weighted-sample diagnostics: the ESS of a tilted proposal is genuinely
  // below the trial count.
  EXPECT_LT(result.ess, static_cast<double>(result.trials));
  EXPECT_GT(result.ess, 0.0);

  // Crude sampling at the same budget cannot even see the event: the trials
  // the IS run needed are orders of magnitude below the ~1/p a single crude
  // hit needs in expectation.
  EXPECT_LT(static_cast<double>(result.trials), 0.1 / exact);
}

TEST(AdaptiveMonteCarloTest, ZeroProbabilityLeavesStayUntilted) {
  // p = 0 leaves cannot fire under the model; the proposal must keep them
  // at 0 (tilting them would only waste weight), so a tree whose only cut
  // sets need such a leaf still reports 0 under importance sampling.
  fta::FaultTree tree("Blocked");
  const auto dead = tree.add_basic_event("Dead");
  const auto live = tree.add_basic_event("Live");
  tree.set_top(tree.add_and("Top", {dead, live}));
  auto input = fta::QuantificationInput::for_tree(tree, 0.0);
  input.set(tree, "Live", 0.01);

  AdaptiveOptions options;
  options.target_halfwidth = 0.1;
  options.relative = true;
  options.tilt = 50.0;
  options.max_trials = 200000;
  const auto result = AdaptiveMonteCarlo(options).estimate(tree, input);

  EXPECT_FALSE(result.converged);  // relative target at estimate 0
  EXPECT_EQ(result.estimate, 0.0);
  EXPECT_EQ(result.occurrences, 0u);
  EXPECT_EQ(result.trials, 200000u);
}

TEST(AdaptiveMonteCarloTest, SeedChangesTheSample) {
  const fta::FaultTree tree = testutil::random_tree(38);
  const auto input = fta::QuantificationInput::for_tree(tree, 0.05);

  AdaptiveOptions a;
  a.max_trials = 50000;
  a.target_halfwidth = 1e-9;
  a.relative = false;
  a.seed = 1;
  AdaptiveOptions b = a;
  b.seed = 2;
  const auto ra = AdaptiveMonteCarlo(a).estimate(tree, input);
  const auto rb = AdaptiveMonteCarlo(b).estimate(tree, input);
  EXPECT_NE(ra.occurrences, rb.occurrences);
}

}  // namespace
}  // namespace safeopt::mc
