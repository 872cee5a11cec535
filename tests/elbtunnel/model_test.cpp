// Consistency tests for the Elbtunnel model: the closed-form §IV formulas,
// the fault-tree derivation through MOCUS + parameterized quantification,
// the exact BDD evaluation, and Monte Carlo sampling must all agree.
#include "safeopt/elbtunnel/elbtunnel_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "safeopt/bdd/bdd.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/fta/importance.h"
#include "safeopt/mc/adaptive_monte_carlo.h"

namespace safeopt::elbtunnel {
namespace {

using expr::ParameterAssignment;

class GridPoint : public ::testing::TestWithParam<std::pair<double, double>> {
 protected:
  ElbtunnelModel model_;
};

TEST_P(GridPoint, TreeDerivationMatchesClosedFormCollision) {
  const auto [t1, t2] = GetParam();
  const ParameterAssignment at{{"T1", t1}, {"T2", t2}};

  const fta::FaultTree tree = model_.collision_tree();
  const core::ParameterizedQuantification q =
      model_.collision_quantification(tree);
  const double from_tree =
      q.hazard_expression(core::HazardFormula::kRareEvent).evaluate(at);
  const double closed_form = model_.collision_probability().evaluate(at);
  // The closed form (paper §IV-B.3) carries the (1 − P(OT1)) disjointness
  // factor; the rare-event tree sum does not. The difference is
  // P(OHVcrit)·P(OT1)·P(OT2), negligible across the optimization box.
  EXPECT_NEAR(from_tree, closed_form, 1e-2 * closed_form + 1e-12)
      << "T1=" << t1 << " T2=" << t2;
}

TEST_P(GridPoint, TreeDerivationMatchesClosedFormFalseAlarm) {
  const auto [t1, t2] = GetParam();
  const ParameterAssignment at{{"T1", t1}, {"T2", t2}};

  const fta::FaultTree tree = model_.false_alarm_tree();
  const core::ParameterizedQuantification q =
      model_.false_alarm_quantification(tree);
  const double from_tree =
      q.hazard_expression(core::HazardFormula::kRareEvent).evaluate(at);
  const double closed_form = model_.false_alarm_probability().evaluate(at);
  // Here the structures are identical (one constrained cut set + residual):
  // exact agreement expected.
  EXPECT_NEAR(from_tree, closed_form, 1e-14) << "T1=" << t1 << " T2=" << t2;
}

TEST_P(GridPoint, BddExactAgreesWithRareEventAtSmallProbabilities) {
  const auto [t1, t2] = GetParam();
  const ParameterAssignment at{{"T1", t1}, {"T2", t2}};

  const fta::FaultTree tree = model_.false_alarm_tree();
  const core::ParameterizedQuantification q =
      model_.false_alarm_quantification(tree);
  const fta::QuantificationInput numeric = q.evaluate(at);
  bdd::CompiledFaultTree compiled = bdd::compile(tree);
  const double exact = compiled.probability(numeric);
  const double rare = fta::top_event_probability(
      fta::minimal_cut_sets(tree), numeric,
      fta::ProbabilityMethod::kRareEvent);
  // Rare-event overestimates, but by < 0.1% at these magnitudes.
  EXPECT_GE(rare, exact - 1e-15);
  EXPECT_NEAR(rare, exact, 1e-3 * exact + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(
    TimerGrid, GridPoint,
    ::testing::Values(std::pair{10.0, 10.0}, std::pair{15.0, 15.0},
                      std::pair{19.0, 15.6}, std::pair{20.0, 18.0},
                      std::pair{30.0, 30.0}, std::pair{40.0, 40.0},
                      std::pair{12.0, 35.0}, std::pair{35.0, 12.0}));

TEST(ElbtunnelTreesTest, CollisionTreeStructureMatchesPaper) {
  const ElbtunnelModel model;
  const fta::FaultTree tree = model.collision_tree();
  EXPECT_TRUE(tree.validate().empty());
  const fta::CutSetCollection mcs = fta::minimal_cut_sets(tree);
  // §IV-B.2: the OT cut sets are single points of failure; with the
  // residual that is three minimal cut sets.
  ASSERT_EQ(mcs.size(), 3u);
  for (const auto& cs : mcs.sets()) {
    EXPECT_TRUE(cs.is_single_point_of_failure());
  }
  EXPECT_NE(mcs.to_string(tree).find("OT1 | OHVcritical"),
            std::string::npos);
}

TEST(ElbtunnelTreesTest, FalseAlarmTreeStructureMatchesPaper) {
  const ElbtunnelModel model;
  const fta::FaultTree tree = model.false_alarm_tree();
  EXPECT_TRUE(tree.validate().empty());
  const fta::CutSetCollection mcs = fta::minimal_cut_sets(tree);
  ASSERT_EQ(mcs.size(), 2u);
  EXPECT_NE(mcs.to_string(tree).find("HVODfinal | ODfinalArmed"),
            std::string::npos);
}

TEST(ElbtunnelTreesTest, HvOdfinalDominatesFalseAlarmImportance) {
  // Paper §IV-B.2: "this will be the dominating factor in the hazard's
  // HAlr overall probability by two orders of magnitude".
  const ElbtunnelModel model;
  const fta::FaultTree tree = model.false_alarm_tree();
  const core::ParameterizedQuantification q =
      model.false_alarm_quantification(tree);
  const ParameterAssignment at{{"T1", 30.0}, {"T2", 30.0}};
  const fta::QuantificationInput numeric = q.evaluate(at);
  const fta::CutSetCollection mcs = fta::minimal_cut_sets(tree);
  const auto ranking = fta::importance_ranking(tree, mcs, numeric);
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].event_name, "HVODfinal");
  // Dominance by two orders of magnitude over the residual causes.
  const double hv_contribution = ranking[0].fussell_vesely;
  const double residual_contribution = ranking[1].fussell_vesely;
  EXPECT_GT(hv_contribution / residual_contribution, 5.0);
}

TEST(ElbtunnelMonteCarloTest, SamplingConfirmsFalseAlarmProbability) {
  const ElbtunnelModel model;
  const fta::FaultTree tree = model.false_alarm_tree();
  const core::ParameterizedQuantification q =
      model.false_alarm_quantification(tree);
  // Inflate the constraint to 1 (the Fig. 6 environment) so the event is
  // frequent enough for direct Monte Carlo.
  ParameterAssignment at{{"T1", 30.0}, {"T2", 15.6}};
  fta::QuantificationInput numeric = q.evaluate(at);
  numeric.condition_probability[0] = 1.0;
  bdd::CompiledFaultTree compiled = bdd::compile(tree);
  const double exact = compiled.probability(numeric);
  mc::AdaptiveOptions fixed;
  fixed.target_halfwidth = 0.0;
  fixed.max_trials = 200000;
  const auto result = mc::AdaptiveMonteCarlo(fixed).estimate(tree, numeric);
  const double sigma = std::sqrt(exact * (1.0 - exact) / 200000.0);
  EXPECT_NEAR(result.estimate, exact, 5.0 * sigma);
}

TEST(ElbtunnelModelTest, ParameterSpaceIsCompactTimers) {
  const ElbtunnelModel model;
  const core::ParameterSpace space = model.parameter_space();
  ASSERT_EQ(space.size(), 2u);
  EXPECT_EQ(space[0].name, "T1");
  EXPECT_EQ(space[1].name, "T2");
  EXPECT_GT(space[0].lower, 0.0);
  EXPECT_LT(space[0].upper, 100.0);
}

TEST(ElbtunnelModelTest, HazardsDependOnTheRightParameters) {
  const ElbtunnelModel model;
  // P(HCol) depends on both timers; P(HAlr)'s T1 dependence enters through
  // P(FDLBpost)(T1) — paper footnote 2's subset structure.
  const auto col_params = model.collision_probability().parameters();
  EXPECT_TRUE(col_params.contains("T1"));
  EXPECT_TRUE(col_params.contains("T2"));
  const auto alr_params = model.false_alarm_probability().parameters();
  EXPECT_TRUE(alr_params.contains("T1"));
  EXPECT_TRUE(alr_params.contains("T2"));
}

TEST(ElbtunnelModelTest, OvertimeProbabilitiesAreDecreasingInTimers) {
  const ElbtunnelModel model;
  const auto p_ot1 = model.p_overtime1();
  double prev = 1.0;
  // Strict decrease across the whole timer box: the erfc-based survival
  // keeps the tail representable even at 40 minutes (18σ, ~1e-72).
  for (double t1 = 5.0; t1 <= 40.0; t1 += 2.5) {
    const double value = p_ot1.evaluate({{"T1", t1}});
    EXPECT_LT(value, prev);
    EXPECT_GT(value, 0.0);
    prev = value;
  }
}

TEST(ElbtunnelModelTest, FalseAlarmGivenOhvIsIncreasingInT2) {
  const ElbtunnelModel model;
  const auto fig6 = model.false_alarm_given_ohv(Design::kBaseline);
  double prev = 0.0;
  for (double t2 = 5.0; t2 <= 25.0; t2 += 2.0) {
    const double value = fig6.evaluate({{"T2", t2}});
    EXPECT_GT(value, prev);
    prev = value;
  }
}

TEST(ElbtunnelModelTest, TrafficConfigMirrorsModelParameters) {
  const ElbtunnelModel model;
  const sim::TrafficConfig config =
      model.traffic_config(19.0, 15.6, Design::kWithLB4);
  EXPECT_DOUBLE_EQ(config.timer1_min, 19.0);
  EXPECT_DOUBLE_EQ(config.timer2_min, 15.6);
  EXPECT_DOUBLE_EQ(config.zone_transit_mean_min,
                   model.parameters().transit_mean_min);
  EXPECT_DOUBLE_EQ(config.hv_left_lane_rate_per_min,
                   model.parameters().hv_left_rate_per_min);
  EXPECT_EQ(config.variant, sim::DesignVariant::kWithLB4);
}

TEST(ElbtunnelModelTest, WithLb4ExpectationLiesBetweenBounds) {
  // E[1 − e^{−λ·min(T2, D)}] must lie between the same expression
  // evaluated at D -> 0 (zero) and at D -> ∞ (the baseline 1 − e^{−λT2}).
  const ElbtunnelModel model;
  const auto lb4 = model.false_alarm_given_ohv(Design::kWithLB4);
  const auto baseline = model.false_alarm_given_ohv(Design::kBaseline);
  for (double t2 = 5.0; t2 <= 30.0; t2 += 5.0) {
    const ParameterAssignment at{{"T2", t2}};
    EXPECT_GT(lb4.evaluate(at), 0.0);
    EXPECT_LT(lb4.evaluate(at), baseline.evaluate(at));
  }
}

}  // namespace
}  // namespace safeopt::elbtunnel
