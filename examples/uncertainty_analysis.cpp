// Paper §V extensions in action: "the results of this analysis depend a lot
// on how well the statistical model reflects reality" — so quantify that
// dependence instead of hoping.
//
//   1. Epistemic uncertainty propagation: lognormal error factors on the
//      Elbtunnel leaf probabilities -> percentiles of P(HAlr).
//   2. Common-cause analysis (paper §II-C points to it for correlated
//      failures): a beta factor on a redundant sensor pair.
//   3. Robust safety optimization (§V: "reduce the whole optimization
//      problem to a problem of stochastic programming"): optimize the
//      timers when the HV rate itself is uncertain, by expected cost and
//      by worst case, and report the regret.
#include <cstdio>

#include "safeopt/core/robust_optimizer.h"
#include "safeopt/elbtunnel/elbtunnel_model.h"
#include "safeopt/fta/common_cause.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/mc/uncertainty.h"

int main() {
  using namespace safeopt;
  const elbtunnel::ElbtunnelModel model;

  // ---- 1. uncertainty propagation on the false-alarm hazard -------------
  std::printf("== 1. epistemic uncertainty on P(HAlr) ==\n\n");
  const fta::FaultTree alarm_tree = model.false_alarm_tree();
  const auto quantification = model.false_alarm_quantification(alarm_tree);
  const fta::QuantificationInput point =
      quantification.evaluate({{"T1", 19.0}, {"T2", 15.6}});
  const fta::CutSetCollection mcs = fta::minimal_cut_sets(alarm_tree);

  for (const double error_factor : {2.0, 5.0, 10.0}) {
    mc::UncertainQuantification uncertain(alarm_tree, point);
    uncertain.set_lognormal_error_factor(
        "HVODfinal", point.basic_event_probability[1], error_factor);
    uncertain.set_lognormal_error_factor(
        "OtherFalseAlarmCauses", point.basic_event_probability[0],
        error_factor);
    const mc::UncertaintyResult result =
        mc::propagate_uncertainty(uncertain, mcs, 20000);
    std::printf(
        "  error factor %4.1f: median %.3e, 90%% band [%.3e, %.3e] "
        "(span %.1fx)\n",
        error_factor, result.median, result.p05, result.p95,
        result.uncertainty_span());
  }

  // ---- 2. common-cause beta factor on a redundant detector pair ---------
  std::printf("\n== 2. beta-factor common cause on redundant detectors ==\n\n");
  fta::FaultTree detectors("missed-detection");
  const auto d1 = detectors.add_basic_event("detector1_blind");
  const auto d2 = detectors.add_basic_event("detector2_blind");
  detectors.set_top(detectors.add_and("both_blind", {d1, d2}));
  const auto input = fta::QuantificationInput::for_tree(detectors, 1e-3);
  const double independent = fta::top_event_probability(
      fta::minimal_cut_sets(detectors), input);
  std::printf("  independent 1e-3 pair:  P(both blind) = %.3e\n",
              independent);
  for (const double beta : {0.05, 0.1, 0.2}) {
    const fta::CommonCauseModel ccf = fta::apply_beta_factor(
        detectors, input,
        {{"detector_pair", {"detector1_blind", "detector2_blind"}, beta}});
    const double with_ccf = fta::top_event_probability(
        fta::minimal_cut_sets(ccf.tree), ccf.probabilities);
    std::printf("  beta = %.2f:            P(both blind) = %.3e  (%.0fx)\n",
                beta, with_ccf, with_ccf / independent);
  }

  // ---- 3. robust timer optimization under HV-rate uncertainty -----------
  std::printf("\n== 3. robust optimization: uncertain HV rate ==\n\n");
  const auto scenario = [&](Rng& rng) {
    // The left-lane HV rate is only known to within a factor ~2.
    elbtunnel::ModelParameters params = model.parameters();
    params.hv_left_rate_per_min *= uniform(rng, 0.5, 2.0);
    const elbtunnel::ElbtunnelModel world(params);
    return world.cost_model().cost_expression();
  };
  const core::ScenarioSet scenarios(12, scenario, 0xe1b);
  const core::RobustSafetyOptimizer robust(scenarios,
                                           model.parameter_space());

  const auto expected = robust.optimize(core::RobustCriterion::kExpectedValue);
  const auto minimax = robust.optimize(core::RobustCriterion::kWorstCase);
  const auto nominal = model.study().run();

  std::printf("  %-22s T1=%6.2f T2=%6.2f  E[cost]=%.6f  worst=%.6f\n",
              "nominal-model optimum", nominal.optimization.argmin[0],
              nominal.optimization.argmin[1],
              scenarios.expected_cost().evaluate(nominal.optimal_parameters),
              scenarios.worst_case_cost().evaluate(
                  nominal.optimal_parameters));
  std::printf("  %-22s T1=%6.2f T2=%6.2f  E[cost]=%.6f  worst=%.6f\n",
              "expected-value robust", expected.optimization.argmin[0],
              expected.optimization.argmin[1], expected.expected_cost,
              expected.worst_case_cost);
  std::printf("  %-22s T1=%6.2f T2=%6.2f  E[cost]=%.6f  worst=%.6f\n",
              "worst-case robust", minimax.optimization.argmin[0],
              minimax.optimization.argmin[1], minimax.expected_cost,
              minimax.worst_case_cost);
  std::printf("\n  max regret: nominal %.3e, robust %.3e\n",
              robust.max_regret(nominal.optimal_parameters),
              robust.max_regret(expected.optimal_parameters));
  return 0;
}
