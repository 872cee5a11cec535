// The paper's §III motivating example: the pre-flight check tolerance of an
// air-speed indicator. A tight tolerance rejects airworthy planes (costly
// cancellations); a loose one lets defective indicators fly (crash risk).
// Safety optimization finds the tolerance minimizing expected cost.
//
// Model (documented substitution for the unstated numbers in the paper):
//   * indicator error drifts ~ Normal(0, 4 kt); the check rejects when the
//     measured aberration exceeds the tolerance x;
//   * a genuinely defective indicator shows a bias of 12 kt on top of the
//     drift; defect incidence per flight is 1e-4;
//   * an undetected defective indicator causes an accident with
//     probability 0.02; accident cost 300 M$, cancellation cost 30 k$.
#include <cstdio>
#include <memory>

#include "safeopt/core/cost_model.h"
#include "safeopt/core/parameter_space.h"
#include "safeopt/core/study.h"
#include "safeopt/core/tradeoff.h"
#include "safeopt/stats/distribution.h"

int main() {
  using namespace safeopt;
  using expr::parameter;

  const auto drift = std::make_shared<stats::Normal>(0.0, 4.0);
  const auto defective = std::make_shared<stats::Normal>(12.0, 4.0);
  const expr::Expr tol = parameter("tolerance");

  constexpr double kDefectRate = 1e-4;
  constexpr double kAccidentGivenMissed = 0.02;

  // H1 "crash": a defective indicator passes the check (its |aberration|
  // stays below the tolerance) and the flight ends in an accident.
  const expr::Expr p_defect_passes = expr::cdf(defective, tol);
  const expr::Expr p_crash =
      kDefectRate * kAccidentGivenMissed * p_defect_passes;

  // H2 "cancellation": a healthy indicator fails the check: |drift| > x,
  // i.e. 2 · survival(x) by symmetry.
  const expr::Expr p_cancel = 2.0 * expr::survival(drift, tol);

  core::CostModel model;
  model.add_hazard({"crash", p_crash, 300e6});
  model.add_hazard({"cancellation", p_cancel, 30e3});
  core::ParameterSpace space{
      {"tolerance", 0.5, 20.0, "kt", "accepted air-speed aberration"}};

  // A single free parameter: golden-section search brackets the optimum on
  // the interval. grid_search cross-checks it below.
  core::Study study(model, space);
  const auto result = study.solver("golden_section").run();
  const auto on_grid = study.solver("grid_search").run();
  std::printf("optimal tolerance: %.2f kt (expected cost %.2f $/flight; "
              "grid_search agrees at %.2f kt)\n",
              result.optimization.argmin[0], result.cost,
              on_grid.optimization.argmin[0]);
  std::printf("  P(crash)        = %.3e per flight\n",
              result.hazard_probabilities[0]);
  std::printf("  P(cancellation) = %.3e per flight\n\n",
              result.hazard_probabilities[1]);

  // The cost landscape: zero tolerance cancels everything, open tolerance
  // crashes planes — the optimum sits in between (paper: "some middle value
  // between zero tolerance and arbitrary tolerance").
  std::printf("tolerance [kt]   cost [$/flight]\n");
  for (double x = 2.0; x <= 18.0; x += 2.0) {
    std::printf("  %5.1f          %10.2f\n", x,
                model.cost({{"tolerance", x}}));
  }

  // How the optimal tolerance moves with the crash/cancel cost ratio.
  std::printf("\ncost-ratio sweep (crash $ / cancellation $):\n");
  for (const auto& point : core::tradeoff_curve(
           model, space, "crash", "cancellation", 1e2, 1e6, 5)) {
    std::printf("  ratio %9.0f -> tolerance %5.2f kt, P(crash)=%.2e, "
                "P(cancel)=%.2e\n",
                point.cost_ratio, point.parameters[0], point.probability_a,
                point.probability_b);
  }
  return 0;
}
