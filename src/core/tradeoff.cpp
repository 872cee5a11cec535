#include "safeopt/core/tradeoff.h"

#include <cmath>
#include <string>

#include "safeopt/core/study.h"
#include "safeopt/support/contracts.h"

namespace safeopt::core {

std::vector<TradeoffPoint> tradeoff_curve(
    const CostModel& model, const ParameterSpace& space,
    std::string_view hazard_a, std::string_view hazard_b, double ratio_lo,
    double ratio_hi, std::size_t steps, std::string_view solver,
    const opt::SolverConfig& config) {
  SAFEOPT_EXPECTS(ratio_lo > 0.0 && ratio_lo < ratio_hi);
  SAFEOPT_EXPECTS(steps >= 2);
  const Hazard& a = model.hazard_by_name(hazard_a);
  const Hazard& b = model.hazard_by_name(hazard_b);

  std::vector<TradeoffPoint> curve;
  curve.reserve(steps);
  const double log_lo = std::log(ratio_lo);
  const double log_hi = std::log(ratio_hi);
  for (std::size_t k = 0; k < steps; ++k) {
    const double t = static_cast<double>(k) / static_cast<double>(steps - 1);
    const double ratio = std::exp(log_lo + t * (log_hi - log_lo));

    CostModel weighted;
    weighted.add_hazard(Hazard{a.name, a.probability, ratio});
    weighted.add_hazard(Hazard{b.name, b.probability, 1.0});
    Study study(std::move(weighted), space);
    const SafetyOptimizationResult result =
        study.solver(std::string(solver), config).run();

    TradeoffPoint point;
    point.cost_ratio = ratio;
    point.parameters = result.optimization.argmin;
    point.probability_a = result.hazard_probabilities[0];
    point.probability_b = result.hazard_probabilities[1];
    curve.push_back(std::move(point));
  }
  return curve;
}

}  // namespace safeopt::core
