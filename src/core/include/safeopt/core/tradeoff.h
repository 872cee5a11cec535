// Risk trade-off curves. The paper (§IV-B.1): "It is clear that it is not
// possible to minimize both risks at the same time." The trade-off curve
// makes that opposition quantitative: sweeping the cost ratio between two
// hazards and re-optimizing traces the achievable (P(H_a), P(H_b)) frontier,
// showing what any choice of weights can and cannot buy.
#ifndef SAFEOPT_CORE_TRADEOFF_H
#define SAFEOPT_CORE_TRADEOFF_H

#include <string_view>
#include <vector>

#include "safeopt/core/cost_model.h"
#include "safeopt/core/parameter_space.h"
#include "safeopt/opt/solver.h"

namespace safeopt::core {

/// One point of the frontier: the cost ratio used, the optimal
/// configuration found, and both hazard probabilities there.
struct TradeoffPoint {
  double cost_ratio = 1.0;  // Cost_{H_a} / Cost_{H_b}
  std::vector<double> parameters;
  double probability_a = 0.0;
  double probability_b = 0.0;
};

/// Sweeps Cost_{H_a}/Cost_{H_b} over `steps` logarithmically spaced ratios
/// in [ratio_lo, ratio_hi] and optimizes each weighted model with the named
/// registry solver (default: Nelder–Mead). Preconditions: both hazards
/// exist in `model`, 0 < ratio_lo < ratio_hi, steps >= 2.
[[nodiscard]] std::vector<TradeoffPoint> tradeoff_curve(
    const CostModel& model, const ParameterSpace& space,
    std::string_view hazard_a, std::string_view hazard_b, double ratio_lo,
    double ratio_hi, std::size_t steps,
    std::string_view solver = "nelder_mead",
    const opt::SolverConfig& config = {});

}  // namespace safeopt::core

#endif  // SAFEOPT_CORE_TRADEOFF_H
