// Robust safety optimization — the paper's §V research direction made
// concrete: "An interesting connection is to reduce the whole optimization
// problem to a problem of stochastic programming, which is a branch of
// mathematical optimization that deals with probability distributions."
//
// Model constants (constraint probabilities, rates, costs) are rarely known
// exactly. A ScenarioSet holds sampled "worlds" — one cost expression per
// draw of the uncertain constants — and the robust optimizer minimizes
// either the *expected* cost across scenarios (two-stage stochastic program
// with here-and-now parameters) or the *worst-case* cost (minimax), both
// over the same compact parameter box.
#ifndef SAFEOPT_CORE_ROBUST_OPTIMIZER_H
#define SAFEOPT_CORE_ROBUST_OPTIMIZER_H

#include <functional>
#include <string_view>
#include <vector>

#include "safeopt/core/parameter_space.h"
#include "safeopt/expr/expr.h"
#include "safeopt/opt/solver.h"
#include "safeopt/support/rng.h"

namespace safeopt::core {

/// A set of equally likely model scenarios (cost expressions over the same
/// free parameters).
class ScenarioSet {
 public:
  /// Builds `count` scenarios by calling `generator` with a scenario RNG;
  /// the generator returns that world's cost expression. Deterministic for
  /// a fixed seed. Precondition: count >= 2.
  ScenarioSet(std::size_t count,
              const std::function<expr::Expr(Rng&)>& generator,
              std::uint64_t seed = 0x5ce9a);

  /// Wraps explicit scenario expressions. Precondition: non-empty.
  explicit ScenarioSet(std::vector<expr::Expr> scenarios);

  [[nodiscard]] std::size_t size() const noexcept {
    return scenarios_.size();
  }
  [[nodiscard]] const expr::Expr& operator[](std::size_t i) const;

  /// The expected-cost expression (1/N)·Σ scenarios — the stochastic-program
  /// objective. Still a symbolic expression: exact gradients remain
  /// available.
  [[nodiscard]] expr::Expr expected_cost() const;

  /// max over scenarios (folded with expr::max) — the minimax objective.
  [[nodiscard]] expr::Expr worst_case_cost() const;

 private:
  std::vector<expr::Expr> scenarios_;
};

enum class RobustCriterion {
  kExpectedValue,  // minimize E[cost]
  kWorstCase,      // minimize max cost
};

/// Result of a robust optimization: the chosen configuration plus the
/// per-scenario costs there (for regret/spread reporting).
struct RobustOptimizationResult {
  opt::OptimizationResult optimization;
  expr::ParameterAssignment optimal_parameters;
  std::vector<double> scenario_costs;
  double expected_cost = 0.0;
  double worst_case_cost = 0.0;
};

class RobustSafetyOptimizer {
 public:
  RobustSafetyOptimizer(ScenarioSet scenarios, ParameterSpace space);

  /// Minimizes the chosen criterion with any registered solver — the robust
  /// loop is a registry consumer, so every solver (and every future
  /// registration) can drive it.
  [[nodiscard]] RobustOptimizationResult optimize(
      RobustCriterion criterion = RobustCriterion::kExpectedValue,
      std::string_view solver = "multi_start",
      const opt::SolverConfig& config = {}) const;

  /// The price of robustness at a configuration chosen for some other
  /// criterion: max over scenarios of (cost − that scenario's own optimal
  /// cost), the standard regret measure. The named registry solver drives
  /// the per-scenario optimizations.
  [[nodiscard]] double max_regret(
      const expr::ParameterAssignment& configuration,
      std::string_view solver = "nelder_mead",
      const opt::SolverConfig& config = {}) const;

  [[nodiscard]] const ScenarioSet& scenarios() const noexcept {
    return scenarios_;
  }

 private:
  ScenarioSet scenarios_;
  ParameterSpace space_;
};

}  // namespace safeopt::core

#endif  // SAFEOPT_CORE_ROBUST_OPTIMIZER_H
