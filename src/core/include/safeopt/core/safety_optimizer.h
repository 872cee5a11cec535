// Safety optimization (paper §III): "choose the free parameters X_1..X_l
// such that the cost function is minimized". Glues the symbolic cost model
// to the numeric solvers of src/opt through the compiled cost tape.
//
// Solvers are selected by registry name (opt::SolverRegistry), and each
// solver's defaults live in its own implementation — prefer the fluent
// core::Study front door (study.h) for new code.
#ifndef SAFEOPT_CORE_SAFETY_OPTIMIZER_H
#define SAFEOPT_CORE_SAFETY_OPTIMIZER_H

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "safeopt/core/cost_model.h"
#include "safeopt/core/parameter_space.h"
#include "safeopt/opt/problem.h"
#include "safeopt/opt/solver.h"

namespace safeopt::core {

/// Result of a safety optimization run: the solver outcome plus the
/// safety-level interpretation (per-hazard probabilities at the optimum).
struct SafetyOptimizationResult {
  opt::OptimizationResult optimization;
  expr::ParameterAssignment optimal_parameters;
  std::vector<double> hazard_probabilities;  // hazard order of the CostModel
  double cost = 0.0;                         // == optimization.value
};

/// Per-hazard baseline-vs-optimum comparison; `relative_change` is
/// (optimal − baseline) / baseline (e.g. −0.10 == 10% risk reduction).
struct HazardComparison {
  std::string hazard;
  double baseline_probability = 0.0;
  double optimal_probability = 0.0;
  double relative_change = 0.0;
};

struct ComparisonReport {
  double baseline_cost = 0.0;
  double optimal_cost = 0.0;
  double cost_relative_change = 0.0;
  std::vector<HazardComparison> hazards;
};

/// The classic optimization entry point. New code should prefer core::Study,
/// which wraps this machinery behind a fluent builder and adds engine-backed
/// quantification; SafetyOptimizer remains the shared implementation.
/// Immutable once constructed (the cost tape is compiled eagerly), so the
/// const members — optimize, evaluate_at, compare, problem — are
/// thread-safe.
class SafetyOptimizer {
 public:
  /// The cost model's expressions may only mention parameters of `space`.
  SafetyOptimizer(CostModel model, ParameterSpace space);

  /// Minimizes f_cost over the parameter box with the named registry solver
  /// (default: multi-start Nelder–Mead). Throws std::invalid_argument for
  /// unknown names or solver/problem mismatches (e.g. golden_section on a
  /// multi-dimensional box).
  [[nodiscard]] SafetyOptimizationResult optimize(
      std::string_view solver = "multi_start",
      const opt::SolverConfig& config = {}) const;

  /// Evaluates cost and hazard probabilities at a given configuration
  /// (e.g. the engineers' initial guess).
  [[nodiscard]] SafetyOptimizationResult evaluate_at(
      const expr::ParameterAssignment& configuration) const;

  /// Compares a baseline configuration against an optimization result —
  /// the paper's §IV-C.2 reporting (risk improvement per hazard).
  [[nodiscard]] ComparisonReport compare(
      const expr::ParameterAssignment& baseline,
      const SafetyOptimizationResult& optimal) const;

  /// The underlying numeric problem (objective + batch path + box);
  /// exposed for benches and custom solvers. Compiled once, by the
  /// constructor — every optimize()/run() call reuses the same tape — and
  /// shared by copies. The reference is valid while this optimizer (or a
  /// copy) is alive; take a copy of the Problem (cheap, it shares the tape)
  /// to outlive it. On temporaries
  /// (model.optimizer().problem()) the rvalue overload hands out that copy
  /// directly, so the reference-binding pattern cannot dangle.
  [[nodiscard]] const opt::Problem& problem() const&;
  [[nodiscard]] opt::Problem problem() const&&;

  [[nodiscard]] const CostModel& model() const noexcept { return model_; }
  [[nodiscard]] const ParameterSpace& space() const noexcept { return space_; }

 private:
  CostModel model_;
  ParameterSpace space_;
  std::shared_ptr<const opt::Problem> problem_;  // shared by copies
};

}  // namespace safeopt::core

#endif  // SAFEOPT_CORE_SAFETY_OPTIMIZER_H
