#include "safeopt/core/safety_optimizer.h"

#include <memory>
#include <utility>

#include "safeopt/expr/compiled.h"
#include "safeopt/support/contracts.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::core {

namespace {

/// The numeric problem over `space`, with the objective on the compiled
/// tape of `cost`.
opt::Problem make_problem(const expr::Expr& cost, const ParameterSpace& space) {
  opt::Problem problem;
  problem.bounds = space.box();
  // The scalar objective runs on the compiled tape — bitwise-identical to
  // cost.evaluate() (see compiled.h) and ~3× faster, so every solver in
  // src/opt gets the compiled path without knowing it exists.
  const auto compiled = std::make_shared<const expr::CompiledExpr>(
      expr::CompiledExpr::compile(cost, space.names()));
  problem.objective = [compiled](std::span<const double> x) {
    return compiled->evaluate(x);
  };
  // Large batches (grid rounds, synchronous DE generations) fan out over
  // the shared pool; each row writes only its own output slot, so results
  // do not depend on the thread count.
  problem.batch_objective = [compiled](std::span<const double> points,
                                       std::span<double> out) {
    constexpr std::size_t kParallelThreshold = 256;
    expr::BatchRequest request{.points = points, .values = out};
    if (out.size() >= kParallelThreshold) {
      request.pool = &ThreadPool::shared();
    }
    compiled->evaluate_batch(request);
  };
  return problem;
}

}  // namespace

SafetyOptimizer::SafetyOptimizer(CostModel model, ParameterSpace space)
    : model_(std::move(model)), space_(std::move(space)) {
  SAFEOPT_EXPECTS(model_.hazard_count() >= 1);
  SAFEOPT_EXPECTS(space_.size() >= 1);
  // Every parameter the cost expression mentions must be optimizable.
  const expr::Expr cost = model_.cost_expression();
  for (const std::string& name : cost.parameters()) {
    SAFEOPT_EXPECTS(space_.index_of(name).has_value());
  }
  // Compiled here, once, and shared by copies: every optimize()/run() call
  // reuses this tape and nothing is built later.
  problem_ = std::make_shared<const opt::Problem>(make_problem(cost, space_));
}

opt::Problem SafetyOptimizer::problem() const&& { return *problem_; }

const opt::Problem& SafetyOptimizer::problem() const& { return *problem_; }

SafetyOptimizationResult SafetyOptimizer::optimize(
    std::string_view solver, const opt::SolverConfig& config) const {
  const opt::Problem& numeric = problem();

  // An uninstrumented solve runs on the shared pool (multi_start spreads its
  // starts over it): the compiled tape is thread-safe and the result does
  // not depend on the thread count. Budgeted, observed and controlled
  // solves stay sequential, because with concurrent starts which start a
  // shared budget or an abort cuts short would depend on scheduling.
  opt::SolverConfig effective = config;
  if (effective.pool == nullptr && !effective.instrumented()) {
    effective.pool = &ThreadPool::shared();
  }

  SafetyOptimizationResult result;
  result.optimization =
      opt::SolverRegistry::create(solver)->solve(numeric, effective);
  result.optimal_parameters = space_.assignment(result.optimization.argmin);
  result.hazard_probabilities =
      model_.hazard_probabilities(result.optimal_parameters);
  result.cost = result.optimization.value;
  return result;
}

SafetyOptimizationResult SafetyOptimizer::evaluate_at(
    const expr::ParameterAssignment& configuration) const {
  SafetyOptimizationResult result;
  result.optimal_parameters = configuration;
  result.hazard_probabilities = model_.hazard_probabilities(configuration);
  result.cost = model_.cost(configuration);
  result.optimization.argmin = space_.values(configuration);
  result.optimization.value = result.cost;
  result.optimization.converged = true;
  result.optimization.message = "direct evaluation";
  return result;
}

ComparisonReport SafetyOptimizer::compare(
    const expr::ParameterAssignment& baseline,
    const SafetyOptimizationResult& optimal) const {
  ComparisonReport report;
  report.baseline_cost = model_.cost(baseline);
  report.optimal_cost = optimal.cost;
  report.cost_relative_change =
      report.baseline_cost != 0.0
          ? (report.optimal_cost - report.baseline_cost) / report.baseline_cost
          : 0.0;
  const std::vector<double> base_probs =
      model_.hazard_probabilities(baseline);
  SAFEOPT_ASSERT(base_probs.size() == optimal.hazard_probabilities.size());
  for (std::size_t i = 0; i < base_probs.size(); ++i) {
    HazardComparison hc;
    hc.hazard = model_.hazard(i).name;
    hc.baseline_probability = base_probs[i];
    hc.optimal_probability = optimal.hazard_probabilities[i];
    hc.relative_change =
        hc.baseline_probability != 0.0
            ? (hc.optimal_probability - hc.baseline_probability) /
                  hc.baseline_probability
            : 0.0;
    report.hazards.push_back(std::move(hc));
  }
  return report;
}

}  // namespace safeopt::core
