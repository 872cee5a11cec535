#include "safeopt/core/robust_optimizer.h"

#include <algorithm>
#include <string>

#include "safeopt/core/study.h"
#include "safeopt/support/contracts.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::core {

ScenarioSet::ScenarioSet(std::size_t count,
                         const std::function<expr::Expr(Rng&)>& generator,
                         std::uint64_t seed) {
  SAFEOPT_EXPECTS(count >= 2);
  SAFEOPT_EXPECTS(static_cast<bool>(generator));
  Rng rng(seed);
  scenarios_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    scenarios_.push_back(generator(rng));
  }
}

ScenarioSet::ScenarioSet(std::vector<expr::Expr> scenarios)
    : scenarios_(std::move(scenarios)) {
  SAFEOPT_EXPECTS(!scenarios_.empty());
}

const expr::Expr& ScenarioSet::operator[](std::size_t i) const {
  SAFEOPT_EXPECTS(i < scenarios_.size());
  return scenarios_[i];
}

expr::Expr ScenarioSet::expected_cost() const {
  expr::Expr sum = expr::constant(0.0);
  for (const expr::Expr& scenario : scenarios_) sum = sum + scenario;
  return sum / static_cast<double>(scenarios_.size());
}

expr::Expr ScenarioSet::worst_case_cost() const {
  expr::Expr worst = scenarios_.front();
  for (std::size_t i = 1; i < scenarios_.size(); ++i) {
    worst = expr::max(worst, scenarios_[i]);
  }
  return worst;
}

RobustSafetyOptimizer::RobustSafetyOptimizer(ScenarioSet scenarios,
                                             ParameterSpace space)
    : scenarios_(std::move(scenarios)), space_(std::move(space)) {
  SAFEOPT_EXPECTS(space_.size() >= 1);
  for (const std::string& name :
       scenarios_.expected_cost().parameters()) {
    SAFEOPT_EXPECTS(space_.index_of(name).has_value());
  }
}

RobustOptimizationResult RobustSafetyOptimizer::optimize(
    RobustCriterion criterion, std::string_view solver,
    const opt::SolverConfig& config) const {
  // Reuse the deterministic machinery: wrap the scenario objective as a
  // single-hazard cost model (cost weight 1).
  CostModel model;
  model.add_hazard({"robust_objective",
                    criterion == RobustCriterion::kExpectedValue
                        ? scenarios_.expected_cost()
                        : scenarios_.worst_case_cost(),
                    1.0});
  Study inner(std::move(model), space_);
  const SafetyOptimizationResult inner_result =
      inner.solver(std::string(solver), config).run();

  RobustOptimizationResult result;
  result.optimization = inner_result.optimization;
  result.optimal_parameters = inner_result.optimal_parameters;
  result.scenario_costs.reserve(scenarios_.size());
  double sum = 0.0;
  double worst = 0.0;
  // One-point-per-scenario reporting stays on the tree walk: the inner
  // solve above runs on the compiled lane-batched objective, but compiling
  // a tape to evaluate it exactly once costs more than it saves.
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    const double cost = scenarios_[i].evaluate(result.optimal_parameters);
    result.scenario_costs.push_back(cost);
    sum += cost;
    worst = std::max(worst, cost);
  }
  result.expected_cost = sum / static_cast<double>(scenarios_.size());
  result.worst_case_cost = worst;
  return result;
}

double RobustSafetyOptimizer::max_regret(
    const expr::ParameterAssignment& configuration, std::string_view solver,
    const opt::SolverConfig& config) const {
  // Each scenario's own optimum is an independent solve; fan them out over
  // the shared pool and reduce afterwards (max is order-independent, so the
  // result does not depend on the thread count). The dominant work — every
  // inner solve — runs on its problem()'s compiled lane-batched objective;
  // the single cost lookup at `configuration` stays on the tree walk
  // (compiling for one evaluation costs more than it saves).
  std::vector<double> regrets(scenarios_.size(), 0.0);
  ThreadPool::shared().parallel_for(
      scenarios_.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          CostModel model;
          model.add_hazard({"scenario", scenarios_[i], 1.0});
          Study solo(std::move(model), space_);
          const double scenario_best =
              solo.solver(std::string(solver), config).run().cost;
          const double here = scenarios_[i].evaluate(configuration);
          regrets[i] = here - scenario_best;
        }
      });
  double regret = 0.0;
  for (const double r : regrets) regret = std::max(regret, r);
  return regret;
}

}  // namespace safeopt::core
