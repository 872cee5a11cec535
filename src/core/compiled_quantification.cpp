#include "safeopt/core/compiled_quantification.h"

#include <utility>

#include "safeopt/support/contracts.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::core {

CompiledQuantification::CompiledQuantification(
    const ParameterizedQuantification& quantification,
    const fta::CutSetCollection& mcs,
    std::vector<std::string> parameter_order, HazardFormula formula)
    : leaves_(quantification, std::move(parameter_order)),
      formula_(formula),
      hazard_(expr::CompiledExpr::compile(
          quantification.hazard_expression(mcs, formula),
          leaves_.parameter_order())) {
  const fta::FaultTree& tree = quantification.tree();
  birnbaum_.reserve(tree.basic_event_count());
  for (std::size_t e = 0; e < tree.basic_event_count(); ++e) {
    birnbaum_.push_back(expr::CompiledExpr::compile(
        quantification.birnbaum_expression(
            mcs, static_cast<fta::BasicEventOrdinal>(e), formula),
        leaves_.parameter_order()));
  }
}

CompiledQuantification::CompiledQuantification(
    const ParameterizedQuantification& quantification, HazardFormula formula)
    : CompiledQuantification(quantification,
                             fta::minimal_cut_sets(quantification.tree()),
                             LeafTapes::default_parameter_order(quantification),
                             formula) {}

double CompiledQuantification::hazard(
    std::span<const double> parameters) const {
  return hazard_.evaluate(parameters);
}

void CompiledQuantification::hazard_batch(std::span<const double> points,
                                          std::span<double> out) const {
  hazard_.evaluate_batch({.points = points, .values = out});
}

void CompiledQuantification::hazard_batch(std::span<const double> points,
                                          std::span<double> out,
                                          ThreadPool& pool) const {
  hazard_.evaluate_batch({.points = points, .values = out, .pool = &pool});
}

void CompiledQuantification::hazard_batch_with_gradients(
    std::span<const double> points, std::span<double> values_out,
    std::span<double> gradients_out) const {
  hazard_.evaluate_batch({.points = points, .values = values_out,
                          .gradients = gradients_out});
}

double CompiledQuantification::birnbaum(
    fta::BasicEventOrdinal event, std::span<const double> parameters) const {
  return birnbaum_tape(event).evaluate(parameters);
}

void CompiledQuantification::birnbaum_batch(fta::BasicEventOrdinal event,
                                            std::span<const double> points,
                                            std::span<double> out) const {
  birnbaum_tape(event).evaluate_batch({.points = points, .values = out});
}

const expr::CompiledExpr& CompiledQuantification::birnbaum_tape(
    fta::BasicEventOrdinal event) const {
  SAFEOPT_EXPECTS(event < birnbaum_.size());
  return birnbaum_[event];
}

}  // namespace safeopt::core
