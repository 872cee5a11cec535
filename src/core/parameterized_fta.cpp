#include "safeopt/core/parameterized_fta.h"

#include <algorithm>

#include "safeopt/support/contracts.h"

namespace safeopt::core {

ParameterizedQuantification::ParameterizedQuantification(
    const fta::FaultTree& tree)
    : tree_(tree),
      event_exprs_(tree.basic_event_count(), expr::constant(0.0)),
      condition_exprs_(tree.condition_count(), expr::constant(1.0)) {}

void ParameterizedQuantification::set_event_probability(
    std::string_view name, expr::Expr probability) {
  const auto id = tree_.find(name);
  SAFEOPT_EXPECTS(id.has_value());
  SAFEOPT_EXPECTS(tree_.kind(*id) == fta::NodeKind::kBasicEvent);
  event_exprs_[tree_.basic_event_ordinal(*id)] = std::move(probability);
}

void ParameterizedQuantification::set_condition_probability(
    std::string_view name, expr::Expr probability) {
  const auto id = tree_.find(name);
  SAFEOPT_EXPECTS(id.has_value());
  SAFEOPT_EXPECTS(tree_.kind(*id) == fta::NodeKind::kCondition);
  condition_exprs_[tree_.condition_ordinal(*id)] = std::move(probability);
}

const expr::Expr& ParameterizedQuantification::event_probability(
    fta::BasicEventOrdinal ordinal) const {
  SAFEOPT_EXPECTS(ordinal < event_exprs_.size());
  return event_exprs_[ordinal];
}

const expr::Expr& ParameterizedQuantification::condition_probability(
    fta::ConditionOrdinal ordinal) const {
  SAFEOPT_EXPECTS(ordinal < condition_exprs_.size());
  return condition_exprs_[ordinal];
}

expr::Expr ParameterizedQuantification::cut_set_expression(
    const fta::CutSet& cut_set) const {
  expr::Expr product = expr::constant(1.0);
  for (const fta::ConditionOrdinal c : cut_set.conditions) {
    SAFEOPT_EXPECTS(c < condition_exprs_.size());
    product = product * condition_exprs_[c];
  }
  for (const fta::BasicEventOrdinal e : cut_set.events) {
    SAFEOPT_EXPECTS(e < event_exprs_.size());
    product = product * event_exprs_[e];
  }
  return product;
}

expr::Expr ParameterizedQuantification::hazard_expression(
    const fta::CutSetCollection& mcs, HazardFormula formula) const {
  switch (formula) {
    case HazardFormula::kRareEvent: {
      expr::Expr sum = expr::constant(0.0);
      for (const fta::CutSet& cs : mcs) {
        sum = sum + cut_set_expression(cs);
      }
      // A sum of cut-set products can exceed 1 for large probabilities; the
      // clamp keeps downstream cost models within probability semantics.
      return expr::clamp(sum, 0.0, 1.0);
    }
    case HazardFormula::kMinCutUpperBound: {
      expr::Expr survive = expr::constant(1.0);
      for (const fta::CutSet& cs : mcs) {
        survive = survive * (1.0 - cut_set_expression(cs));
      }
      return expr::clamp(1.0 - survive, 0.0, 1.0);
    }
  }
  SAFEOPT_ASSERT(false);
  return expr::constant(0.0);
}

expr::Expr ParameterizedQuantification::hazard_expression(
    HazardFormula formula, const ExecutionControl* control) const {
  return hazard_expression(fta::minimal_cut_sets(tree_, control), formula);
}

expr::Expr ParameterizedQuantification::birnbaum_expression(
    const fta::CutSetCollection& mcs, fta::BasicEventOrdinal event,
    HazardFormula formula) const {
  SAFEOPT_EXPECTS(event < event_exprs_.size());
  // Substitute P(e) := 1 and P(e) := 0 into the hazard assembly. Rebuilding
  // the expression with a patched copy keeps the construction simple and
  // exactly mirrors the numeric definition.
  ParameterizedQuantification certain = *this;
  certain.event_exprs_[event] = expr::constant(1.0);
  ParameterizedQuantification impossible = *this;
  impossible.event_exprs_[event] = expr::constant(0.0);
  return certain.hazard_expression(mcs, formula) -
         impossible.hazard_expression(mcs, formula);
}

fta::QuantificationInput ParameterizedQuantification::evaluate(
    const expr::ParameterAssignment& at) const {
  fta::QuantificationInput input;
  input.basic_event_probability.reserve(event_exprs_.size());
  for (const expr::Expr& e : event_exprs_) {
    input.basic_event_probability.push_back(
        std::clamp(e.evaluate(at), 0.0, 1.0));
  }
  input.condition_probability.reserve(condition_exprs_.size());
  for (const expr::Expr& e : condition_exprs_) {
    input.condition_probability.push_back(
        std::clamp(e.evaluate(at), 0.0, 1.0));
  }
  return input;
}

}  // namespace safeopt::core
