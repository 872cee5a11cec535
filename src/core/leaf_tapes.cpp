#include "safeopt/core/leaf_tapes.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "safeopt/support/error.h"
#include "safeopt/support/strings.h"

namespace safeopt::core {

std::vector<std::string> LeafTapes::default_parameter_order(
    const ParameterizedQuantification& quantification) {
  std::set<std::string> names;
  const fta::FaultTree& tree = quantification.tree();
  for (std::size_t e = 0; e < tree.basic_event_count(); ++e) {
    const std::set<std::string> mentioned =
        quantification.event_probability(static_cast<fta::BasicEventOrdinal>(e))
            .parameters();
    names.insert(mentioned.begin(), mentioned.end());
  }
  for (std::size_t c = 0; c < tree.condition_count(); ++c) {
    const std::set<std::string> mentioned =
        quantification
            .condition_probability(static_cast<fta::ConditionOrdinal>(c))
            .parameters();
    names.insert(mentioned.begin(), mentioned.end());
  }
  return {names.begin(), names.end()};
}

LeafTapes::LeafTapes(const ParameterizedQuantification& quantification,
                     std::vector<std::string> parameter_order)
    : parameter_order_(std::move(parameter_order)) {
  const fta::FaultTree& tree = quantification.tree();
  events_.reserve(tree.basic_event_count());
  for (std::size_t e = 0; e < tree.basic_event_count(); ++e) {
    events_.push_back(
        {tree.node_name(tree.basic_events()[e]),
         expr::CompiledExpr::compile(
             quantification.event_probability(
                 static_cast<fta::BasicEventOrdinal>(e)),
             parameter_order_)});
  }
  conditions_.reserve(tree.condition_count());
  for (std::size_t c = 0; c < tree.condition_count(); ++c) {
    conditions_.push_back(
        {tree.node_name(tree.conditions()[c]),
         expr::CompiledExpr::compile(
             quantification.condition_probability(
                 static_cast<fta::ConditionOrdinal>(c)),
             parameter_order_)});
  }
}

LeafTapes::LeafTapes(const ParameterizedQuantification& quantification)
    : LeafTapes(quantification, default_parameter_order(quantification)) {}

double LeafTapes::Leaf::probability(
    std::span<const double> parameters) const {
  const double p = tape.evaluate(parameters);
  // std::clamp maps ±inf into [0, 1] but passes NaN (e.g. from inf − inf)
  // straight through to the engines, whose preconditions reject it.
  if (std::isnan(p)) {
    throw Error(ErrorCategory::kInvalidInput,
                concat("the probability of leaf \"", name,
                       "\" is not a number at this parameter point"));
  }
  return std::clamp(p, 0.0, 1.0);
}

fta::QuantificationInput LeafTapes::input_at(
    std::span<const double> parameters) const {
  fta::QuantificationInput input;
  input.basic_event_probability.reserve(events_.size());
  for (const Leaf& leaf : events_) {
    input.basic_event_probability.push_back(leaf.probability(parameters));
  }
  input.condition_probability.reserve(conditions_.size());
  for (const Leaf& leaf : conditions_) {
    input.condition_probability.push_back(leaf.probability(parameters));
  }
  return input;
}

fta::QuantificationInput LeafTapes::input_at(
    const expr::ParameterAssignment& at) const {
  std::vector<double> parameters(parameter_order_.size());
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    parameters[i] = at.get(parameter_order_[i]);
  }
  return input_at(parameters);
}

}  // namespace safeopt::core
