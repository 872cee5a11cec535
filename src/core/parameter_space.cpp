#include "safeopt/core/parameter_space.h"

#include <cmath>
#include <stdexcept>

#include "safeopt/support/contracts.h"
#include "safeopt/support/strings.h"

namespace safeopt::core {

ParameterSpace::ParameterSpace(std::initializer_list<Parameter> parameters) {
  for (const Parameter& p : parameters) add(p);
}

void ParameterSpace::add(Parameter parameter) {
  SAFEOPT_EXPECTS(!parameter.name.empty());
  SAFEOPT_EXPECTS(parameter.lower <= parameter.upper);
  SAFEOPT_EXPECTS(!index_of(parameter.name).has_value());
  parameters_.push_back(std::move(parameter));
}

const Parameter& ParameterSpace::operator[](std::size_t i) const {
  SAFEOPT_EXPECTS(i < parameters_.size());
  return parameters_[i];
}

std::optional<std::size_t> ParameterSpace::index_of(
    std::string_view name) const noexcept {
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    if (parameters_[i].name == name) return i;
  }
  return std::nullopt;
}

std::vector<std::string> ParameterSpace::names() const {
  std::vector<std::string> out;
  out.reserve(parameters_.size());
  for (const Parameter& p : parameters_) out.push_back(p.name);
  return out;
}

opt::Box ParameterSpace::box() const {
  SAFEOPT_EXPECTS(!parameters_.empty());
  std::vector<double> lo;
  std::vector<double> hi;
  lo.reserve(parameters_.size());
  hi.reserve(parameters_.size());
  for (const Parameter& p : parameters_) {
    lo.push_back(p.lower);
    hi.push_back(p.upper);
  }
  return opt::Box(std::move(lo), std::move(hi));
}

expr::ParameterAssignment ParameterSpace::assignment(
    std::span<const double> values) const {
  SAFEOPT_EXPECTS(values.size() == parameters_.size());
  expr::ParameterAssignment assignment;
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    assignment.set(parameters_[i].name, values[i]);
  }
  return assignment;
}

std::vector<double> ParameterSpace::values(
    const expr::ParameterAssignment& assignment) const {
  std::vector<double> out;
  out.reserve(parameters_.size());
  for (const Parameter& p : parameters_) out.push_back(assignment.get(p.name));
  return out;
}

expr::ParameterAssignment ParameterSpace::evaluation_point(
    std::span<const std::pair<std::string, double>> overrides) const {
  expr::ParameterAssignment at;
  for (const Parameter& p : parameters_) {
    at.set(p.name, 0.5 * (p.lower + p.upper));
  }
  for (const auto& [name, value] : overrides) {
    if (!index_of(name).has_value()) {
      throw std::invalid_argument(
          concat("evaluation point names unknown parameter \"", name,
                 "\" (declared: ", join(names(), ", "), ")"));
    }
    if (!std::isfinite(value)) {
      throw std::invalid_argument(
          concat("evaluation point sets parameter \"", name,
                 "\" to a non-finite value"));
    }
    at.set(name, value);
  }
  return at;
}

}  // namespace safeopt::core
