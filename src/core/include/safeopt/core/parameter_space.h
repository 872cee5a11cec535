// Free parameters of the analyzed system (paper §II-D.2, §III-B): each has a
// compact interval domain — "to guarantee the existence of the minimum we
// restrict the real value domains to be compact intervals" — plus reporting
// metadata. The space maps between the optimizer's flat vectors and the
// expression layer's named assignments.
#ifndef SAFEOPT_CORE_PARAMETER_SPACE_H
#define SAFEOPT_CORE_PARAMETER_SPACE_H

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "safeopt/expr/expr.h"
#include "safeopt/opt/problem.h"

namespace safeopt::core {

/// One free parameter: e.g. {"T1", 5, 40, "min", "runtime of timer 1"}.
struct Parameter {
  std::string name;
  double lower = 0.0;
  double upper = 1.0;
  std::string unit;
  std::string description;
};

class ParameterSpace {
 public:
  ParameterSpace() = default;
  ParameterSpace(std::initializer_list<Parameter> parameters);

  /// Precondition: lower <= upper, name unique and non-empty.
  void add(Parameter parameter);

  [[nodiscard]] std::size_t size() const noexcept {
    return parameters_.size();
  }
  [[nodiscard]] const Parameter& operator[](std::size_t i) const;
  [[nodiscard]] std::optional<std::size_t> index_of(
      std::string_view name) const noexcept;
  [[nodiscard]] std::vector<std::string> names() const;

  /// The optimizer's feasible box, axes in parameter order.
  [[nodiscard]] opt::Box box() const;

  /// Binds a flat optimizer vector to parameter names.
  /// Precondition: values.size() == size().
  [[nodiscard]] expr::ParameterAssignment assignment(
      std::span<const double> values) const;

  /// Extracts this space's values from an assignment, in parameter order.
  [[nodiscard]] std::vector<double> values(
      const expr::ParameterAssignment& assignment) const;

  /// The point `safeopt quantify` and POST /v1/quantify evaluate at: the box
  /// centre, with each (name, value) of `overrides` replacing one axis.
  /// Throws std::invalid_argument when a name is not a parameter of this
  /// space or a value is not finite.
  [[nodiscard]] expr::ParameterAssignment evaluation_point(
      std::span<const std::pair<std::string, double>> overrides) const;

 private:
  std::vector<Parameter> parameters_;
};

}  // namespace safeopt::core

#endif  // SAFEOPT_CORE_PARAMETER_SPACE_H
