// Compiled leaf-probability tapes of a parameterized fault tree — the only
// tapes a quantification engine needs: one expr::CompiledExpr per basic
// event and per condition, evaluated at a parameter point into the numeric
// fta::QuantificationInput every engine consumes.
//
// Immutable after construction; input_at() is const and thread-safe.
// Values are bitwise-identical to ParameterizedQuantification::evaluate at
// the same configuration (the CompiledExpr contract).
#ifndef SAFEOPT_CORE_LEAF_TAPES_H
#define SAFEOPT_CORE_LEAF_TAPES_H

#include <span>
#include <string>
#include <vector>

#include "safeopt/core/parameterized_fta.h"
#include "safeopt/expr/compiled.h"
#include "safeopt/fta/probability.h"

namespace safeopt::core {

class LeafTapes {
 public:
  /// Compiles every leaf/condition expression over `parameter_order`, which
  /// must contain every parameter any of them mentions (extra names are
  /// allowed and ignored, matching CompiledExpr::compile).
  LeafTapes(const ParameterizedQuantification& quantification,
            std::vector<std::string> parameter_order);

  /// Compiles over default_parameter_order(quantification).
  explicit LeafTapes(const ParameterizedQuantification& quantification);

  /// The alphabetical union of every leaf/condition expression's
  /// parameters.
  [[nodiscard]] static std::vector<std::string> default_parameter_order(
      const ParameterizedQuantification& quantification);

  [[nodiscard]] const std::vector<std::string>& parameter_order()
      const noexcept {
    return parameter_order_;
  }

  /// Evaluates every leaf tape at `parameters` (one value per
  /// parameter_order() slot), clamped to [0, 1]. Throws safeopt::Error
  /// (kInvalidInput) naming the leaf when a tape yields NaN.
  [[nodiscard]] fta::QuantificationInput input_at(
      std::span<const double> parameters) const;

  /// Name-based convenience; every slot must be bound in `at`.
  [[nodiscard]] fta::QuantificationInput input_at(
      const expr::ParameterAssignment& at) const;

 private:
  struct Leaf {
    std::string name;
    expr::CompiledExpr tape;

    /// The tape's value clamped to [0, 1]; throws on NaN.
    [[nodiscard]] double probability(
        std::span<const double> parameters) const;
  };

  std::vector<std::string> parameter_order_;
  std::vector<Leaf> events_;      // by BasicEventOrdinal
  std::vector<Leaf> conditions_;  // by ConditionOrdinal
};

}  // namespace safeopt::core

#endif  // SAFEOPT_CORE_LEAF_TAPES_H
