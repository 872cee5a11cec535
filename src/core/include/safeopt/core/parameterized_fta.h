// Parameterized quantitative FTA — the bridge between the fault-tree layer
// and the expression layer, implementing the paper's generalizations:
//
//   §II-D.1 constraint probabilities: INHIBIT conditions carry their own
//           probability expressions, multiplied into each cut set (Eq. 2);
//   §II-D.2 parameterized probabilities: every leaf probability may be an
//           expression over the system's free parameters, so hazard
//           probabilities become functions P(H)(X) (Eqs. 3–4).
//
// The symbolic construction matters: hazard probabilities are *expressions*,
// so the cost model can be assembled and differentiated exactly (autodiff)
// before any number is plugged in — the same way the paper manipulates the
// formulas of §IV-B/C before optimizing.
#ifndef SAFEOPT_CORE_PARAMETERIZED_FTA_H
#define SAFEOPT_CORE_PARAMETERIZED_FTA_H

#include <string_view>
#include <vector>

#include "safeopt/expr/expr.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/fta/fault_tree.h"
#include "safeopt/fta/probability.h"

namespace safeopt::core {

/// How a hazard-probability expression is assembled from minimal cut sets.
enum class HazardFormula {
  /// Σ P(MCS) — the paper's Eq. 1/3 (rare-event approximation).
  kRareEvent,
  /// 1 − ∏(1 − P(MCS)) — min-cut upper bound; tighter for larger
  /// probabilities, identical in the limit of rare events.
  kMinCutUpperBound,
};

/// Leaf-probability expressions for one fault tree.
class ParameterizedQuantification {
 public:
  /// Every basic event starts at the constant 0, every condition at the
  /// constant 1 (classical worst-case FTA until told otherwise). The tree
  /// must outlive this object.
  explicit ParameterizedQuantification(const fta::FaultTree& tree);

  /// Sets P(PF)(X) for the named basic event.
  void set_event_probability(std::string_view name, expr::Expr probability);
  /// Sets the constraint probability for the named INHIBIT condition.
  void set_condition_probability(std::string_view name,
                                 expr::Expr probability);

  [[nodiscard]] const expr::Expr& event_probability(
      fta::BasicEventOrdinal ordinal) const;
  [[nodiscard]] const expr::Expr& condition_probability(
      fta::ConditionOrdinal ordinal) const;

  /// P(CS)(X) = ∏ conditions · ∏ events — the parameterized Eq. 2.
  [[nodiscard]] expr::Expr cut_set_expression(const fta::CutSet& cut_set) const;

  /// P(H)(X) assembled from the minimal cut sets — Eqs. 3–4.
  [[nodiscard]] expr::Expr hazard_expression(
      const fta::CutSetCollection& mcs,
      HazardFormula formula = HazardFormula::kRareEvent) const;

  /// Convenience: runs MOCUS on the tree under `control` (nullptr =
  /// unbounded; see fta::minimal_cut_sets), then hazard_expression.
  [[nodiscard]] expr::Expr hazard_expression(
      HazardFormula formula = HazardFormula::kRareEvent,
      const ExecutionControl* control = nullptr) const;

  /// Evaluates every leaf expression at `at`, producing the numeric input
  /// for the classical fta/bdd quantification engines (cross-validation).
  [[nodiscard]] fta::QuantificationInput evaluate(
      const expr::ParameterAssignment& at) const;

  /// *Parameterized* Birnbaum importance of one basic event:
  /// I_B(e)(X) = P(H | e certain)(X) − P(H | e impossible)(X), assembled
  /// symbolically from the cut sets. Where classical importance ranks
  /// failures at one configuration, this expression shows how the ranking
  /// itself moves with the free parameters (e.g. which failure dominates
  /// at short vs long timer runtimes).
  [[nodiscard]] expr::Expr birnbaum_expression(
      const fta::CutSetCollection& mcs, fta::BasicEventOrdinal event,
      HazardFormula formula = HazardFormula::kRareEvent) const;

  [[nodiscard]] const fta::FaultTree& tree() const noexcept { return tree_; }

 private:
  const fta::FaultTree& tree_;
  std::vector<expr::Expr> event_exprs_;      // by BasicEventOrdinal
  std::vector<expr::Expr> condition_exprs_;  // by ConditionOrdinal
};

}  // namespace safeopt::core

#endif  // SAFEOPT_CORE_PARAMETERIZED_FTA_H
