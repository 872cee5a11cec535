// Compiled quantification of a parameterized fault tree — the performance
// twin of ParameterizedQuantification's symbolic construction.
//
// The symbolic path assembles P(H)(X) and I_B(e)(X) as expression trees
// (Eqs. 2–4) and walks them per evaluation. Optimizers, sweeps, and robust
// loops evaluate those expressions at thousands of parameter points, so this
// facility compiles everything exactly once into expr::CompiledExpr tapes:
//
//   * the assembled hazard expression (either HazardFormula),
//   * the Birnbaum importance expression of every basic event,
//   * every leaf/condition probability expression (a LeafTapes, for
//     producing the numeric QuantificationInput the classical fta/bdd/mc
//     engines take — the seam Monte Carlo cross-validation samples
//     through).
//
// All tapes share one parameter order, so one optimizer vector serves every
// evaluation. Values are bitwise-identical to the corresponding
// Expr::evaluate tree walks (the CompiledExpr contract), and the batch
// entry points run the lane-blocked SoA kernel with its lane-count- and
// thread-count-invariance guarantees.
#ifndef SAFEOPT_CORE_COMPILED_QUANTIFICATION_H
#define SAFEOPT_CORE_COMPILED_QUANTIFICATION_H

#include <span>
#include <string>
#include <vector>

#include "safeopt/core/leaf_tapes.h"
#include "safeopt/core/parameterized_fta.h"
#include "safeopt/expr/compiled.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/fta/probability.h"

namespace safeopt {
class ThreadPool;
}

namespace safeopt::core {

class CompiledQuantification {
 public:
  /// Compiles the hazard, Birnbaum, and leaf tapes of `quantification` over
  /// `mcs`. Every parameter any leaf expression mentions must appear in
  /// `parameter_order` (extra names are allowed and ignored, matching
  /// CompiledExpr::compile).
  CompiledQuantification(const ParameterizedQuantification& quantification,
                         const fta::CutSetCollection& mcs,
                         std::vector<std::string> parameter_order,
                         HazardFormula formula = HazardFormula::kRareEvent);

  /// Convenience: runs MOCUS on the quantification's tree and orders the
  /// parameter slots alphabetically (the union of every leaf expression's
  /// parameters).
  explicit CompiledQuantification(
      const ParameterizedQuantification& quantification,
      HazardFormula formula = HazardFormula::kRareEvent);

  [[nodiscard]] const std::vector<std::string>& parameter_order()
      const noexcept {
    return leaves_.parameter_order();
  }
  [[nodiscard]] HazardFormula formula() const noexcept { return formula_; }

  // ---- hazard probability P(H)(X) -----------------------------------------

  /// One point; bitwise-identical to hazard_expression(mcs, formula)
  /// .evaluate() at the same configuration.
  [[nodiscard]] double hazard(std::span<const double> parameters) const;

  /// Lane-batched evaluation over row-major `points` (one parameter vector
  /// per output element), optionally fanned out over `pool`.
  void hazard_batch(std::span<const double> points,
                    std::span<double> out) const;
  void hazard_batch(std::span<const double> points, std::span<double> out,
                    ThreadPool& pool) const;

  /// Lane-batched values + reverse-mode gradients of P(H)(X) — one forward
  /// and one adjoint sweep per lane block (see CompiledExpr).
  void hazard_batch_with_gradients(std::span<const double> points,
                                   std::span<double> values_out,
                                   std::span<double> gradients_out) const;

  // ---- Birnbaum importance I_B(e)(X) --------------------------------------

  /// Parameterized Birnbaum importance of one basic event;
  /// bitwise-identical to birnbaum_expression(mcs, event, formula)
  /// .evaluate() at the same configuration.
  [[nodiscard]] double birnbaum(fta::BasicEventOrdinal event,
                                std::span<const double> parameters) const;

  void birnbaum_batch(fta::BasicEventOrdinal event,
                      std::span<const double> points,
                      std::span<double> out) const;

  // ---- numeric quantification input ---------------------------------------

  /// Evaluates every leaf tape at `parameters`, producing the numeric input
  /// for the classical fta/bdd/mc engines. Identical (bitwise) to
  /// ParameterizedQuantification::evaluate at the same configuration.
  [[nodiscard]] fta::QuantificationInput input_at(
      std::span<const double> parameters) const {
    return leaves_.input_at(parameters);
  }

  /// Name-based convenience; every slot must be bound in `at`.
  [[nodiscard]] fta::QuantificationInput input_at(
      const expr::ParameterAssignment& at) const {
    return leaves_.input_at(at);
  }

  // ---- tape access (benches, custom solvers) ------------------------------

  [[nodiscard]] const expr::CompiledExpr& hazard_tape() const noexcept {
    return hazard_;
  }
  [[nodiscard]] const expr::CompiledExpr& birnbaum_tape(
      fta::BasicEventOrdinal event) const;

 private:
  LeafTapes leaves_;  // owns the parameter order every tape shares
  HazardFormula formula_;
  expr::CompiledExpr hazard_;
  std::vector<expr::CompiledExpr> birnbaum_;  // by BasicEventOrdinal
};

}  // namespace safeopt::core

#endif  // SAFEOPT_CORE_COMPILED_QUANTIFICATION_H
