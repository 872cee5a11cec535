// The full §IV case study as a library: hazards HCol (collision) and HAlr
// (false alarm) of the Elbtunnel height control, parameterized by the timer
// runtimes T1 and T2.
//
// The model is exposed through two independent derivations that the test
// suite proves consistent:
//   1. *closed form* — the exact formulas of §IV-B.3/§IV-C, built directly
//      as expressions;
//   2. *fault-tree path* — FaultTree objects for both hazards with
//      parameterized leaf/condition probabilities, run through MOCUS and the
//      core::ParameterizedQuantification machinery (Eqs. 2–4).
// Their agreement validates the library pipeline end to end on the paper's
// own system.
//
// Design variants for the Fig. 6 study and the flaw fixes:
//   kBaseline            deployed design (ODfinal armed for T2 after LBpost)
//   kWithLB4             light barrier at the tube-4 entrance stops timer 2
//   kLightBarrierAtODfinal  ODfinal consulted only during barrier occupancy
#ifndef SAFEOPT_ELBTUNNEL_ELBTUNNEL_MODEL_H
#define SAFEOPT_ELBTUNNEL_ELBTUNNEL_MODEL_H

#include "safeopt/core/cost_model.h"
#include "safeopt/core/parameter_space.h"
#include "safeopt/core/parameterized_fta.h"
#include "safeopt/core/study.h"
#include "safeopt/elbtunnel/model_parameters.h"
#include "safeopt/expr/expr.h"
#include "safeopt/fta/fault_tree.h"
#include "safeopt/sim/traffic.h"

namespace safeopt::elbtunnel {

/// Height-control design variants (paper §IV-C.2 and its fixes).
enum class Design {
  kBaseline,
  kWithLB4,
  kLightBarrierAtODfinal,
};

class ElbtunnelModel {
 public:
  explicit ElbtunnelModel(ModelParameters parameters = {});

  [[nodiscard]] const ModelParameters& parameters() const noexcept {
    return params_;
  }

  /// The free parameters: T1, T2 in minutes over compact intervals.
  [[nodiscard]] core::ParameterSpace parameter_space() const;

  /// The engineers' initial configuration (T1 = T2 = 30 min).
  [[nodiscard]] expr::ParameterAssignment engineers_guess() const;

  // ---- building blocks (paper §IV-C) --------------------------------------

  /// P(OT1)(T1) = 1 − P_OHV1(Time <= T1), transit ~ TruncNormal(4, 2).
  [[nodiscard]] expr::Expr p_overtime1() const;
  /// P(OT2)(T2), same distribution over zone 2.
  [[nodiscard]] expr::Expr p_overtime2() const;
  /// P(FDLBpost)(T1) = 1 − exp(−λ_FD·T1): a spurious LBpost trigger during
  /// the T1 arming window.
  [[nodiscard]] expr::Expr p_fd_lbpost() const;
  /// P(HVODfinal)(T2) for a design variant: probability a high vehicle
  /// passes under ODfinal while it is armed.
  [[nodiscard]] expr::Expr p_hv_odfinal(Design design) const;

  // ---- hazards, closed form (paper §IV-B.3) --------------------------------

  /// P(HCol)(T1,T2) = Pconst1 + P(OHVcrit)·(P(OT1) + (1−P(OT1))·P(OT2)).
  [[nodiscard]] expr::Expr collision_probability() const;
  /// P(HAlr)(T1,T2) = Pconst2 + (P(OHV) + (1−P(OHV))·P(FDLBpre)·
  ///                  P(FDLBpost)(T1)) · P(HVODfinal)(T2).
  [[nodiscard]] expr::Expr false_alarm_probability(
      Design design = Design::kBaseline) const;

  /// P(false alarm | an OHV is present)(T2) — the Fig. 6 quantity: the
  /// constraint P(OHV) is forced to 1 ("assuming that an OHV is in the
  /// controlled area").
  [[nodiscard]] expr::Expr false_alarm_given_ohv(Design design) const;

  // ---- cost model and study (paper §IV-C.1) --------------------------------

  /// f_cost(T1,T2) = 100000·P(HCol) + 1·P(HAlr).
  [[nodiscard]] core::CostModel cost_model() const;
  /// The cost model over the timer box, ready to run (multi_start by
  /// default).
  [[nodiscard]] core::Study study() const;

  // ---- fault-tree derivation (paper §IV-B.2) -------------------------------

  /// The HCol tree: OR(residual, INHIBIT(OT1 | OHVcritical),
  /// INHIBIT(OT2 | OHVcritical)).
  [[nodiscard]] fta::FaultTree collision_tree() const;
  /// The HAlr tree: OR(residual, INHIBIT(HVODfinal | ODfinal_armed)).
  [[nodiscard]] fta::FaultTree false_alarm_tree() const;

  /// Parameterized leaf probabilities for collision_tree(). The returned
  /// object references `tree`; keep the tree alive.
  [[nodiscard]] core::ParameterizedQuantification collision_quantification(
      const fta::FaultTree& tree) const;
  [[nodiscard]] core::ParameterizedQuantification false_alarm_quantification(
      const fta::FaultTree& tree) const;

  // ---- simulation bridge ---------------------------------------------------

  /// Traffic-simulator configuration consistent with the analytic model at
  /// the given timer runtimes.
  [[nodiscard]] sim::TrafficConfig traffic_config(double t1_min, double t2_min,
                                                  Design design) const;

 private:
  [[nodiscard]] expr::Expr transit_survival(const char* parameter) const;

  ModelParameters params_;
};

/// Maps the model's design enum onto the simulator's.
[[nodiscard]] sim::DesignVariant to_sim_variant(Design design) noexcept;

}  // namespace safeopt::elbtunnel

#endif  // SAFEOPT_ELBTUNNEL_ELBTUNNEL_MODEL_H
