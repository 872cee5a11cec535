#include "safeopt/elbtunnel/elbtunnel_model.h"

#include <cmath>
#include <memory>

#include "safeopt/stats/distribution.h"
#include "safeopt/support/contracts.h"

namespace safeopt::elbtunnel {

using expr::constant;
using expr::Expr;
using expr::parameter;

ElbtunnelModel::ElbtunnelModel(ModelParameters parameters)
    : params_(parameters) {
  SAFEOPT_EXPECTS(params_.transit_sigma_min > 0.0);
  SAFEOPT_EXPECTS(params_.hv_left_rate_per_min > 0.0);
  SAFEOPT_EXPECTS(params_.timer_lower_min < params_.timer_upper_min);
}

core::ParameterSpace ElbtunnelModel::parameter_space() const {
  return core::ParameterSpace{
      {"T1", params_.timer_lower_min, params_.timer_upper_min, "min",
       "runtime of timer 1 (LBpost arming window)"},
      {"T2", params_.timer_lower_min, params_.timer_upper_min, "min",
       "runtime of timer 2 (ODfinal arming window)"}};
}

expr::ParameterAssignment ElbtunnelModel::engineers_guess() const {
  return {{"T1", params_.engineers_timer_guess_min},
          {"T2", params_.engineers_timer_guess_min}};
}

Expr ElbtunnelModel::transit_survival(const char* name) const {
  const auto transit = std::make_shared<stats::TruncatedNormal>(
      stats::TruncatedNormal::nonnegative(params_.transit_mean_min,
                                          params_.transit_sigma_min));
  // P(OT)(T) = 1 − P(Time <= T): paper §IV-C.
  return expr::survival(transit, parameter(name));
}

Expr ElbtunnelModel::p_overtime1() const { return transit_survival("T1"); }
Expr ElbtunnelModel::p_overtime2() const { return transit_survival("T2"); }

Expr ElbtunnelModel::p_fd_lbpost() const {
  return expr::poisson_exposure(params_.fd_lbpost_rate_per_min,
                                parameter("T1"));
}

Expr ElbtunnelModel::p_hv_odfinal(Design design) const {
  const double rate = params_.hv_left_rate_per_min;
  switch (design) {
    case Design::kBaseline:
      // ODfinal armed for the full timer runtime after an LBpost passage.
      return expr::poisson_exposure(rate, parameter("T2"));
    case Design::kWithLB4: {
      // The tube-4 light barrier stops timer 2 when the OHV leaves zone 2:
      // the armed window is min(T2, D) with D the zone-2 transit time, so
      // P = E_D[1 − exp(−λ·min(T2, D))], evaluated by Simpson quadrature
      // over the truncated-normal transit density.
      const stats::TruncatedNormal transit =
          stats::TruncatedNormal::nonnegative(params_.transit_mean_min,
                                              params_.transit_sigma_min);
      const auto expectation = [rate, transit](double t2) {
        if (t2 <= 0.0) return 0.0;
        constexpr int kIntervals = 512;  // even; Simpson's rule
        const double h = t2 / kIntervals;
        double integral = 0.0;
        for (int i = 0; i <= kIntervals; ++i) {
          const double t = static_cast<double>(i) * h;
          const double weight =
              (i == 0 || i == kIntervals) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
          integral += weight * (1.0 - std::exp(-rate * t)) * transit.pdf(t);
        }
        integral *= h / 3.0;
        // Transits longer than T2 keep the window at the full T2.
        return integral +
               (1.0 - std::exp(-rate * t2)) * (1.0 - transit.cdf(t2));
      };
      return expr::function1("E_minT2_exposure", expectation, {},
                             parameter("T2"));
    }
    case Design::kLightBarrierAtODfinal:
      // ODfinal consulted only while an OHV occupies the light barrier at
      // its location: a fixed exposure window, independent of T2.
      return constant(1.0 -
                      std::exp(-rate * params_.lb_passage_window_min));
  }
  SAFEOPT_ASSERT(false);
  return constant(0.0);
}

Expr ElbtunnelModel::collision_probability() const {
  const Expr ot1 = p_overtime1();
  const Expr ot2 = p_overtime2();
  // Paper §IV-B.3: P(HCol) = Pconst1 + P(OHVcrit)·P(OT1)
  //                        + P(OHVcrit)·(1 − P(OT1))·P(OT2).
  return constant(params_.p_const1) +
         params_.p_ohv_critical * (ot1 + (1.0 - ot1) * ot2);
}

Expr ElbtunnelModel::false_alarm_probability(Design design) const {
  // Pconstraint1 = P(OHV) + (1 − P(OHV))·P(FDLBpre)·P(FDLBpost)(T1).
  const Expr armed = constant(params_.p_ohv) +
                     (1.0 - params_.p_ohv) * params_.p_fd_lbpre *
                         p_fd_lbpost();
  return constant(params_.p_const2) + armed * p_hv_odfinal(design);
}

Expr ElbtunnelModel::false_alarm_given_ohv(Design design) const {
  // Fig. 6: the constraint probability P(OHV) is forced to 1; the residual
  // Pconst2 and the FD path are negligible against it and dropped, exactly
  // as in the paper's figure.
  return p_hv_odfinal(design);
}

core::CostModel ElbtunnelModel::cost_model() const {
  core::CostModel model;
  model.add_hazard(
      {"HCol", collision_probability(), params_.cost_collision});
  model.add_hazard(
      {"HAlr", false_alarm_probability(), params_.cost_false_alarm});
  return model;
}

core::Study ElbtunnelModel::study() const {
  return core::Study(cost_model(), parameter_space());
}

fta::FaultTree ElbtunnelModel::collision_tree() const {
  fta::FaultTree tree("HCol");
  const auto residual = tree.add_basic_event(
      "OtherCollisionCauses",
      "accumulated residual cut sets (Pconst1): sensor misdetections, "
      "signal failures, drivers ignoring the emergency halt");
  const auto ot1 = tree.add_basic_event(
      "OT1", "OHV needs longer than timer 1 through zone 1 (traffic jam)");
  const auto ot2 = tree.add_basic_event(
      "OT2", "OHV needs longer than timer 2 through zone 2 (traffic jam)");
  const auto critical = tree.add_condition(
      "OHVcritical", "an OHV is driving towards the west or mid tube");
  const auto g1 = tree.add_inhibit("OT1_critical", ot1, critical);
  const auto g2 = tree.add_inhibit("OT2_critical", ot2, critical);
  const auto top =
      tree.add_or("Collision", {residual, g1, g2});
  tree.set_top(top);
  return tree;
}

fta::FaultTree ElbtunnelModel::false_alarm_tree() const {
  fta::FaultTree tree("HAlr");
  const auto residual = tree.add_basic_event(
      "OtherFalseAlarmCauses",
      "accumulated residual cut sets (Pconst2): HVODleft, FDODleft, "
      "FDODfinal");
  const auto hv = tree.add_basic_event(
      "HVODfinal",
      "a high vehicle on a left lane is interpreted as an OHV by ODfinal");
  const auto armed = tree.add_condition(
      "ODfinalArmed",
      "ODfinal is active: an OHV armed it, or both light barriers had "
      "false detections");
  const auto gate = tree.add_inhibit("HVODfinal_whileArmed", hv, armed);
  const auto top = tree.add_or("FalseAlarm", {residual, gate});
  tree.set_top(top);
  return tree;
}

core::ParameterizedQuantification ElbtunnelModel::collision_quantification(
    const fta::FaultTree& tree) const {
  core::ParameterizedQuantification q(tree);
  q.set_event_probability("OtherCollisionCauses", constant(params_.p_const1));
  q.set_event_probability("OT1", p_overtime1());
  q.set_event_probability("OT2", p_overtime2());
  q.set_condition_probability("OHVcritical",
                              constant(params_.p_ohv_critical));
  return q;
}

core::ParameterizedQuantification ElbtunnelModel::false_alarm_quantification(
    const fta::FaultTree& tree) const {
  core::ParameterizedQuantification q(tree);
  q.set_event_probability("OtherFalseAlarmCauses",
                          constant(params_.p_const2));
  q.set_event_probability("HVODfinal", p_hv_odfinal(Design::kBaseline));
  // The constraint probability of §IV-B.3, attached to the INHIBIT
  // condition exactly as the paper attaches it to the cut set.
  q.set_condition_probability(
      "ODfinalArmed", constant(params_.p_ohv) +
                          (1.0 - params_.p_ohv) * params_.p_fd_lbpre *
                              p_fd_lbpost());
  return q;
}

sim::TrafficConfig ElbtunnelModel::traffic_config(double t1_min, double t2_min,
                                                  Design design) const {
  SAFEOPT_EXPECTS(t1_min > 0.0 && t2_min > 0.0);
  sim::TrafficConfig config;
  config.zone_transit_mean_min = params_.transit_mean_min;
  config.zone_transit_sigma_min = params_.transit_sigma_min;
  config.timer1_min = t1_min;
  config.timer2_min = t2_min;
  config.hv_left_lane_rate_per_min = params_.hv_left_rate_per_min;
  config.ohv_wrong_route_fraction = params_.p_ohv_critical;
  config.od_miss_detection_prob = params_.p_od_miss;
  config.lb_passage_window_min = params_.lb_passage_window_min;
  config.variant = to_sim_variant(design);
  return config;
}

sim::DesignVariant to_sim_variant(Design design) noexcept {
  switch (design) {
    case Design::kBaseline: return sim::DesignVariant::kBaseline;
    case Design::kWithLB4: return sim::DesignVariant::kWithLB4;
    case Design::kLightBarrierAtODfinal:
      return sim::DesignVariant::kLightBarrierAtODfinal;
  }
  return sim::DesignVariant::kBaseline;
}

}  // namespace safeopt::elbtunnel
