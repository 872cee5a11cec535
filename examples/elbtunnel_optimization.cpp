// The full Elbtunnel case study (paper §IV), end to end:
//   1. evaluate the engineers' initial 30/30-minute configuration,
//   2. optimize the timer runtimes against the 100000:1 cost function,
//   3. compare risks before/after (§IV-C.2),
//   4. cross-check the optimum's hazard probabilities with the
//      quantification engines (fta / bdd / mc) on the fault-tree derivation,
//   5. run the sensitivity analysis at the optimum,
//   6. sweep the "OHV present" environment to expose the ODfinal design
//      flaw and evaluate both fixes (Fig. 6 methodology).
//
// Usage: example_elbtunnel_optimization [SOLVER]
//   SOLVER is a registry name (nelder_mead, multi_start, grid_search, ...).
//   Default: multi_start. Run with an unknown name to list what is
//   available.
#include <cstdio>
#include <exception>
#include <string>

#include "safeopt/core/environment_sweep.h"
#include "safeopt/core/sensitivity.h"
#include "safeopt/core/study.h"
#include "safeopt/elbtunnel/elbtunnel_model.h"

int main(int argc, char** argv) {
  using namespace safeopt;
  const elbtunnel::ElbtunnelModel model;

  const std::string solver_name = argc > 1 ? argv[1] : "multi_start";
  if (!opt::SolverRegistry::contains(solver_name)) {
    std::fprintf(stderr, "unknown solver \"%s\"; available:",
                 solver_name.c_str());
    for (const std::string& known : opt::SolverRegistry::available()) {
      std::fprintf(stderr, " %s", known.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  // The study: one compiled problem, solver and engine chosen by name.
  core::Study study(model.cost_model(), model.parameter_space());
  study.solver(solver_name);

  // 1. The engineers' guess.
  const auto baseline = study.evaluate_at(model.engineers_guess());
  std::printf("engineers' configuration: T1 = T2 = 30 min\n");
  std::printf("  P(HCol) = %.4e, P(HAlr) = %.4e, cost = %.7f\n\n",
              baseline.hazard_probabilities[0],
              baseline.hazard_probabilities[1], baseline.cost);

  // 2. Safety optimization (paper §III). Solver/problem mismatches (e.g.
  // golden_section on the 2-D timer box) surface as std::invalid_argument.
  core::SafetyOptimizationResult optimal;
  try {
    optimal = study.run();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cannot optimize: %s\n", error.what());
    return 1;
  }
  std::printf("optimized configuration (%s; %s, %zu evaluations):\n",
              solver_name.c_str(), optimal.optimization.message.c_str(),
              optimal.optimization.evaluations);
  std::printf("  T1* = %.2f min, T2* = %.2f min, cost = %.7f\n",
              optimal.optimization.argmin[0], optimal.optimization.argmin[1],
              optimal.cost);
  std::printf("  (paper: approximately 19 resp. 15.6 minutes)\n\n");

  // 3. Risk comparison (§IV-C.2's reported improvements).
  const auto report = study.compare(model.engineers_guess(), optimal);
  for (const auto& hazard : report.hazards) {
    std::printf("  %-5s %.6e -> %.6e  (%+.3f%%)\n", hazard.hazard.c_str(),
                hazard.baseline_probability, hazard.optimal_probability,
                100.0 * hazard.relative_change);
  }
  std::printf("  total mean cost %.7f -> %.7f (%+.2f%%)\n\n",
              report.baseline_cost, report.optimal_cost,
              100.0 * report.cost_relative_change);

  // 4. Cross-check P(HCol)(T1*,T2*) on the fault-tree derivation with every
  // registered quantification engine — the closed form above and the three
  // backends must agree (rare-event within its bound, bdd exactly, mc
  // within its confidence interval).
  const fta::FaultTree collision_tree = model.collision_tree();
  const core::ParameterizedQuantification collision_quant =
      model.collision_quantification(collision_tree);
  study.hazard_tree("HCol", collision_tree, collision_quant);
  std::printf("P(HCol) at the optimum, by quantification engine:\n");
  for (const std::string& engine : core::EngineRegistry::available()) {
    study.engine(engine);
    try {
      const auto q = study.quantify("HCol", optimal.optimal_parameters);
      if (q.ci95.has_value()) {
        std::printf("  %-4s %.6e  (95%% CI [%.3e, %.3e], %llu trials)\n",
                    engine.c_str(), q.probability, q.ci95->lo, q.ci95->hi,
                    static_cast<unsigned long long>(q.trials));
      } else {
        std::printf("  %-4s %.6e\n", engine.c_str(), q.probability);
      }
    } catch (const std::exception& error) {
      std::printf("  %-4s unavailable: %s\n", engine.c_str(), error.what());
    }
  }

  // 5. Sensitivity at the optimum: which timer is critical?
  std::printf("\nsensitivity at the optimum:\n");
  for (const auto& s : core::sensitivity_analysis(
           model.cost_model(), model.parameter_space(),
           optimal.optimal_parameters)) {
    std::printf("  d(cost)/d%s = %+.3e (elasticity %+.3e)\n",
                s.parameter.c_str(), s.cost_gradient, s.cost_elasticity);
  }

  // 6. The Fig. 6 environment study: how does the design behave when an
  // OHV is actually present in the controlled area?
  std::printf("\nP(false alarm | correct OHV present), by design:\n");
  const core::SweepTable sweep = core::sweep_parameter(
      "T2", 5.0, 25.0, 9, {},
      {{"baseline", model.false_alarm_given_ohv(elbtunnel::Design::kBaseline)},
       {"with_LB4", model.false_alarm_given_ohv(elbtunnel::Design::kWithLB4)},
       {"LB_at_ODfinal",
        model.false_alarm_given_ohv(
            elbtunnel::Design::kLightBarrierAtODfinal)}});
  std::printf("%s", sweep.to_csv().c_str());
  std::printf(
      "\nconclusion: even at the optimized T2, %.0f%% of correctly driving\n"
      "OHVs trigger an alarm in the deployed design — the flaw the paper\n"
      "reports. The LB4 fix cuts it to %.0f%%, a barrier at ODfinal to "
      "%.0f%%.\n",
      100.0 * sweep.values[0][4], 100.0 * sweep.values[1][4],
      100.0 * sweep.values[2][4]);
  return 0;
}
