// Experiment: the §IV-C.2 results table — the paper's reported outcomes of
// safety optimization on the Elbtunnel height control, paper value against
// measured value:
//   * optimal timer runtimes               ~19 / ~15.6 min
//   * false-alarm risk improvement         about 10%
//   * collision risk change                less than 0.1%
//   * timer 1 more conservative than timer 2 (flat cost along T1)
//
// Usage: bench_optimum_results [SOLVER]
//   SOLVER is a registry name for the headline optimization (default
//   multi_start); the agreement table below always sweeps every registered
//   solver.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

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

  core::Study study(model.cost_model(), model.parameter_space());
  core::SafetyOptimizationResult optimal;
  try {
    optimal = study.solver(solver_name).run();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cannot optimize with %s: %s\n", solver_name.c_str(),
                 error.what());
    return 1;
  }
  const auto report = study.compare(model.engineers_guess(), optimal);

  std::printf("=== §IV-C.2: safety-optimization results (%s) ===\n\n",
              solver_name.c_str());
  std::printf("%-34s %14s %14s\n", "quantity", "paper", "measured");
  std::printf("%-34s %14s %14.2f\n", "optimal T1 [min]", "~19",
              optimal.optimization.argmin[0]);
  std::printf("%-34s %14s %14.2f\n", "optimal T2 [min]", "~15.6",
              optimal.optimization.argmin[1]);
  std::printf("%-34s %14s %14.5f\n", "cost at optimum",
              "0.0046..0.0047", optimal.cost);
  std::printf("%-34s %14s %13.2f%%\n", "false-alarm risk change", "~-10%",
              100.0 * report.hazards[1].relative_change);
  std::printf("%-34s %14s %13.4f%%\n", "collision risk change", "< 0.1%",
              100.0 * report.hazards[0].relative_change);

  // Flatness asymmetry: cost increase for +5 min on each timer.
  const auto cost = model.cost_model().cost_expression();
  const auto at = optimal.optimal_parameters;
  auto t1_up = at;
  t1_up.set("T1", at.get("T1") + 5.0);
  auto t2_up = at;
  t2_up.set("T2", at.get("T2") + 5.0);
  const double base = cost.evaluate(at);
  std::printf("%-34s %14s %14.3e\n", "cost(+5 min on T1) - cost*", "~0",
              cost.evaluate(t1_up) - base);
  std::printf("%-34s %14s %14.3e\n", "cost(+5 min on T2) - cost*",
              "dominant", cost.evaluate(t2_up) - base);

  std::printf("\nabsolute risks:\n");
  for (const auto& hazard : report.hazards) {
    std::printf("  %-5s baseline %.6e  ->  optimal %.6e\n",
                hazard.hazard.c_str(), hazard.baseline_probability,
                hazard.optimal_probability);
  }

  std::printf("\nper-parameter sensitivities at the optimum:\n");
  for (const auto& s : core::sensitivity_analysis(
           model.cost_model(), model.parameter_space(),
           optimal.optimal_parameters)) {
    std::printf("  d(cost)/d%-3s = %+12.4e   dP(HCol)/d%-3s = %+12.4e   "
                "dP(HAlr)/d%-3s = %+12.4e\n",
                s.parameter.c_str(), s.cost_gradient, s.parameter.c_str(),
                s.hazard_gradients[0], s.parameter.c_str(),
                s.hazard_gradients[1]);
  }

  // Every registered solver on the same study — one compiled tape, solvers
  // hopping on by name. golden_section correctly refuses the 2-D box.
  std::printf("\nsolver agreement on the optimum (full registry):\n");
  std::printf("%-26s %8s %8s %12s %12s\n", "solver", "T1*", "T2*", "cost",
              "evaluations");
  for (const std::string& name : opt::SolverRegistry::available()) {
    try {
      const auto result = study.solver(name).run();
      std::printf("%-26s %8.2f %8.2f %12.7f %12zu\n", name.c_str(),
                  result.optimization.argmin[0],
                  result.optimization.argmin[1], result.cost,
                  result.optimization.evaluations);
    } catch (const std::exception& error) {
      std::printf("%-26s %s\n", name.c_str(), error.what());
    }
  }
  return 0;
}
