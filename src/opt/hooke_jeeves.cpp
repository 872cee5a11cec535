// Hooke–Jeeves pattern search: robust derivative-free descent that combines
// exploratory per-axis probing with pattern moves. Useful when the cost
// function is only piecewise smooth (e.g. hazard models with clamped
// probabilities), where simplex methods stall.
#include <algorithm>
#include <cmath>

#include "builtin_solvers.h"

namespace safeopt::opt {
namespace {

constexpr OptionSpec kOptions[] = {
    {.name = "initial_step", .kind = OptionKind::kNumber, .min = 0, .max = 1,
     .min_exclusive = true, .fallback = 0.25,
     .doc = "first pattern step, relative to each axis' box width"},
};

/// Starts at config.initial (projected into the box) or the center.
class HookeJeeves final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "hooke_jeeves";
  }
  [[nodiscard]] SolverTraits traits() const noexcept override {
    return SolverTraits{.options = kOptions};
  }

 private:
  [[nodiscard]] OptimizationResult run(
      const Problem& problem, const SolverConfig& config) const override {
    const double initial_step = number(config, "initial_step");
    const std::size_t dim = problem.bounds.dimension();

    OptimizationResult result;
    const auto eval = [&](const std::vector<double>& p) {
      ++result.evaluations;
      return problem.objective(p);
    };

    std::vector<double> steps(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      steps[i] = initial_step * std::max(problem.bounds.width(i), 1e-9);
    }

    std::vector<double> base = config.initial.empty()
                                   ? problem.bounds.center()
                                   : problem.bounds.project(config.initial);
    double f_base = eval(base);

    // Exploratory move around `point`: probe ±step along each axis, keep
    // improvements greedily.
    const auto explore = [&](std::vector<double> point, double f_point) {
      for (std::size_t i = 0; i < dim; ++i) {
        for (const double direction : {+1.0, -1.0}) {
          std::vector<double> trial = point;
          trial[i] = std::clamp(trial[i] + direction * steps[i],
                                problem.bounds.lower[i],
                                problem.bounds.upper[i]);
          if (trial[i] == point[i]) continue;
          const double f_trial = eval(trial);
          if (f_trial < f_point) {
            point = std::move(trial);
            f_point = f_trial;
            break;  // accept the first improving direction on this axis
          }
        }
      }
      return std::pair{point, f_point};
    };

    const auto max_step = [&] {
      return *std::max_element(steps.begin(), steps.end());
    };

    while (result.iterations < config.max_iterations &&
           max_step() > config.tolerance) {
      ++result.iterations;
      auto [explored, f_explored] = explore(base, f_base);
      if (f_explored < f_base) {
        // Pattern move: leap along (explored − base), then explore again.
        std::vector<double> pattern(dim);
        for (std::size_t i = 0; i < dim; ++i) {
          pattern[i] = explored[i] + (explored[i] - base[i]);
        }
        pattern = problem.bounds.project(pattern);
        const double f_pattern = eval(pattern);
        auto [pattern_explored, f_pattern_explored] =
            explore(pattern, f_pattern);
        base = std::move(explored);
        f_base = f_explored;
        if (f_pattern_explored < f_base) {
          base = std::move(pattern_explored);
          f_base = f_pattern_explored;
        }
      } else {
        for (double& s : steps) s *= 0.5;
      }
    }

    result.argmin = std::move(base);
    result.value = f_base;
    result.converged = max_step() <= config.tolerance;
    result.message = result.converged ? "pattern step below tolerance"
                                      : "iteration budget exhausted";
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> builtin::hooke_jeeves() {
  return std::make_unique<HookeJeeves>();
}

}  // namespace safeopt::opt
