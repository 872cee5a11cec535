// Cyclic coordinate descent: golden-section line searches along one axis at
// a time. Simple, derivative-free, and effective on the separable-ish cost
// functions safety optimization tends to produce (each timer mostly controls
// its own hazard term).
#include <cmath>

#include "builtin_solvers.h"

namespace safeopt::opt {
namespace {

constexpr OptionSpec kOptions[] = {
    {.name = "line_search_iterations", .kind = OptionKind::kCount, .min = 8,
     .fallback = 60, .doc = "golden-section steps per axis line search"},
};

/// Starts at config.initial (projected into the box) or the center.
class CoordinateDescent final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "coordinate_descent";
  }
  [[nodiscard]] SolverTraits traits() const noexcept override {
    return SolverTraits{.options = kOptions};
  }

 private:
  [[nodiscard]] OptimizationResult run(
      const Problem& problem, const SolverConfig& config) const override {
    const std::size_t line_search_iterations =
        count(config, "line_search_iterations");
    const std::size_t dim = problem.bounds.dimension();
    constexpr double kInvPhi = 0.6180339887498948482;

    OptimizationResult result;
    std::vector<double> x = config.initial.empty()
                                ? problem.bounds.center()
                                : problem.bounds.project(config.initial);
    double fx = problem.objective(x);
    ++result.evaluations;

    // Golden-section along axis `i` over the full box extent of that axis.
    const auto line_minimize = [&](std::size_t i) {
      double a = problem.bounds.lower[i];
      double b = problem.bounds.upper[i];
      const auto eval_at = [&](double value) {
        const double saved = x[i];
        x[i] = value;
        const double f = problem.objective(x);
        ++result.evaluations;
        x[i] = saved;
        return f;
      };
      double c = b - kInvPhi * (b - a);
      double d = a + kInvPhi * (b - a);
      double fc = eval_at(c);
      double fd = eval_at(d);
      for (std::size_t it = 0; it < line_search_iterations; ++it) {
        if (fc < fd) {
          b = d;
          d = c;
          fd = fc;
          c = b - kInvPhi * (b - a);
          fc = eval_at(c);
        } else {
          a = c;
          c = d;
          fc = fd;
          d = a + kInvPhi * (b - a);
          fd = eval_at(d);
        }
      }
      const double best = 0.5 * (a + b);
      const double f_best = eval_at(best);
      if (f_best < fx) {
        x[i] = best;
        fx = f_best;
      }
    };

    while (result.iterations < config.max_iterations) {
      ++result.iterations;
      const std::vector<double> previous = x;
      const double f_previous = fx;
      for (std::size_t i = 0; i < dim; ++i) line_minimize(i);
      double moved = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        const double d = x[i] - previous[i];
        moved += d * d;
      }
      if (std::sqrt(moved) <= config.tolerance &&
          f_previous - fx <= config.tolerance) {
        result.converged = true;
        result.message = "coordinate sweep made no progress";
        break;
      }
    }
    if (!result.converged) result.message = "iteration budget exhausted";
    result.argmin = std::move(x);
    result.value = fx;
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> builtin::coordinate_descent() {
  return std::make_unique<CoordinateDescent>();
}

}  // namespace safeopt::opt
