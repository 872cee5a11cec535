// Golden-section search: derivative-free 1-D minimization over an interval.
// Guaranteed to bracket the minimum of a unimodal function; the right tool
// for single-free-parameter systems such as the pre-flight-check tolerance
// example of the paper's §III introduction.
#include <cmath>

#include "builtin_solvers.h"

namespace safeopt::opt {
namespace {

/// 1-D only (traits().max_dimension == 1): Solver::solve rejects
/// multi-dimensional boxes with std::invalid_argument before running, since
/// the golden-section bracketing argument only exists on an interval.
/// Start-point-free; config.initial is ignored.
class GoldenSection final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "golden_section";
  }
  [[nodiscard]] SolverTraits traits() const noexcept override {
    return SolverTraits{.max_dimension = 1};
  }

 private:
  [[nodiscard]] OptimizationResult run(
      const Problem& problem, const SolverConfig& config) const override {
    constexpr double kInvPhi = 0.6180339887498948482;  // 1/φ
    double a = problem.bounds.lower[0];
    double b = problem.bounds.upper[0];
    OptimizationResult result;

    const auto eval = [&](double x) {
      const double v = problem.objective(std::vector<double>{x});
      ++result.evaluations;
      return v;
    };

    double c = b - kInvPhi * (b - a);
    double d = a + kInvPhi * (b - a);
    double fc = eval(c);
    double fd = eval(d);

    while (result.iterations < config.max_iterations &&
           std::abs(b - a) > config.tolerance) {
      if (fc < fd) {
        b = d;
        d = c;
        fd = fc;
        c = b - kInvPhi * (b - a);
        fc = eval(c);
      } else {
        a = c;
        c = d;
        fc = fd;
        d = a + kInvPhi * (b - a);
        fd = eval(d);
      }
      ++result.iterations;
    }

    const double x = 0.5 * (a + b);
    result.argmin = {x};
    result.value = eval(x);
    result.converged = std::abs(b - a) <= config.tolerance;
    result.message = result.converged ? "interval collapsed below tolerance"
                                      : "iteration budget exhausted";
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> builtin::golden_section() {
  return std::make_unique<GoldenSection>();
}

}  // namespace safeopt::opt
