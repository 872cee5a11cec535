// Nelder–Mead downhill simplex with box projection: the workhorse
// derivative-free solver for the smooth low-dimensional cost functions that
// safety optimization produces (2 free parameters in the Elbtunnel study).
#include <algorithm>
#include <cmath>
#include <numeric>

#include "builtin_solvers.h"

namespace safeopt::opt {
namespace {

// Standard Nelder-Mead coefficients.
constexpr double kReflection = 1.0;
constexpr double kExpansion = 2.0;
constexpr double kContraction = 0.5;
constexpr double kShrink = 0.5;

/// config.initial (projected into the box) seeds the first simplex vertex;
/// defaults to the box center.
class NelderMead final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "nelder_mead";
  }

 private:
  [[nodiscard]] OptimizationResult run(
      const Problem& problem, const SolverConfig& config) const override {
    const std::size_t dim = problem.bounds.dimension();

    OptimizationResult result;
    const auto eval = [&](const std::vector<double>& x) {
      ++result.evaluations;
      return problem.objective(x);
    };

    // Initial simplex: start point plus one vertex displaced 5% of the box
    // width along each axis (projected back into the box).
    std::vector<std::vector<double>> simplex;
    std::vector<double> values;
    std::vector<double> start = config.initial.empty()
                                    ? problem.bounds.center()
                                    : problem.bounds.project(config.initial);
    simplex.push_back(start);
    values.push_back(eval(start));
    for (std::size_t i = 0; i < dim; ++i) {
      std::vector<double> vertex = start;
      const double step = 0.05 * std::max(problem.bounds.width(i), 1e-9);
      vertex[i] = vertex[i] + step <= problem.bounds.upper[i]
                      ? vertex[i] + step
                      : vertex[i] - step;
      vertex = problem.bounds.project(vertex);
      simplex.push_back(vertex);
      values.push_back(eval(vertex));
    }

    std::vector<std::size_t> order(simplex.size());
    const auto sort_simplex = [&] {
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return values[a] < values[b];
                });
    };

    const auto spread = [&] {
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      return std::abs(*hi - *lo);
    };

    while (result.iterations < config.max_iterations &&
           spread() > config.tolerance) {
      ++result.iterations;
      sort_simplex();
      const std::size_t best = order.front();
      const std::size_t worst = order.back();
      const std::size_t second_worst = order[order.size() - 2];

      // Centroid of all vertices except the worst.
      std::vector<double> centroid(dim, 0.0);
      for (std::size_t v = 0; v < simplex.size(); ++v) {
        if (v == worst) continue;
        for (std::size_t i = 0; i < dim; ++i) centroid[i] += simplex[v][i];
      }
      for (double& c : centroid) c /= static_cast<double>(dim);

      const auto move = [&](double coefficient) {
        std::vector<double> point(dim);
        for (std::size_t i = 0; i < dim; ++i) {
          point[i] =
              centroid[i] + coefficient * (centroid[i] - simplex[worst][i]);
        }
        return problem.bounds.project(point);
      };

      const std::vector<double> reflected = move(kReflection);
      const double f_reflected = eval(reflected);

      if (f_reflected < values[best]) {
        const std::vector<double> expanded = move(kExpansion);
        const double f_expanded = eval(expanded);
        if (f_expanded < f_reflected) {
          simplex[worst] = expanded;
          values[worst] = f_expanded;
        } else {
          simplex[worst] = reflected;
          values[worst] = f_reflected;
        }
        continue;
      }
      if (f_reflected < values[second_worst]) {
        simplex[worst] = reflected;
        values[worst] = f_reflected;
        continue;
      }
      const std::vector<double> contracted = move(-kContraction);
      const double f_contracted = eval(contracted);
      if (f_contracted < values[worst]) {
        simplex[worst] = contracted;
        values[worst] = f_contracted;
        continue;
      }
      // Shrink towards the best vertex.
      for (std::size_t v = 0; v < simplex.size(); ++v) {
        if (v == best) continue;
        for (std::size_t i = 0; i < dim; ++i) {
          simplex[v][i] =
              simplex[best][i] + kShrink * (simplex[v][i] - simplex[best][i]);
        }
        values[v] = eval(simplex[v]);
      }
    }

    sort_simplex();
    result.argmin = simplex[order.front()];
    result.value = values[order.front()];
    result.converged = spread() <= config.tolerance;
    result.message = result.converged ? "simplex spread below tolerance"
                                      : "iteration budget exhausted";
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> builtin::nelder_mead() {
  return std::make_unique<NelderMead>();
}

}  // namespace safeopt::opt
