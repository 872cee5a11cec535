#include "safeopt/opt/grid_search.h"

#include "builtin_solvers.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "safeopt/support/contracts.h"

namespace safeopt::opt {

GridSearch::GridSearch(std::size_t points_per_dimension,
                       std::size_t refinement_rounds)
    : points_per_dimension_(points_per_dimension),
      refinement_rounds_(refinement_rounds) {
  SAFEOPT_EXPECTS(points_per_dimension >= 2);
  SAFEOPT_EXPECTS(refinement_rounds >= 1);
}

OptimizationResult GridSearch::minimize(const Problem& problem) const {
  SAFEOPT_EXPECTS(problem.bounds.dimension() >= 1);
  const std::size_t dim = problem.bounds.dimension();
  Box box = problem.bounds;
  OptimizationResult result;
  result.value = std::numeric_limits<double>::infinity();

  // Points are enumerated odometer-style (axis 0 fastest) into fixed-size
  // blocks and handed to the problem's batch path — which is where compiled
  // tapes and the thread pool come in. The argmin scan walks each block in
  // enumeration order with a strict '<', so the incumbent (and therefore the
  // refinement trajectory) is identical to one-at-a-time evaluation.
  constexpr std::size_t kBlockRows = 4096;
  std::vector<double> block;
  block.reserve(kBlockRows * dim);
  std::vector<double> values(kBlockRows);
  std::vector<std::size_t> index(dim);

  for (std::size_t round = 0; round < refinement_rounds_; ++round) {
    std::fill(index.begin(), index.end(), 0);
    bool done = false;
    while (!done) {
      block.clear();
      std::size_t rows = 0;
      while (!done && rows < kBlockRows) {
        for (std::size_t i = 0; i < dim; ++i) {
          const double t = static_cast<double>(index[i]) /
                           static_cast<double>(points_per_dimension_ - 1);
          block.push_back(box.lower[i] +
                          t * (box.upper[i] - box.lower[i]));
        }
        ++rows;
        // Advance the odometer.
        std::size_t axis = 0;
        for (; axis < dim; ++axis) {
          if (++index[axis] < points_per_dimension_) break;
          index[axis] = 0;
        }
        done = axis == dim;
      }
      problem.evaluate_batch(block,
                             std::span<double>(values.data(), rows));
      result.evaluations += rows;
      for (std::size_t row = 0; row < rows; ++row) {
        if (values[row] < result.value) {
          result.value = values[row];
          const auto* begin = block.data() + row * dim;
          result.argmin.assign(begin, begin + dim);
        }
      }
    }
    ++result.iterations;

    // Zoom: new box is one grid-cell half-width around the incumbent,
    // clipped to the original feasible box.
    Box next = box;
    for (std::size_t i = 0; i < dim; ++i) {
      const double cell =
          (box.upper[i] - box.lower[i]) /
          static_cast<double>(points_per_dimension_ - 1);
      next.lower[i] =
          std::max(problem.bounds.lower[i], result.argmin[i] - cell);
      next.upper[i] =
          std::min(problem.bounds.upper[i], result.argmin[i] + cell);
    }
    box = next;
  }
  result.converged = true;
  result.message = "grid refinement exhausted";
  return result;
}

double GridTable::value(std::size_t i, std::size_t j) const {
  SAFEOPT_EXPECTS(i < xs.size() && j < ys.size());
  return values[i * ys.size() + j];
}

std::pair<std::size_t, std::size_t> GridTable::argmin() const {
  SAFEOPT_EXPECTS(!values.empty());
  const auto it = std::min_element(values.begin(), values.end());
  const auto flat = static_cast<std::size_t>(it - values.begin());
  return {flat / ys.size(), flat % ys.size()};
}

GridTable tabulate_2d(const Problem& problem, std::size_t nx,
                      std::size_t ny) {
  SAFEOPT_EXPECTS(problem.bounds.dimension() == 2);
  SAFEOPT_EXPECTS(nx >= 2 && ny >= 2);
  const Box& bounds = problem.bounds;
  GridTable table;
  table.xs.resize(nx);
  table.ys.resize(ny);
  table.values.resize(nx * ny);
  for (std::size_t i = 0; i < nx; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(nx - 1);
    table.xs[i] = bounds.lower[0] + t * (bounds.upper[0] - bounds.lower[0]);
  }
  for (std::size_t j = 0; j < ny; ++j) {
    const double t = static_cast<double>(j) / static_cast<double>(ny - 1);
    table.ys[j] = bounds.lower[1] + t * (bounds.upper[1] - bounds.lower[1]);
  }
  std::vector<double> points;
  points.reserve(nx * ny * 2);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      points.push_back(table.xs[i]);
      points.push_back(table.ys[j]);
    }
  }
  problem.evaluate_batch(points, table.values);
  return table;
}

GridTable tabulate_2d(const Objective& objective, const Box& bounds,
                      std::size_t nx, std::size_t ny) {
  // Same layout, serial evaluation: Problem::evaluate_batch without a
  // batch_objective loops over the objective in row order.
  Problem problem;
  problem.objective = objective;
  problem.bounds = bounds;
  return tabulate_2d(problem, nx, ny);
}

// ---- registry adapter -------------------------------------------------------

namespace {

/// Extras: "points_per_dimension" (default 33), "refinement_rounds" (5).
/// Deterministic and start-point-free; config.initial is ignored.
class GridSearchSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "grid_search";
  }

 private:
  [[nodiscard]] OptimizationResult run(
      const Problem& problem, const SolverConfig& config) const override {
    const std::size_t points = config.count_or(
        "points_per_dimension", GridSearch::kDefaultPointsPerDimension);
    const std::size_t rounds = config.count_or(
        "refinement_rounds", GridSearch::kDefaultRefinementRounds);
    return GridSearch(points, rounds).minimize(problem);
  }
};

}  // namespace

std::unique_ptr<Solver> detail::make_grid_search_solver() {
  return std::make_unique<GridSearchSolver>();
}

}  // namespace safeopt::opt
