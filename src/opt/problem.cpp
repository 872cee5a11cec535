#include "safeopt/opt/problem.h"

#include <algorithm>

#include "safeopt/support/contracts.h"

namespace safeopt::opt {

Box::Box(std::vector<double> lo, std::vector<double> hi)
    : lower(std::move(lo)), upper(std::move(hi)) {
  SAFEOPT_EXPECTS(lower.size() == upper.size());
  SAFEOPT_EXPECTS(!lower.empty());
  for (std::size_t i = 0; i < lower.size(); ++i) {
    SAFEOPT_EXPECTS(lower[i] <= upper[i]);
  }
}

Box Box::interval(double lo, double hi) { return Box({lo}, {hi}); }

bool Box::contains(std::span<const double> x) const noexcept {
  if (x.size() != lower.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < lower[i] || x[i] > upper[i]) return false;
  }
  return true;
}

std::vector<double> Box::project(std::span<const double> x) const {
  SAFEOPT_EXPECTS(x.size() == lower.size());
  std::vector<double> out(x.begin(), x.end());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::clamp(out[i], lower[i], upper[i]);
  }
  return out;
}

std::vector<double> Box::center() const {
  std::vector<double> out(lower.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = 0.5 * (lower[i] + upper[i]);
  }
  return out;
}

double Box::width(std::size_t i) const {
  SAFEOPT_EXPECTS(i < lower.size());
  return upper[i] - lower[i];
}

void Problem::evaluate_batch(std::span<const double> points,
                             std::span<double> out) const {
  const std::size_t dim = bounds.dimension();
  SAFEOPT_EXPECTS(points.size() == out.size() * dim);
  if (batch_objective) {
    batch_objective(points, out);
    return;
  }
  SAFEOPT_EXPECTS(static_cast<bool>(objective));
  for (std::size_t row = 0; row < out.size(); ++row) {
    out[row] = objective(points.subspan(row * dim, dim));
  }
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

}  // namespace safeopt::opt
