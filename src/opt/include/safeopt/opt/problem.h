// Box-constrained nonlinear minimization (paper §III-B).
//
// The paper restricts free parameters to compact intervals "to guarantee the
// existence of the minimum"; `Box` is exactly that product of intervals.
// Every solver in src/opt consumes a `Problem` and produces an
// `OptimizationResult`, so the safety-optimization layer can swap methods
// (the paper: "This problem can then be solved with different methods").
#ifndef SAFEOPT_OPT_PROBLEM_H
#define SAFEOPT_OPT_PROBLEM_H

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace safeopt::opt {

/// A compact axis-aligned box ∏ [lower_i, upper_i]: the feasible set.
struct Box {
  std::vector<double> lower;
  std::vector<double> upper;

  Box() = default;
  /// Precondition: same sizes, lower_i <= upper_i for all i.
  Box(std::vector<double> lo, std::vector<double> hi);
  /// 1-D convenience.
  [[nodiscard]] static Box interval(double lo, double hi);

  [[nodiscard]] std::size_t dimension() const noexcept {
    return lower.size();
  }
  [[nodiscard]] bool contains(std::span<const double> x) const noexcept;
  /// Componentwise projection of x onto the box.
  [[nodiscard]] std::vector<double> project(std::span<const double> x) const;
  [[nodiscard]] std::vector<double> center() const;
  [[nodiscard]] double width(std::size_t i) const;
};

/// Objective value at a point inside the box.
using Objective = std::function<double(std::span<const double>)>;

/// Evaluates many points in one call: `points` holds out.size() parameter
/// vectors row-major (points.size() == out.size() * dimension) and the
/// objective value of row i is written to out[i]. Contract: produces exactly
/// the values `objective` produces (bitwise), each out[i] depending only on
/// row i — implementations may evaluate rows concurrently, and callers may
/// rely on the result being independent of that choice. The batched
/// call sites (grid_search rounds, DE generations, sweeps) are where the
/// compiled-expression engine and the thread pool plug into the solvers.
using BatchObjective =
    std::function<void(std::span<const double> points, std::span<double> out)>;

/// A minimization problem: minimize `objective` over `bounds`.
struct Problem {
  Objective objective;
  Box bounds;
  BatchObjective batch_objective;   // may be empty; must agree with objective

  [[nodiscard]] bool has_batch_objective() const noexcept {
    return static_cast<bool>(batch_objective);
  }

  /// Batch evaluation through `batch_objective` when present, else a serial
  /// loop over `objective`. Precondition: points.size() == out.size() *
  /// bounds.dimension() and objective is callable.
  void evaluate_batch(std::span<const double> points,
                      std::span<double> out) const;
};

/// Outcome of one solver run.
struct OptimizationResult {
  std::vector<double> argmin;
  double value = 0.0;
  std::size_t evaluations = 0;  // objective calls
  std::size_t iterations = 0;   // algorithm-specific outer iterations; 0
                                // when a refused evaluation cut it short
  bool converged = false;
  std::string message;
};

/// A full tabulation of an objective over a 2-D grid — the exact artifact
/// behind the paper's Fig. 5 3-D plot. Row-major: value(i, j) is at
/// x = xs[i], y = ys[j].
struct GridTable {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> values;  // xs.size() * ys.size(), row-major

  [[nodiscard]] double value(std::size_t i, std::size_t j) const;
  /// Grid argmin as (i, j).
  [[nodiscard]] std::pair<std::size_t, std::size_t> argmin() const;
};

/// Tabulates a 2-D objective over an nx × ny grid spanning `bounds`.
/// Precondition: bounds.dimension() == 2, nx, ny >= 2.
[[nodiscard]] GridTable tabulate_2d(const Objective& objective,
                                    const Box& bounds, std::size_t nx,
                                    std::size_t ny);

/// Same surface through the problem's batch path (compiled tapes, thread
/// pool) — use this for large figure-quality grids. Values are identical to
/// the Objective overload over problem.bounds.
[[nodiscard]] GridTable tabulate_2d(const Problem& problem, std::size_t nx,
                                    std::size_t ny);

}  // namespace safeopt::opt

#endif  // SAFEOPT_OPT_PROBLEM_H
