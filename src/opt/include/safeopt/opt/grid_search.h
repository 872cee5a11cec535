// Exhaustive grid evaluation with iterative zoom. The paper (§III-B) notes
// that even when the problem is "neither analytically nor numerically
// solvable, this method can yield some results by testing possible
// combinations ... in very short time"; GridSearch is that method, upgraded
// with refinement rounds that shrink the box around the incumbent. It is also
// what regenerates the Fig. 5 surface.
#ifndef SAFEOPT_OPT_GRID_SEARCH_H
#define SAFEOPT_OPT_GRID_SEARCH_H

#include "safeopt/opt/problem.h"

namespace safeopt::opt {

class GridSearch final : public Optimizer {
 public:
  /// The defaults, shared with the "grid_search" registry entry.
  static constexpr std::size_t kDefaultPointsPerDimension = 33;
  static constexpr std::size_t kDefaultRefinementRounds = 5;

  /// `points_per_dimension` grid lines per axis per round (>= 2);
  /// `refinement_rounds` zoom-ins (1 = plain single grid). Each refinement
  /// re-grids a box of one grid-cell half-width around the incumbent.
  explicit GridSearch(
      std::size_t points_per_dimension = kDefaultPointsPerDimension,
      std::size_t refinement_rounds = kDefaultRefinementRounds);

  [[nodiscard]] OptimizationResult minimize(
      const Problem& problem) const override;
  [[nodiscard]] std::string name() const override { return "GridSearch"; }

 private:
  std::size_t points_per_dimension_;
  std::size_t refinement_rounds_;
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

#endif  // SAFEOPT_OPT_GRID_SEARCH_H
