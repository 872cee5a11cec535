// Exhaustive grid evaluation with iterative zoom. The paper (§III-B) notes
// that even when the problem is "neither analytically nor numerically
// solvable, this method can yield some results by testing possible
// combinations ... in very short time"; grid_search is that method, upgraded
// with refinement rounds that shrink the box around the incumbent.
#include <algorithm>
#include <cmath>
#include <limits>

#include "builtin_solvers.h"

namespace safeopt::opt {
namespace {

constexpr OptionSpec kOptions[] = {
    {.name = "points_per_dimension", .kind = OptionKind::kCount, .min = 2,
     .fallback = 33, .doc = "grid lines per axis per round"},
    {.name = "refinement_rounds", .kind = OptionKind::kCount, .min = 1,
     .fallback = 5, .doc = "zoom-in rounds (1 = one plain grid)"},
};

/// Each refinement re-grids a box of one grid-cell half-width around the
/// incumbent. Deterministic and start-point-free; config.initial is
/// ignored.
class GridSearch final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "grid_search";
  }
  [[nodiscard]] SolverTraits traits() const noexcept override {
    return SolverTraits{.options = kOptions};
  }

 private:
  [[nodiscard]] OptimizationResult run(
      const Problem& problem, const SolverConfig& config) const override {
    const std::size_t points = count(config, "points_per_dimension");
    const std::size_t rounds = count(config, "refinement_rounds");
    const std::size_t dim = problem.bounds.dimension();
    Box box = problem.bounds;
    OptimizationResult result;
    result.value = std::numeric_limits<double>::infinity();

    // Points are enumerated odometer-style (axis 0 fastest) into fixed-size
    // blocks and handed to the problem's batch path — which is where
    // compiled tapes and the thread pool come in. The argmin scan walks each
    // block in enumeration order with a strict '<', so the incumbent (and
    // therefore the refinement trajectory) is identical to one-at-a-time
    // evaluation.
    constexpr std::size_t kBlockRows = 4096;
    std::vector<double> block;
    block.reserve(kBlockRows * dim);
    std::vector<double> values(kBlockRows);
    std::vector<std::size_t> index(dim);

    for (std::size_t round = 0; round < rounds; ++round) {
      std::fill(index.begin(), index.end(), 0);
      bool done = false;
      while (!done) {
        block.clear();
        std::size_t rows = 0;
        while (!done && rows < kBlockRows) {
          for (std::size_t i = 0; i < dim; ++i) {
            const double t = static_cast<double>(index[i]) /
                             static_cast<double>(points - 1);
            block.push_back(box.lower[i] + t * (box.upper[i] - box.lower[i]));
          }
          ++rows;
          // Advance the odometer.
          std::size_t axis = 0;
          for (; axis < dim; ++axis) {
            if (++index[axis] < points) break;
            index[axis] = 0;
          }
          done = axis == dim;
        }
        problem.evaluate_batch(block, std::span<double>(values.data(), rows));
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
      // No value compared below +inf (every point NaN or +inf): there is
      // no incumbent to zoom on, so the search ends at the box center.
      if (result.argmin.empty()) {
        result.argmin = box.center();
        result.converged = false;
        result.message = "no grid point had a value below +inf";
        return result;
      }

      // Zoom: new box is one grid-cell half-width around the incumbent,
      // clipped to the original feasible box.
      Box next = box;
      for (std::size_t i = 0; i < dim; ++i) {
        const double cell = (box.upper[i] - box.lower[i]) /
                            static_cast<double>(points - 1);
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
};

}  // namespace

std::unique_ptr<Solver> builtin::grid_search() {
  return std::make_unique<GridSearch>();
}

}  // namespace safeopt::opt
