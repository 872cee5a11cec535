// Multi-start meta-solver: runs any registered local solver from several
// deterministic quasi-random starting points and keeps the best result.
// Turns a local method (Nelder–Mead, Hooke–Jeeves, ...) into a practical
// global one on the compact boxes safety optimization works with.
//
// Starts are independent solves, so they parallelize embarrassingly: with
// config.pool they run concurrently. Start points are drawn before any
// solve runs and the reduction is by (value, start index), so the result is
// identical to the sequential run for any thread count — provided the
// problem's objective is thread-safe (expression evaluation and compiled
// tapes both are).
#include <stdexcept>

#include "builtin_solvers.h"
#include "safeopt/support/rng.h"
#include "safeopt/support/strings.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::opt {
namespace {

/// Extras: "inner" (registry name of the local solver, default
/// "nelder_mead") and "starts" (default 8). Honors config.seed (start-point
/// stream, default 0x5eedbed) and config.pool (concurrent starts). The inner
/// solver inherits the stopping rule and the remaining extras;
/// observer/budget instrumentation stays at the outer level, where it
/// already wraps the problem every start evaluates.
class MultiStart final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "multi_start";
  }

 private:
  [[nodiscard]] OptimizationResult run(
      const Problem& problem, const SolverConfig& config) const override {
    const std::string inner_name = config.string_or("inner", "nelder_mead");
    const std::size_t starts = config.count_or("starts", 8);
    if (starts == 0) {
      throw std::invalid_argument("multi_start: \"starts\" must be >= 1");
    }
    if (inner_name == name()) {
      // The inner config inherits this config's extras — including "inner"
      // — so self-nesting would recurse with 8^depth fan-out.
      throw std::invalid_argument(
          "multi_start cannot wrap itself as the \"inner\" solver");
    }
    // Validate the inner solver against this problem up front: a clear
    // error here beats one thrown later from inside a pool worker.
    const std::unique_ptr<Solver> inner = SolverRegistry::create(inner_name);
    inner->check(problem);
    SolverConfig inner_config = config;
    inner_config.observer = nullptr;
    inner_config.max_evaluations = 0;
    inner_config.pool = nullptr;

    // Draw every start before any solve runs, so the start list (and with
    // it the whole result) does not depend on scheduling. Start 0 is the
    // box center (the "engineer's default"); the rest are uniform random
    // points.
    const std::size_t dim = problem.bounds.dimension();
    Rng rng(config.seed.value_or(0x5eedbed));
    std::vector<std::vector<double>> points(starts, std::vector<double>(dim));
    points[0] = problem.bounds.center();
    for (std::size_t s = 1; s < starts; ++s) {
      for (std::size_t i = 0; i < dim; ++i) {
        points[s][i] =
            uniform(rng, problem.bounds.lower[i], problem.bounds.upper[i]);
      }
    }

    std::vector<OptimizationResult> results(starts);
    const auto run_range = [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) {
        SolverConfig start_config = inner_config;
        start_config.initial = std::move(points[s]);
        results[s] = inner->solve(problem, start_config);
      }
    };
    if (config.pool != nullptr) {
      config.pool->parallel_for(starts, run_range);
    } else {
      run_range(0, starts);
    }

    // Sequential reduction with a strict '<' — same winner (first best) as
    // a one-at-a-time loop.
    OptimizationResult best;
    std::size_t total_evaluations = 0;
    std::size_t total_iterations = 0;
    bool first = true;
    for (OptimizationResult& result : results) {
      total_evaluations += result.evaluations;
      total_iterations += result.iterations;
      if (first || result.value < best.value) {
        best = std::move(result);
        first = false;
      }
    }
    best.evaluations = total_evaluations;
    best.iterations = total_iterations;
    best.message = concat("best of ", std::to_string(starts), " starts: ",
                          best.message);
    return best;
  }
};

}  // namespace

std::unique_ptr<Solver> builtin::multi_start() {
  return std::make_unique<MultiStart>();
}

}  // namespace safeopt::opt
