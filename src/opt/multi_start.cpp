// Multi-start meta-solver: runs any registered local solver from several
// deterministic quasi-random starting points and keeps the best result.
// Turns a local method (Nelder–Mead, Hooke–Jeeves, ...) into a practical
// global one on the compact boxes safety optimization works with.
//
// Starts are independent solves, so they parallelize embarrassingly: with
// config.pool, min(starts, threads) workers each claim the next start index
// until none is left (per-start work is uneven, so claiming one at a time
// balances better than a static split). Start points are drawn before any
// solve runs, each start writes only its own result slot, and the reduction
// runs afterwards in index order, so the result is bit-identical to the
// sequential run for any thread count — provided the problem's objective is
// thread-safe (expression evaluation and compiled tapes both are).
//
// Budgets and controls are enforced by the instrumentation solve() wraps
// around the problem every start evaluates: a refused evaluation unwinds
// the start that asked for it, and through the pool every other start.
#include <algorithm>
#include <atomic>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "builtin_solvers.h"
#include "safeopt/support/rng.h"
#include "safeopt/support/strings.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::opt {
namespace {

constexpr OptionSpec kOptions[] = {
    {.name = "inner", .kind = OptionKind::kEnum,
     .fallback_text = "nelder_mead",
     .doc = "registry name of the local solver each start runs; its own "
            "options pass through"},
    {.name = "starts", .kind = OptionKind::kCount, .min = 1, .max = 100000,
     .fallback = 8,
     .doc = "number of starts (at most 100,000: each start's point and "
            "result are allocated up front)"},
};

/// Honors config.seed (start-point stream, default 0x5eedbed) and
/// config.pool (concurrent starts). The inner solver inherits the stopping
/// rule, the seed and the extras its own table declares; observer, budget
/// and control instrumentation stays at the outer level, where it already
/// wraps the problem every start evaluates.
class MultiStart final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "multi_start";
  }
  [[nodiscard]] SolverTraits traits() const noexcept override {
    return SolverTraits{.options = kOptions};
  }

  /// Checks `inner` by name, then every extra against this table and the
  /// inner solver's together.
  void check_options(const SolverConfig& config) const override {
    const std::unique_ptr<Solver> inner = inner_solver(config);
    std::vector<OptionSpec> rows(std::begin(kOptions), std::end(kOptions));
    const std::span<const OptionSpec> inner_rows = inner->traits().options;
    rows.insert(rows.end(), inner_rows.begin(), inner_rows.end());
    check_extras(concat(name(), " (inner ", inner->name(), ")"), rows, config);
  }

  /// Also runs the inner solver's own validate() on the problem (its
  /// capability check), so a start never fails inside a pool worker.
  void validate(const Problem& problem,
                const SolverConfig& config) const override {
    Solver::validate(problem, config);
    const std::unique_ptr<Solver> inner = inner_solver(config);
    inner->validate(problem, inner_config(*inner, config));
  }

 private:
  /// The solver `inner` names: registered, and not multi_start itself.
  [[nodiscard]] std::unique_ptr<Solver> inner_solver(
      const SolverConfig& config) const {
    if (const auto it = config.extras().find("inner");
        it != config.extras().end()) {
      (void)check_option(kOptions[0], it->second, name());  // a name
    }
    const std::string inner_name =
        config.string_or("inner", kOptions[0].fallback_text);
    if (inner_name == name()) {
      throw std::invalid_argument(
          "multi_start cannot wrap itself as the \"inner\" solver");
    }
    return SolverRegistry::create(inner_name);
  }

  /// What every start runs with: the stopping rule, the seed and the
  /// extras `inner` declares, without instrumentation or a pool.
  [[nodiscard]] static SolverConfig inner_config(const Solver& inner,
                                                 const SolverConfig& config) {
    SolverConfig out;
    out.max_iterations = config.max_iterations;
    out.tolerance = config.tolerance;
    out.seed = config.seed;
    for (const OptionSpec& row : inner.traits().options) {
      const auto it = config.extras().find(row.name);
      if (it != config.extras().end()) out.set(row.name, it->second);
    }
    return out;
  }

  [[nodiscard]] OptimizationResult run(
      const Problem& problem, const SolverConfig& config) const override {
    const std::size_t starts = count(config, "starts");
    const std::unique_ptr<Solver> inner = inner_solver(config);
    const SolverConfig start_base = inner_config(*inner, config);

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

    // Each worker claims the next start index until none is left.
    std::vector<OptimizationResult> results(starts);
    std::atomic<std::size_t> next{0};
    const auto claim_starts = [&](std::size_t, std::size_t) {
      for (std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
           s < starts; s = next.fetch_add(1, std::memory_order_relaxed)) {
        SolverConfig start_config = start_base;
        start_config.initial = std::move(points[s]);
        results[s] = inner->solve(problem, start_config);
      }
    };
    if (config.pool != nullptr) {
      config.pool->parallel_for(
          std::min(starts, config.pool->thread_count()), claim_starts);
    } else {
      claim_starts(0, 1);
    }

    // Sequential reduction in index order with a strict '<' — same winner
    // (first best) as a one-at-a-time loop.
    OptimizationResult best;
    std::size_t total_evaluations = 0;
    std::size_t total_iterations = 0;
    for (std::size_t s = 0; s < starts; ++s) {
      total_evaluations += results[s].evaluations;
      total_iterations += results[s].iterations;
      if (s == 0 || results[s].value < best.value) {
        best = std::move(results[s]);
      }
    }
    best.evaluations = total_evaluations;
    best.iterations = total_iterations;
    best.message =
        concat("best of ", std::to_string(starts), " starts: ", best.message);
    return best;
  }
};

}  // namespace

std::unique_ptr<Solver> builtin::multi_start() {
  return std::make_unique<MultiStart>();
}

}  // namespace safeopt::opt
