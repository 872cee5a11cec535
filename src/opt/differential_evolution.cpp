// Differential evolution (rand/1/bin): population-based global optimizer.
// The strongest general-purpose choice here when the cost surface has
// plateaus or multiple basins and dimensions beyond what grid search covers.
// Deterministic under a fixed seed.
#include <algorithm>
#include <cmath>

#include "builtin_solvers.h"
#include "safeopt/support/rng.h"

namespace safeopt::opt {
namespace {

constexpr OptionSpec kOptions[] = {
    {.name = "population", .kind = OptionKind::kCount, .min = 4,
     .max = 1000000, .zero_means = "auto", .fallback = 0,
     .doc = "population size (auto: max(15, 10 x dimension); at most "
            "1,000,000, since the population is allocated up front)"},
    {.name = "differential_weight", .kind = OptionKind::kNumber, .min = 0,
     .max = 2, .min_exclusive = true, .fallback = 0.7,
     .doc = "differential weight F of a + F(b - c)"},
    {.name = "crossover_rate", .kind = OptionKind::kNumber, .min = 0,
     .max = 1, .fallback = 0.9, .doc = "binomial crossover rate CR"},
    {.name = "generations", .kind = OptionKind::kCount, .min = 1,
     .fallback = 200, .doc = "generation cap"},
    {.name = "spread_tolerance", .kind = OptionKind::kNumber,
     .fallback = 1e-12,
     .doc = "stop once the best-to-worst value spread falls below it"},
    {.name = "synchronous_batch", .kind = OptionKind::kFlag, .fallback = 0,
     .doc = "evaluate each generation as one batch (synchronous DE)"},
};

/// Honors config.seed (default 0xd1ffe).
///
/// synchronous_batch=1 selects generation-synchronous evaluation: every
/// generation's trials are produced first and then evaluated in one
/// Problem::evaluate_batch call (the compiled-tape / thread-pool fast path),
/// with selection against the *previous* generation — textbook synchronous
/// DE. The default keeps the steady-state variant, where an accepted trial
/// can serve as a donor later in the same generation; the two trajectories
/// differ, so this is an explicit opt-in. For a fixed seed the synchronous
/// result is bitwise-independent of how the batch is parallelized.
class DifferentialEvolution final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "differential_evolution";
  }
  [[nodiscard]] SolverTraits traits() const noexcept override {
    return SolverTraits{.min_dimension = 2, .options = kOptions};
  }

 private:
  [[nodiscard]] OptimizationResult run(
      const Problem& problem, const SolverConfig& config) const override {
    const std::size_t population = count(config, "population");
    const double weight = number(config, "differential_weight");
    const double crossover_rate = number(config, "crossover_rate");
    const std::size_t generations = count(config, "generations");
    const double spread_tolerance = number(config, "spread_tolerance");
    const bool synchronous = number(config, "synchronous_batch") != 0.0;

    const std::size_t dim = problem.bounds.dimension();
    const std::size_t population_size =
        population != 0 ? population : std::max<std::size_t>(15, 10 * dim);

    OptimizationResult result;
    Rng rng(config.seed.value_or(0xd1ffe));

    std::vector<std::vector<double>> members(population_size,
                                             std::vector<double>(dim));
    std::vector<double> fitness(population_size);
    if (synchronous) {
      // Same RNG draw order as the scalar loop (draws happen point by
      // point, evaluation consumes no randomness), one batched evaluation.
      std::vector<double> flat(population_size * dim);
      for (std::size_t p = 0; p < population_size; ++p) {
        for (std::size_t i = 0; i < dim; ++i) {
          members[p][i] =
              uniform(rng, problem.bounds.lower[i], problem.bounds.upper[i]);
          flat[p * dim + i] = members[p][i];
        }
      }
      problem.evaluate_batch(flat, fitness);
      result.evaluations += population_size;
    } else {
      for (std::size_t p = 0; p < population_size; ++p) {
        for (std::size_t i = 0; i < dim; ++i) {
          members[p][i] =
              uniform(rng, problem.bounds.lower[i], problem.bounds.upper[i]);
        }
        fitness[p] = problem.objective(members[p]);
        ++result.evaluations;
      }
    }

    const auto spread = [&] {
      const auto [lo, hi] =
          std::minmax_element(fitness.begin(), fitness.end());
      return std::abs(*hi - *lo);
    };

    std::vector<double> trial(dim);
    std::vector<double> trials_flat(synchronous ? population_size * dim : 0);
    std::vector<double> trial_fitness(synchronous ? population_size : 0);
    for (std::size_t generation = 0; generation < generations; ++generation) {
      ++result.iterations;
      if (spread() < spread_tolerance) {
        result.converged = true;
        result.message = "population collapsed";
        break;
      }
      for (std::size_t p = 0; p < population_size; ++p) {
        // Pick three distinct agents a, b, c, all different from p.
        std::size_t a = 0;
        std::size_t b = 0;
        std::size_t c = 0;
        do {
          a = static_cast<std::size_t>(uniform_index(rng, population_size));
        } while (a == p);
        do {
          b = static_cast<std::size_t>(uniform_index(rng, population_size));
        } while (b == p || b == a);
        do {
          c = static_cast<std::size_t>(uniform_index(rng, population_size));
        } while (c == p || c == a || c == b);

        const std::size_t forced_axis =
            static_cast<std::size_t>(uniform_index(rng, dim));
        for (std::size_t i = 0; i < dim; ++i) {
          if (i == forced_axis || uniform01(rng) < crossover_rate) {
            trial[i] = members[a][i] +
                       weight * (members[b][i] - members[c][i]);
          } else {
            trial[i] = members[p][i];
          }
          trial[i] = std::clamp(trial[i], problem.bounds.lower[i],
                                problem.bounds.upper[i]);
        }
        if (synchronous) {
          // Stash the trial; the whole generation evaluates at once below.
          std::copy(trial.begin(), trial.end(),
                    trials_flat.begin() + static_cast<std::ptrdiff_t>(p * dim));
          continue;
        }
        const double f_trial = problem.objective(trial);
        ++result.evaluations;
        if (f_trial <= fitness[p]) {
          members[p] = trial;
          fitness[p] = f_trial;
        }
      }
      if (synchronous) {
        problem.evaluate_batch(trials_flat, trial_fitness);
        result.evaluations += population_size;
        for (std::size_t p = 0; p < population_size; ++p) {
          if (trial_fitness[p] <= fitness[p]) {
            const auto* begin = trials_flat.data() + p * dim;
            members[p].assign(begin, begin + dim);
            fitness[p] = trial_fitness[p];
          }
        }
      }
    }

    const auto best =
        std::min_element(fitness.begin(), fitness.end()) - fitness.begin();
    result.argmin = members[static_cast<std::size_t>(best)];
    result.value = fitness[static_cast<std::size_t>(best)];
    if (!result.converged) {
      result.converged = true;  // DE always returns its incumbent
      result.message = "generation budget exhausted";
    }
    return result;
  }
};

}  // namespace

std::unique_ptr<Solver> builtin::differential_evolution() {
  return std::make_unique<DifferentialEvolution>();
}

}  // namespace safeopt::opt
