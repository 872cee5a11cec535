// Monte Carlo estimation of hazard probabilities straight off the fault
// tree's structure function — the library's one sampler. It is the model-free
// cross-check for the analytic pipeline: the paper's Eq. 1/2 rest on
// independence assumptions and a rare-event approximation, and sampling
// validates both (the `montecarlo_validation` bench and the property tests
// use it as an oracle against exact BDD probabilities).
//
// With a stopping target it spends only as many trials as the requested
// precision needs; with `target_halfwidth = 0` it is the fixed-budget
// estimator behind the "mc" engine and runs to `max_trials`. For the rare
// events real safety cases live in (p ≪ 1e-6, where crude sampling would
// need ~1/p trials per digit) it can tilt the per-leaf sampling
// distributions so the top event is no longer rare *under the proposal*,
// with exact likelihood-ratio reweighting keeping the estimate unbiased.
//
// Two modes behind one loop:
//
//   crude      (tilt <= 1)  Bernoulli sampling at the input probabilities;
//                           estimate and stopping rule from the Wilson score
//                           interval of the hit proportion.
//   importance (tilt > 1)   every leaf with p < 1/2 is sampled at
//                           q = min(1/2, tilt·p) and each trial carries the
//                           exact likelihood ratio
//                           W = ∏ (p/q)^x ((1−p)/(1−q))^(1−x);
//                           the estimate is the sample mean of W·1{top} —
//                           unbiased because the tilt is exact per leaf —
//                           with a normal-approximation interval and
//                           effective-sample-size diagnostics.
//
// Sampling proceeds in rounds of `batch` trials; the stopping rule (target
// 95% CI half-width, absolute or relative) is evaluated between rounds, and
// the trial budget caps the loop. Rounds are partitioned into fixed-size
// chunks, each driven by its own xoshiro jump() stream, so the *entire
// trajectory* — estimate, interval and the stopped trial count — is a pure
// function of (tree, input, options): bitwise thread-count-invariant, with
// or without a pool. One call samples one input; each trial evaluates the
// tree's GateGraph over leaf-state vectors and a memo that the chunk runner
// allocates once and reuses.
#ifndef SAFEOPT_MC_ADAPTIVE_MONTE_CARLO_H
#define SAFEOPT_MC_ADAPTIVE_MONTE_CARLO_H

#include <cstdint>

#include "safeopt/fta/fault_tree.h"
#include "safeopt/fta/probability.h"
#include "safeopt/stats/estimators.h"

namespace safeopt {
class ThreadPool;
class ExecutionControl;  // support/execution.h
}

namespace safeopt::mc {

/// Stopping rule, budget, and proposal tilt for AdaptiveMonteCarlo.
struct AdaptiveOptions {
  /// Target 95% CI half-width. With `relative` set, the target is
  /// `target_halfwidth · estimate` (5% default ≈ two significant digits);
  /// otherwise it is absolute. 0 means no stopping target: the loop runs
  /// to `max_trials` and never reports `converged`. Must be >= 0 (and < 1
  /// when relative).
  double target_halfwidth = 0.05;
  bool relative = true;

  /// Trials per adaptive round; the stopping rule runs between rounds, so
  /// the stopped trial count is always a multiple of `batch` (except when
  /// the budget truncates the final round). Must be >= 1.
  std::uint64_t batch = 1 << 16;

  /// Hard trial budget; estimation stops here even when the target half-
  /// width has not been reached (AdaptiveResult::converged reports which).
  std::uint64_t max_trials = 1 << 22;

  /// Importance-sampling proposal tilt: every leaf with p < 1/2 is sampled
  /// at q = min(1/2, tilt · p). Values <= 1 disable importance sampling
  /// (crude Bernoulli sampling at the input probabilities).
  double tilt = 0.0;

  std::uint64_t seed = 0x5a4e0u;

  /// Optional worker pool for the per-round chunk fan-out. Not owned.
  /// Results are bitwise-identical with any pool, or none.
  ThreadPool* pool = nullptr;
};

/// Outcome of one adaptive estimation.
struct AdaptiveResult {
  double estimate = 0.0;
  stats::ConfidenceInterval ci95;
  /// Trials actually drawn (<= options.max_trials).
  std::uint64_t trials = 0;
  /// Raw top-event hits under the sampling distribution (the proposal when
  /// importance sampling — not an estimate of p on its own in that mode).
  std::uint64_t occurrences = 0;
  /// True when the target half-width was reached within the budget; always
  /// false without a stopping target (target_halfwidth = 0).
  bool converged = false;
  /// True when a deadline/cancellation cut the run short; the totals above
  /// then describe the last completed round. With zero completed rounds
  /// (the control fired before the first round finished) `trials` is 0 and
  /// `ci95` is the uninformative [0, 1].
  bool aborted = false;
  /// True when the estimate came from the tilted (importance) sampler.
  bool importance = false;
  /// Effective sample size (Σw)²/Σw² of the importance weights; equals
  /// `trials` for crude sampling. A small ESS/trials ratio flags a poorly
  /// matched proposal (tilt too aggressive).
  double ess = 0.0;

  [[nodiscard]] double halfwidth() const noexcept {
    return 0.5 * ci95.width();
  }
  /// True if the analytic value is inside the 95% interval.
  [[nodiscard]] bool consistent_with(double analytic) const noexcept {
    return ci95.contains(analytic);
  }
};

/// Sequential-batched estimator over one option set. Each estimate() call
/// samples one (tree, input) pair; its pool fans out the chunks of that one
/// input's rounds. The class itself holds no mutable state — it is safe to
/// share across threads as long as the configured pool is used from one
/// call at a time.
///
/// Every call takes an optional cooperative deadline/cancellation `control`
/// (not owned; nullptr = unbounded). It is polled before every slab of at
/// most max(1, pool threads) chunks — the first slab's poll is the round
/// boundary — so a round of any size is interruptible and only one slab of
/// chunk jobs is ever materialized. An aborted run returns the last
/// completed round's totals (converged = false, aborted = true): a torn
/// round is thrown away, so the thread-invariance contract is untouched and
/// the call never throws.
class AdaptiveMonteCarlo {
 public:
  /// Precondition: target_halfwidth >= 0 (< 1 when relative), batch >= 1,
  /// max_trials >= 1, tilt is not NaN.
  explicit AdaptiveMonteCarlo(AdaptiveOptions options = {});

  [[nodiscard]] const AdaptiveOptions& options() const noexcept {
    return options_;
  }

  /// Runs the loop for one input.
  /// Precondition: tree.has_top(), input.is_valid_for(tree).
  [[nodiscard]] AdaptiveResult estimate(
      const fta::FaultTree& tree, const fta::QuantificationInput& input,
      const ExecutionControl* control = nullptr) const;

 private:
  AdaptiveOptions options_;
};

}  // namespace safeopt::mc

#endif  // SAFEOPT_MC_ADAPTIVE_MONTE_CARLO_H
