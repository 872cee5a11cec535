#include "safeopt/mc/adaptive_monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "safeopt/stats/special_functions.h"
#include "safeopt/support/contracts.h"
#include "safeopt/support/execution.h"
#include "safeopt/support/rng.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::mc {
namespace {

/// Chunk granularity of one round. The chunk layout depends only on the
/// options (never on the pool), which is what makes the stopped trial count
/// and every accumulated total thread-count-invariant.
constexpr std::uint64_t kChunkTrials = 4096;

/// Minimum raw hits before a relative-target or importance-sampled stopping
/// decision is trusted: a relative target against a one-hit estimate, or a
/// zero-hit weighted sample (whose observed variance is 0, not small), would
/// otherwise stop on noise.
constexpr std::uint64_t kMinHits = 8;

/// The tilted per-leaf proposal: q = min(1/2, tilt·p) for rare leaves, with
/// the exact per-leaf likelihood-ratio factors precomputed. Leaves at p = 0
/// or p >= 1/2 are left untouched (factor 1): a zero-probability leaf cannot
/// fire under the model, and boosting an already-likely leaf past 1/2 only
/// adds weight variance.
struct Proposal {
  std::vector<double> basic_q, basic_w1, basic_w0;
  std::vector<double> cond_q, cond_w1, cond_w0;
};

void tilt_leaves(const std::vector<double>& p, double tilt,
                 std::vector<double>& q, std::vector<double>& w1,
                 std::vector<double>& w0) {
  q.resize(p.size());
  w1.assign(p.size(), 1.0);
  w0.assign(p.size(), 1.0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    q[i] = p[i];
    if (p[i] <= 0.0 || p[i] >= 0.5) continue;
    q[i] = std::min(0.5, p[i] * tilt);
    if (q[i] == p[i]) continue;
    w1[i] = p[i] / q[i];
    w0[i] = (1.0 - p[i]) / (1.0 - q[i]);
  }
}

Proposal make_proposal(const fta::QuantificationInput& input, double tilt) {
  Proposal proposal;
  tilt_leaves(input.basic_event_probability, tilt, proposal.basic_q,
              proposal.basic_w1, proposal.basic_w0);
  tilt_leaves(input.condition_probability, tilt, proposal.cond_q,
              proposal.cond_w1, proposal.cond_w0);
  return proposal;
}

/// Partial sums of one chunk. Chunks are reduced in chunk order, so every
/// total is a pure function of the chunk layout.
struct ChunkSums {
  std::uint64_t trials = 0;
  std::uint64_t hits = 0;
  double sum_w = 0.0;    // Σ W                (importance mode only)
  double sum_w2 = 0.0;   // Σ W²
  double sum_wi = 0.0;   // Σ W·1{top}
  double sum_wi2 = 0.0;  // Σ (W·1{top})²
};

ChunkSums run_crude_chunk(const fta::GateGraph& graph,
                          const fta::QuantificationInput& input, Rng rng,
                          std::uint64_t trials, std::vector<bool>& basic,
                          std::vector<bool>& condition,
                          std::span<signed char> memo) {
  ChunkSums sums;
  sums.trials = trials;
  for (std::uint64_t t = 0; t < trials; ++t) {
    for (std::size_t i = 0; i < basic.size(); ++i) {
      basic[i] = bernoulli(rng, input.basic_event_probability[i]);
    }
    for (std::size_t i = 0; i < condition.size(); ++i) {
      condition[i] = bernoulli(rng, input.condition_probability[i]);
    }
    if (graph.evaluate(basic, condition, memo)) ++sums.hits;
  }
  return sums;
}

ChunkSums run_importance_chunk(const fta::GateGraph& graph,
                               const Proposal& proposal, Rng rng,
                               std::uint64_t trials, std::vector<bool>& basic,
                               std::vector<bool>& condition,
                               std::span<signed char> memo) {
  ChunkSums sums;
  sums.trials = trials;
  for (std::uint64_t t = 0; t < trials; ++t) {
    double w = 1.0;
    for (std::size_t i = 0; i < basic.size(); ++i) {
      const bool x = bernoulli(rng, proposal.basic_q[i]);
      basic[i] = x;
      w *= x ? proposal.basic_w1[i] : proposal.basic_w0[i];
    }
    for (std::size_t i = 0; i < condition.size(); ++i) {
      const bool x = bernoulli(rng, proposal.cond_q[i]);
      condition[i] = x;
      w *= x ? proposal.cond_w1[i] : proposal.cond_w0[i];
    }
    sums.sum_w += w;
    sums.sum_w2 += w * w;
    if (graph.evaluate(basic, condition, memo)) {
      ++sums.hits;
      sums.sum_wi += w;
      sums.sum_wi2 += w * w;
    }
  }
  return sums;
}

/// Running totals of the adaptive loop and the result of its last completed
/// round.
struct AdaptiveState {
  std::uint64_t done = 0;
  std::uint64_t hits = 0;
  stats::ProportionEstimator crude;
  double sum_w = 0.0, sum_w2 = 0.0, sum_wi = 0.0, sum_wi2 = 0.0;
  AdaptiveResult result;
};

/// One chunk of the current round, with its result slot.
struct ChunkJob {
  Rng rng{0};
  std::uint64_t trials = 0;
  ChunkSums sums;
};

/// Updates the state's estimate/interval from its totals and applies the
/// stopping rule; true when the loop is finished (converged, or the budget
/// is spent). `z` is the 97.5% normal quantile (95% two-sided).
bool finish_round(AdaptiveState& s, const AdaptiveOptions& options,
                  bool importance, double z) {
  double estimate = 0.0;
  double halfwidth = 0.0;
  stats::ConfidenceInterval ci;
  if (importance) {
    const auto n = static_cast<double>(s.done);
    estimate = s.sum_wi / n;
    double variance = 0.0;
    if (s.done >= 2) {
      variance =
          std::max(0.0, (s.sum_wi2 - n * estimate * estimate) /
                            (n - 1.0));
    }
    halfwidth = z * std::sqrt(variance / n);
    ci = {std::max(0.0, estimate - halfwidth),
          std::min(1.0, estimate + halfwidth)};
  } else {
    estimate = s.crude.estimate();
    ci = s.crude.wilson(0.95);
    halfwidth = 0.5 * ci.width();
  }

  const double target = options.relative
                            ? options.target_halfwidth * estimate
                            : options.target_halfwidth;
  // A relative target against estimate = 0 is unreachable by construction
  // (target 0 < any honest half-width); the zero-hit importance sample is
  // excluded by the kMinHits guard, not by a width test — its *observed*
  // half-width is 0, which says nothing at all.
  const bool trustworthy =
      (!importance && !options.relative) || s.hits >= kMinHits;
  // target_halfwidth = 0 is "no stopping target": run to the budget.
  const bool converged = options.target_halfwidth > 0.0 && trustworthy &&
                         halfwidth <= target &&
                         (!options.relative || estimate > 0.0);

  s.result.estimate = estimate;
  s.result.ci95 = ci;
  s.result.trials = s.done;
  s.result.occurrences = s.hits;
  s.result.converged = converged;
  s.result.importance = importance;
  s.result.ess =
      importance
          ? (s.sum_w2 > 0.0 ? s.sum_w * s.sum_w / s.sum_w2 : 0.0)
          : static_cast<double>(s.done);
  return converged || s.done >= options.max_trials;
}

}  // namespace

AdaptiveMonteCarlo::AdaptiveMonteCarlo(AdaptiveOptions options)
    : options_(options) {
  SAFEOPT_EXPECTS(options_.target_halfwidth >= 0.0);
  SAFEOPT_EXPECTS(!options_.relative || options_.target_halfwidth < 1.0);
  SAFEOPT_EXPECTS(options_.batch >= 1);
  SAFEOPT_EXPECTS(options_.max_trials >= 1);
  SAFEOPT_EXPECTS(!std::isnan(options_.tilt));
}

AdaptiveResult AdaptiveMonteCarlo::estimate(
    const fta::FaultTree& tree, const fta::QuantificationInput& input,
    const ExecutionControl* control) const {
  SAFEOPT_EXPECTS(tree.has_top());
  SAFEOPT_EXPECTS(input.is_valid_for(tree));
  const fta::GateGraph& graph = tree.graph();
  const bool importance = options_.tilt > 1.0;
  const double z = stats::normal_quantile(0.975);
  // Chunks per slab: enough to keep every worker busy, and the most chunk
  // jobs that ever exist at once however large `batch` is.
  const std::size_t slab =
      options_.pool != nullptr
          ? std::max<std::size_t>(1, options_.pool->thread_count())
          : 1;
  const Proposal proposal =
      importance ? make_proposal(input, options_.tilt) : Proposal{};

  std::vector<ChunkJob> jobs;
  jobs.reserve(slab);
  const auto run_jobs = [&](std::size_t begin, std::size_t end) {
    std::vector<bool> basic(graph.basic_event_count);
    std::vector<bool> condition(graph.condition_count);
    std::vector<signed char> memo(graph.nodes.size());
    for (std::size_t j = begin; j < end; ++j) {
      ChunkJob& job = jobs[j];
      job.sums = importance
                     ? run_importance_chunk(graph, proposal, job.rng,
                                            job.trials, basic, condition, memo)
                     : run_crude_chunk(graph, input, job.rng, job.trials,
                                       basic, condition, memo);
    }
  };

  AdaptiveState state;
  Rng stream(options_.seed);  // the next chunk's generator, jump()ed per chunk
  for (bool finished = false; !finished;) {
    // The next round: min(batch, budget left) trials, handed out below as
    // kChunkTrials-sized chunks, each on its own jump() stream. The layout
    // depends only on the options, never on the pool.
    std::uint64_t round_left =
        std::min(options_.batch, options_.max_trials - state.done);
    // Run the round slab by slab, in chunk order.
    while (round_left > 0) {
      jobs.clear();
      while (jobs.size() < slab && round_left > 0) {
        ChunkJob job;
        job.rng = stream;
        stream.jump();
        job.trials = std::min(kChunkTrials, round_left);
        round_left -= job.trials;
        jobs.push_back(job);
      }

      // The abort poll, once per slab; the round's first slab polls at the
      // round boundary. The result keeps the last finish_round() values and
      // the torn round's partial totals are never published, so only
      // completed-round totals (thread-count-invariant) can surface; an
      // abort during the first round reports zero trials. Aborted estimates
      // are flagged, never thrown: a partial estimate with an honest
      // interval is still a result.
      if (control != nullptr && control->should_abort()) {
        state.result.aborted = true;
        state.result.importance = importance;
        // No completed round: nothing is known about p, and the interval
        // says so instead of claiming a certain zero.
        if (state.result.trials == 0) state.result.ci95 = {0.0, 1.0};
        return state.result;
      }

      if (options_.pool != nullptr && jobs.size() > 1) {
        options_.pool->parallel_for(jobs.size(), run_jobs);
      } else {
        run_jobs(0, jobs.size());
      }

      // Reduce in job order — the chunks arrive in chunk order across
      // slabs, so the floating-point totals accumulate in exactly the order
      // of a single whole-round reduction.
      for (const ChunkJob& job : jobs) {
        state.done += job.sums.trials;
        state.hits += job.sums.hits;
        state.crude.add_batch(job.sums.trials, job.sums.hits);
        state.sum_w += job.sums.sum_w;
        state.sum_w2 += job.sums.sum_w2;
        state.sum_wi += job.sums.sum_wi;
        state.sum_wi2 += job.sums.sum_wi2;
      }
    }
    finished = finish_round(state, options_, importance, z);
  }
  return state.result;
}

}  // namespace safeopt::mc
