// Experiment (cross-validation, our addition): the paper's quantification
// rests on Eq. 1/2's independence assumptions plus the rare-event
// approximation. This harness checks the whole analytic pipeline against
// two independent references on the Elbtunnel hazard models:
//   * exact BDD evaluation (no rare-event approximation),
//   * Monte Carlo sampling of the fault trees,
//   * the discrete-event traffic simulation (for the parameterized
//     overtime and exposure probabilities).
#include <cmath>
#include <cstdio>

#include "safeopt/bdd/bdd.h"
#include "safeopt/core/leaf_tapes.h"
#include "safeopt/elbtunnel/elbtunnel_model.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/fta/probability.h"
#include "safeopt/mc/adaptive_monte_carlo.h"
#include "safeopt/sim/traffic.h"
#include "safeopt/stats/distribution.h"
#include "safeopt/support/thread_pool.h"

int main() {
  using namespace safeopt;
  const elbtunnel::ElbtunnelModel model;

  std::printf("=== analytic vs exact vs sampled hazard probabilities ===\n\n");
  std::printf("false-alarm hazard, P(OHV) forced to 1 (Fig. 6 regime):\n");
  std::printf("%6s %14s %14s %14s %10s\n", "T2", "rare-event", "BDD exact",
              "Monte Carlo", "in CI?");
  const fta::FaultTree alarm_tree = model.false_alarm_tree();
  const auto quantification = model.false_alarm_quantification(alarm_tree);
  // Leaf probabilities come off compiled tapes (bitwise-identical to the
  // symbolic walk) and the MC trials run on the pooled, thread-count-
  // invariant sampler with no stopping target — the leaf-tape seam every
  // engine consumes, end to end.
  const core::LeafTapes leaves(quantification);
  const fta::CutSetCollection alarm_mcs = fta::minimal_cut_sets(alarm_tree);
  mc::AdaptiveOptions fixed;
  fixed.target_halfwidth = 0.0;
  fixed.max_trials = 1000000;
  fixed.pool = &ThreadPool::shared();
  const mc::AdaptiveMonteCarlo sampler(fixed);
  for (const double t2 : {5.0, 10.0, 15.6, 20.0, 30.0}) {
    fta::QuantificationInput input =
        leaves.input_at({{"T1", 30.0}, {"T2", t2}});
    input.condition_probability[0] = 1.0;  // OHV present
    const double rare = fta::top_event_probability(alarm_mcs, input);
    bdd::CompiledFaultTree compiled = bdd::compile(alarm_tree);
    const double exact = compiled.probability(input);
    const auto sampled = sampler.estimate(alarm_tree, input);
    std::printf("%6.1f %14.6e %14.6e %14.6e %10s\n", t2, rare, exact,
                sampled.estimate,
                sampled.consistent_with(exact) ? "yes" : "NO");
  }

  std::printf("\novertime probabilities vs 60 simulated days of traffic:\n");
  std::printf("%6s %6s %16s %16s\n", "T1", "T2", "analytic P(OT1)",
              "simulated");
  const stats::TruncatedNormal transit = stats::TruncatedNormal::nonnegative(
      model.parameters().transit_mean_min,
      model.parameters().transit_sigma_min);
  for (const double timer : {5.0, 6.5, 8.0, 10.0}) {
    sim::TrafficConfig config =
        model.traffic_config(timer, timer, elbtunnel::Design::kBaseline);
    config.ohv_arrival_rate_per_min = 0.05;
    config.horizon_minutes = 60.0 * 24.0 * 60.0;
    const auto stats = sim::simulate_height_control(config, 0xca11);
    std::printf("%6.1f %6.1f %16.6f %16.6f\n", timer, timer,
                transit.survival(timer), stats.overtime1_fraction());
  }

  std::printf("\ncorrect-OHV alarm fraction, analytic vs DES:\n");
  std::printf("%6s %16s %16s\n", "T2", "1-exp(-0.13 T2)", "simulated");
  for (const double t2 : {8.0, 15.6, 25.0}) {
    sim::TrafficConfig config =
        model.traffic_config(30.0, t2, elbtunnel::Design::kBaseline);
    config.ohv_arrival_rate_per_min = 0.02;
    config.horizon_minutes = 60.0 * 24.0 * 60.0;
    const auto stats = sim::simulate_height_control(config, 0xf1a6);
    std::printf("%6.1f %16.4f %16.4f\n", t2,
                1.0 - std::exp(-model.parameters().hv_left_rate_per_min * t2),
                stats.correct_ohv_alarm_fraction());
  }
  return 0;
}
