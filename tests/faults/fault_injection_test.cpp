// Deterministic fault-injection coverage for the resilient-execution layer:
// every cooperative abort path (BDD node budget, BDD/prep deadline, Monte
// Carlo per-slab abort, solver cancellation) must hand back a
// well-formed partial result or a categorized safeopt::Error — never a torn
// structure, a crash, or a hang. Faults fire through the FaultInjector's
// scripted controls (tests/testutil/fault_injector.h), so each test pins the
// abort to an exact checkpoint without wall-clock sleeps.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "safeopt/bdd/bdd.h"
#include "safeopt/core/quantification_engine.h"
#include "safeopt/core/study.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/mc/adaptive_monte_carlo.h"
#include "safeopt/opt/problem.h"
#include "safeopt/opt/solver.h"
#include "safeopt/prep/preprocess.h"
#include "safeopt/support/error.h"
#include "safeopt/support/execution.h"
#include "safeopt/support/strings.h"
#include "safeopt/support/thread_pool.h"
#include "testutil/fault_injector.h"

namespace safeopt {
namespace {

using testutil::FaultInjector;

// A coherent tree whose BDD needs well over a handful of decision nodes:
// 3-of-8 voting over independent events.
fta::FaultTree voting_tree() {
  fta::FaultTree tree("voting");
  std::vector<fta::NodeId> leaves;
  for (int i = 0; i < 8; ++i) {
    // concat instead of operator+: gcc 12's -Wrestrict false positive
    // (PR105651) fires on `const char* + std::string&&` under -O3.
    leaves.push_back(tree.add_basic_event(concat("e", std::to_string(i))));
  }
  tree.set_top(tree.add_k_of_n("top", 3, std::move(leaves)));
  return tree;
}

fta::QuantificationInput uniform_input(const fta::FaultTree& tree, double p) {
  fta::QuantificationInput input = fta::QuantificationInput::for_tree(tree, p);
  return input;
}

// ------------------------------------------------------------- error basics

TEST(ErrorTaxonomyTest, CategoriesNameAndRecoverability) {
  EXPECT_EQ(category_name(ErrorCategory::kInvalidInput), "invalid_input");
  EXPECT_EQ(category_name(ErrorCategory::kResourceExhausted),
            "resource_exhausted");
  EXPECT_EQ(category_name(ErrorCategory::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(category_name(ErrorCategory::kCancelled), "cancelled");
  EXPECT_EQ(category_name(ErrorCategory::kInternal), "internal");

  EXPECT_TRUE(Error(ErrorCategory::kResourceExhausted, "x").recoverable());
  EXPECT_TRUE(Error(ErrorCategory::kDeadlineExceeded, "x").recoverable());
  EXPECT_FALSE(Error(ErrorCategory::kCancelled, "x").recoverable());
  EXPECT_FALSE(Error(ErrorCategory::kInvalidInput, "x").recoverable());
  EXPECT_FALSE(Error(ErrorCategory::kInternal, "x").recoverable());
}

TEST(ExecutionControlTest, CancellationWinsOverDeadline) {
  ExecutionControl control(Deadline::already_expired());
  EXPECT_EQ(control.status(), ExecutionStatus::kDeadlineExceeded);
  control.token.request_cancel();
  EXPECT_EQ(control.status(), ExecutionStatus::kCancelled);
}

TEST(ExecutionControlTest, ParentControlPropagates) {
  const ExecutionControl parent = FaultInjector::cancelled();
  ExecutionControl child;
  child.parent = &parent;
  EXPECT_EQ(child.status(), ExecutionStatus::kCancelled);
  EXPECT_TRUE(child.should_abort());
}

TEST(ExecutionControlTest, CheckThrowsCategorizedError) {
  const ExecutionControl control = FaultInjector::expired_deadline();
  try {
    control.check("unit test");
    FAIL() << "check() on an expired control must throw";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kDeadlineExceeded);
    EXPECT_NE(std::string(error.what()).find("unit test"), std::string::npos);
  }
}

// ----------------------------------------------------------- BDD node budget

TEST(BddFaultTest, NodeBudgetAbortsWithConsistentStatistics) {
  bdd::BddOptions options;
  options.node_budget = 4;
  bdd::BddManager manager(16, options);
  bool threw = false;
  try {
    bdd::BddRef f = manager.variable(0);
    for (std::uint32_t v = 1; v < 16; ++v) {
      f = manager.apply_or(f, manager.variable(v));
    }
  } catch (const Error& error) {
    threw = true;
    EXPECT_EQ(error.category(), ErrorCategory::kResourceExhausted);
    EXPECT_TRUE(error.recoverable());
    EXPECT_NE(std::string(error.what()).find("node budget"),
              std::string::npos);
  }
  EXPECT_TRUE(threw);
  // The manager survives the abort in a consistent, queryable state: the
  // statistics invariant (live == peak, no GC) still holds and the counter
  // shows exactly one node past the budget — the allocation that tripped it.
  const bdd::BddStatistics& stats = manager.statistics();
  EXPECT_EQ(stats.decision_node_count(), options.node_budget + 1);
  EXPECT_EQ(stats.node_count, stats.peak_node_count);
}

TEST(BddFaultTest, CompileHonoursNodeBudget) {
  const fta::FaultTree tree = voting_tree();
  bdd::BddOptions options;
  options.node_budget = 3;
  try {
    (void)bdd::compile(tree, options);
    FAIL() << "3-of-8 voting cannot compile within 3 decision nodes";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kResourceExhausted);
  }
}

TEST(BddFaultTest, CompileChecksDeadlinePerGate) {
  const fta::FaultTree tree = voting_tree();
  const ExecutionControl control = FaultInjector::expired_deadline();
  bdd::BddOptions options;
  options.control = &control;
  try {
    (void)bdd::compile(tree, options);
    FAIL() << "compile under an expired deadline must abort";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kDeadlineExceeded);
    EXPECT_NE(std::string(error.what()).find("BDD compilation"),
              std::string::npos);
  }
}

// ------------------------------------------------------------ MOCUS polls

TEST(MocusFaultTest, FtaEngineOnTheCorpusTierStopsAtAPoll) {
  // The 1k tier's 25-of-50 top vote alone has C(50, 25) subsets, so MOCUS
  // would expand for as long as anyone waits. It polls the engine's
  // construction control, and the injected deadline stops it after a few
  // polls with the deadline taxonomy.
  const ftio::StudyDocument document = ftio::load_study(
      std::string(SAFEOPT_SOURCE_DIR) + "/examples/corpus/corpus_1k.ft");
  const fta::FaultTree& tree = document.trees.front().tree;
  FaultInjector injector;
  const ExecutionControl control =
      injector.fire_after_polls(3, ExecutionStatus::kDeadlineExceeded);
  try {
    (void)core::EngineRegistry::create("fta", tree, core::EngineConfig{},
                                       &control);
    FAIL() << "MOCUS on the 1k tier must stop at the injected deadline";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kDeadlineExceeded);
    EXPECT_NE(std::string(error.what()).find("minimal cut set generation"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(injector.polls(), 4u);
}

TEST(MocusFaultTest, EveryPhaseOfMocusPolls) {
  // A control that never fires sees polls from the expansion, the
  // absorption and the minimality postcondition alike: a tree whose run
  // takes tens of thousands of steps is polled more than a handful of
  // times, and the cut sets match the unpolled run.
  const fta::FaultTree tree = []{
    fta::FaultTree t("wide");
    std::vector<fta::NodeId> leaves;
    for (int i = 0; i < 14; ++i) {
      leaves.push_back(t.add_basic_event(concat("e", std::to_string(i))));
    }
    t.set_top(t.add_k_of_n("top", 5, std::move(leaves)));
    return t;
  }();
  FaultInjector injector;
  const ExecutionControl control =
      injector.fire_after_polls(1u << 30, ExecutionStatus::kDeadlineExceeded);
  const fta::CutSetCollection polled = fta::minimal_cut_sets(tree, &control);
  EXPECT_EQ(polled.sets(), fta::minimal_cut_sets(tree).sets());
  EXPECT_EQ(polled.size(), 2002u);  // C(14, 5)
  EXPECT_GT(injector.polls(), 10u);
}

TEST(BddFaultTest, CancelledCompileReportsCancellation) {
  const fta::FaultTree tree = voting_tree();
  ExecutionControl control(Deadline::already_expired());
  control.token.request_cancel();  // cancellation outranks the deadline
  bdd::BddOptions options;
  options.control = &control;
  try {
    (void)bdd::compile(tree, options);
    FAIL() << "compile under a cancelled control must abort";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kCancelled);
  }
}

// ------------------------------------------------------- prep pass pipeline

TEST(PrepFaultTest, DeadlineAbortsBetweenPassesLeavingInputUntouched) {
  const fta::FaultTree tree = voting_tree();
  const std::size_t nodes_before = tree.node_count();
  const ExecutionControl control = FaultInjector::expired_deadline();
  prep::PreprocessOptions options;
  options.control = &control;
  try {
    (void)prep::preprocess(tree, options);
    FAIL() << "preprocess under an expired deadline must abort";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kDeadlineExceeded);
    EXPECT_NE(std::string(error.what()).find("preprocessing"),
              std::string::npos);
  }
  EXPECT_EQ(tree.node_count(), nodes_before);
  EXPECT_TRUE(tree.validate().empty());
}

// ------------------------------------------------------ Monte Carlo abort

mc::AdaptiveOptions small_round_options() {
  mc::AdaptiveOptions options;
  options.batch = 1024;
  options.max_trials = 1 << 20;
  options.target_halfwidth = 1e-12;  // unreachable: the loop never converges
  options.relative = false;
  return options;
}

TEST(McFaultTest, AbortBeforeFirstRoundReportsZeroTrials) {
  const fta::FaultTree tree = voting_tree();
  const ExecutionControl control = FaultInjector::expired_deadline();
  const mc::AdaptiveMonteCarlo sampler(small_round_options());
  const mc::AdaptiveResult result =
      sampler.estimate(tree, uniform_input(tree, 0.2), &control);
  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.trials, 0u);
  EXPECT_EQ(result.occurrences, 0u);
}

// With no completed round nothing is known about p: both Monte Carlo
// engines report zero trials with the uninformative [0, 1] interval next
// to the abort flag, not a certain zero.
TEST(McFaultTest, AbortBeforeFirstRoundReportsTheUninformativeInterval) {
  fta::FaultTree tree("or2");
  const fta::NodeId a = tree.add_basic_event("a");
  const fta::NodeId b = tree.add_basic_event("b");
  tree.set_top(tree.add_or("top", {a, b}));
  const ExecutionControl control = FaultInjector::expired_deadline();
  for (const char* engine : {"mc", "mc_adaptive"}) {
    SCOPED_TRACE(engine);
    const core::QuantificationResult result =
        core::EngineRegistry::create(engine, tree, {})
            ->quantify(uniform_input(tree, 0.1), &control);
    ASSERT_TRUE(result.aborted.has_value());
    EXPECT_TRUE(*result.aborted);
    EXPECT_EQ(result.trials, 0u);
    ASSERT_TRUE(result.ci95.has_value());
    EXPECT_EQ(result.ci95->lo, 0.0);
    EXPECT_EQ(result.ci95->hi, 1.0);
  }
}

TEST(McFaultTest, AbortedRunEqualsLastCompletedRoundBitwise) {
  const fta::FaultTree tree = voting_tree();
  const fta::QuantificationInput input = uniform_input(tree, 0.2);

  // Run A: the control lets exactly two round-boundary polls pass, so the
  // run aborts with two completed rounds in the totals.
  FaultInjector injector;
  const ExecutionControl control =
      injector.fire_after_polls(2, ExecutionStatus::kDeadlineExceeded);
  const mc::AdaptiveOptions options = small_round_options();
  const mc::AdaptiveResult aborted =
      mc::AdaptiveMonteCarlo(options).estimate(tree, input, &control);

  // Run B: no control, but a trial budget of exactly two rounds. The abort
  // contract says A must be bitwise identical to B in every estimate field —
  // completed rounds are the only observable state an abort can expose.
  mc::AdaptiveOptions capped = small_round_options();
  capped.max_trials = 2 * capped.batch;
  const mc::AdaptiveResult reference =
      mc::AdaptiveMonteCarlo(capped).estimate(tree, input);

  EXPECT_TRUE(aborted.aborted);
  EXPECT_FALSE(reference.aborted);
  EXPECT_FALSE(aborted.converged);
  EXPECT_EQ(aborted.trials, 2 * options.batch);
  EXPECT_EQ(aborted.trials, reference.trials);
  EXPECT_EQ(aborted.occurrences, reference.occurrences);
  EXPECT_EQ(aborted.estimate, reference.estimate);
  EXPECT_EQ(aborted.ci95.lo, reference.ci95.lo);
  EXPECT_EQ(aborted.ci95.hi, reference.ci95.hi);
  EXPECT_EQ(aborted.ess, reference.ess);
}

TEST(McFaultTest, EngineDeadlineYieldsPartialAbortedResult) {
  const fta::FaultTree tree = voting_tree();
  const ExecutionControl control = FaultInjector::cancelled();
  core::EngineConfig config;
  config.mc_trials = 1 << 16;
  const auto engine = core::EngineRegistry::create("mc_adaptive", tree, config);
  const core::QuantificationResult result =
      engine->quantify(uniform_input(tree, 0.2), &control);
  ASSERT_TRUE(result.aborted.has_value());
  EXPECT_TRUE(*result.aborted);
  ASSERT_TRUE(result.converged.has_value());
  EXPECT_FALSE(*result.converged);
  EXPECT_EQ(result.trials, 0u);
}

TEST(McFaultTest, FixedBudgetMcEngineAbortsAtTheLastCompletedRound) {
  const fta::FaultTree tree = voting_tree();
  const fta::QuantificationInput input = uniform_input(tree, 0.2);

  // Reference: a "mc" run whose budget is exactly one default round
  // (65536 trials = 16 chunks of 4096), with no control.
  core::EngineConfig capped;
  capped.mc_trials = capped.batch;
  const core::QuantificationResult reference =
      core::EngineRegistry::create("mc", tree, capped)->quantify(input);

  // A large budget under a control that fires during the second round:
  // without a pool every chunk is its own slab (16 polls per round), with
  // three workers slabs hold three chunks (6 polls per round). Either way
  // the torn second round is thrown away and the result is the first
  // round's, bit for bit.
  ThreadPool pool(3);
  for (const auto& [workers, polls] :
       {std::pair<ThreadPool*, std::size_t>{nullptr, 20},
        std::pair<ThreadPool*, std::size_t>{&pool, 8}}) {
    core::EngineConfig config;
    config.mc_trials = std::uint64_t{1} << 40;
    config.pool = workers;
    FaultInjector injector;
    const ExecutionControl control =
        injector.fire_after_polls(polls, ExecutionStatus::kDeadlineExceeded);
    const core::QuantificationResult aborted =
        core::EngineRegistry::create("mc", tree, config)
            ->quantify(input, &control);
    EXPECT_EQ(injector.polls(), polls + 1);
    ASSERT_TRUE(aborted.aborted.has_value());
    EXPECT_TRUE(*aborted.aborted);
    EXPECT_FALSE(*reference.aborted);
    // "mc" has no stopping target, so no convergence notion either way.
    EXPECT_FALSE(aborted.converged.has_value());
    EXPECT_FALSE(reference.converged.has_value());
    EXPECT_EQ(aborted.trials, reference.trials);
    EXPECT_EQ(aborted.trials, capped.batch);
    EXPECT_EQ(aborted.probability, reference.probability);
    EXPECT_EQ(aborted.ci95->lo, reference.ci95->lo);
    EXPECT_EQ(aborted.ci95->hi, reference.ci95->hi);
    EXPECT_EQ(*aborted.ess, *reference.ess);
  }
}

TEST(McFaultTest, HugeRoundIsPolledPerSlabWithoutMaterializingIt) {
  // batch = budget = 2^40 trials is one round of 2^28 chunks. The loop
  // must hand chunks out one slab at a time — never the whole round's job
  // list up front — and poll before every slab, so the second poll (after
  // one 4096-trial chunk) stops it. The torn first round is discarded.
  const fta::FaultTree tree = voting_tree();
  mc::AdaptiveOptions options = small_round_options();
  options.batch = std::uint64_t{1} << 40;
  options.max_trials = options.batch;
  FaultInjector injector;
  const ExecutionControl control =
      injector.fire_after_polls(1, ExecutionStatus::kDeadlineExceeded);

  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  const mc::AdaptiveResult result = mc::AdaptiveMonteCarlo(options).estimate(
      tree, uniform_input(tree, 0.2), &control);
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);

  EXPECT_TRUE(result.aborted);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.trials, 0u);
  EXPECT_EQ(result.occurrences, 0u);
  EXPECT_EQ(injector.polls(), 2u);
  // Peak RSS (KiB on Linux) grew by far less than the ~24 GiB a whole-round
  // job list would need.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);
}

// ------------------------------------------------------- solver cancellation

opt::Problem quadratic_problem() {
  opt::Problem problem;
  problem.bounds = opt::Box({-4.0, -4.0}, {4.0, 4.0});
  problem.objective = [](std::span<const double> x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  return problem;
}

TEST(SolverFaultTest, PreCancelledSolveReturnsWithoutEvaluating) {
  const auto solver = opt::SolverRegistry::create("nelder_mead");
  const ExecutionControl control = FaultInjector::cancelled();
  opt::SolverConfig config;
  config.control = &control;
  config.initial = {1.5, -0.5};
  const opt::OptimizationResult result =
      solver->solve(quadratic_problem(), config);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.evaluations, 0u);
  EXPECT_NE(result.message.find("cancelled"), std::string::npos);
  // Nothing was evaluated: the start point comes back at +inf.
  EXPECT_EQ(result.argmin, config.initial);
  EXPECT_EQ(result.value, std::numeric_limits<double>::infinity());
}

TEST(SolverFaultTest, MidRunDeadlineReturnsBestOfCompletedEvaluations) {
  const auto solver = opt::SolverRegistry::create("nelder_mead");
  FaultInjector injector;
  const ExecutionControl control =
      injector.fire_after_polls(25, ExecutionStatus::kDeadlineExceeded);
  opt::SolverConfig config;
  config.control = &control;
  const opt::OptimizationResult result =
      solver->solve(quadratic_problem(), config);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.evaluations, 25u);
  EXPECT_NE(result.message.find("deadline exceeded after 25 evaluations"),
            std::string::npos);
  // The best point seen within the 25 granted evaluations comes back as a
  // genuine partial result: inside the box, with its true objective value.
  ASSERT_EQ(result.argmin.size(), 2u);
  EXPECT_TRUE(opt::Box({-4.0, -4.0}, {4.0, 4.0}).contains(result.argmin));
  EXPECT_EQ(result.value, quadratic_problem().objective(result.argmin));
}

TEST(SolverFaultTest, ArmedButSilentControlDoesNotChangeTheResult) {
  const auto solver = opt::SolverRegistry::create("nelder_mead");
  const opt::OptimizationResult plain =
      solver->solve(quadratic_problem(), {});
  FaultInjector injector;
  const ExecutionControl control = injector.never_fires();
  opt::SolverConfig config;
  config.control = &control;
  const opt::OptimizationResult guarded =
      solver->solve(quadratic_problem(), config);
  EXPECT_GT(injector.polls(), 0u);  // the instrumented path really polled
  EXPECT_EQ(guarded.converged, plain.converged);
  EXPECT_EQ(guarded.value, plain.value);
  EXPECT_EQ(guarded.argmin, plain.argmin);
}

// A refused evaluation unwinds the solve from the instrumentation layer, so
// no solver polls on its own: every built-in solver, pre-cancelled or
// stopped after 25 polls, returns the same kind of partial result. The
// quadratic problem has no batch path, so every solver, grid_search
// included, polls once per point; golden_section gets a 1-D problem.

opt::Problem line_problem() {
  opt::Problem problem;
  problem.bounds = opt::Box({-4.0}, {4.0});
  problem.objective = [](std::span<const double> x) {
    return (x[0] - 1.0) * (x[0] - 1.0);
  };
  return problem;
}

class EverySolverUnderAControl : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] opt::Problem problem() const {
    return GetParam() == "golden_section" ? line_problem()
                                          : quadratic_problem();
  }
  [[nodiscard]] opt::OptimizationResult solve_under(
      const ExecutionControl& control) const {
    opt::SolverConfig config;
    config.control = &control;
    return opt::SolverRegistry::create(GetParam())->solve(problem(), config);
  }
};

TEST_P(EverySolverUnderAControl, PreCancelledReturnsTheBoxCenterAtInfinity) {
  const opt::OptimizationResult result =
      solve_under(FaultInjector::cancelled());
  EXPECT_EQ(result.evaluations, 0u);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.argmin, problem().bounds.center());
  EXPECT_EQ(result.value, std::numeric_limits<double>::infinity());
  EXPECT_EQ(result.message, "cancelled after 0 evaluations");
}

TEST_P(EverySolverUnderAControl, FiredMidRunReturnsTheBestGrantedPoint) {
  FaultInjector injector;
  const opt::OptimizationResult result = solve_under(
      injector.fire_after_polls(25, ExecutionStatus::kDeadlineExceeded));
  EXPECT_EQ(result.evaluations, 25u);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.message, "deadline exceeded after 25 evaluations");
  EXPECT_EQ(injector.polls(), 26u);  // the 26th poll was refused
  ASSERT_EQ(result.argmin.size(), problem().bounds.dimension());
  EXPECT_EQ(result.value, problem().objective(result.argmin));
}

INSTANTIATE_TEST_SUITE_P(
    BuiltIn, EverySolverUnderAControl,
    ::testing::Values("coordinate_descent", "differential_evolution",
                      "golden_section", "grid_search", "hooke_jeeves",
                      "multi_start", "nelder_mead"),
    [](const auto& param_info) { return param_info.param; });

// multi_start's starts run without a control and evaluate the problem
// solve() already wrapped, so each evaluation is polled once, and a refused
// one unwinds every start, on a pool too.

opt::OptimizationResult multi_start_under(const ExecutionControl& control,
                                          ThreadPool* pool) {
  opt::SolverConfig config;
  config.control = &control;
  config.pool = pool;
  return opt::SolverRegistry::create("multi_start")
      ->solve(quadratic_problem(), config);
}

TEST(SolverFaultTest, MultiStartPollsOncePerEvaluation) {
  const opt::OptimizationResult plain =
      opt::SolverRegistry::create("multi_start")
          ->solve(quadratic_problem(), {});
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "sequential" : "pool");
    FaultInjector injector;
    const opt::OptimizationResult guarded =
        multi_start_under(injector.never_fires(), p);
    EXPECT_EQ(guarded.evaluations, plain.evaluations);
    EXPECT_EQ(guarded.argmin, plain.argmin);
    EXPECT_EQ(guarded.value, plain.value);
    EXPECT_EQ(guarded.message, plain.message);
    EXPECT_EQ(injector.polls(), plain.evaluations);
  }
}

TEST(SolverFaultTest, MultiStartPreCancelledReturnsWithoutEvaluating) {
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "sequential" : "pool");
    const opt::OptimizationResult result =
        multi_start_under(FaultInjector::cancelled(), p);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.evaluations, 0u);
    EXPECT_EQ(result.iterations, 0u);
    // Nothing was evaluated: the box center (start 0) comes back at +inf.
    EXPECT_EQ(result.argmin, (std::vector<double>{0.0, 0.0}));
    EXPECT_EQ(result.value, std::numeric_limits<double>::infinity());
    EXPECT_EQ(result.message, "cancelled after 0 evaluations");
  }
}

TEST(SolverFaultTest, MultiStartMidRunDeadlineReturnsThePinnedPartialResult) {
  // Polls 1-25 grant start 0's first 25 evaluations, and poll 26 refuses
  // the next one, which unwinds the whole solve.
  FaultInjector injector;
  const opt::OptimizationResult result = multi_start_under(
      injector.fire_after_polls(25, ExecutionStatus::kDeadlineExceeded),
      nullptr);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.evaluations, 25u);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.message, "deadline exceeded after 25 evaluations");
  EXPECT_EQ(result.argmin,
            (std::vector<double>{0x1.cccccccccccdp-1, -0x1p+1}));
  EXPECT_EQ(result.value, 0x1.47ae147ae1452p-7);
  EXPECT_EQ(result.value, quadratic_problem().objective(result.argmin));
  EXPECT_EQ(injector.polls(), result.evaluations + 1);
}

TEST(SolverFaultTest, MultiStartDeadlineBetweenStartsKeepsTheFinishedStart) {
  // Start 0 run alone, as multi_start runs it: from the box center.
  opt::SolverConfig alone;
  alone.initial = quadratic_problem().bounds.center();
  const opt::OptimizationResult start0 =
      opt::SolverRegistry::create("nelder_mead")
          ->solve(quadratic_problem(), alone);
  ASSERT_TRUE(start0.converged);

  // One poll per evaluation of start 0 passes; the poll for start 1's
  // first evaluation fires.
  FaultInjector injector;
  const opt::OptimizationResult result = multi_start_under(
      injector.fire_after_polls(start0.evaluations,
                                ExecutionStatus::kDeadlineExceeded),
      nullptr);
  EXPECT_EQ(injector.polls(), start0.evaluations + 1);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.evaluations, start0.evaluations);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.argmin, start0.argmin);
  EXPECT_EQ(result.value, start0.value);
  EXPECT_EQ(result.message,
            concat("deadline exceeded after ",
                   std::to_string(start0.evaluations), " evaluations"));
}

TEST(SolverFaultTest, MultiStartMidRunDeadlineOnAPoolReturnsAPartialResult) {
  // Concurrent starts race for the 25 polls, so which points get evaluated
  // depends on scheduling; the partial-result contract does not.
  ThreadPool pool(4);
  FaultInjector injector;
  const opt::OptimizationResult result = multi_start_under(
      injector.fire_after_polls(25, ExecutionStatus::kDeadlineExceeded),
      &pool);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.evaluations, 25u);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(injector.polls(), result.evaluations + 1);
  EXPECT_NE(result.message.find("deadline exceeded after"), std::string::npos)
      << result.message;
  ASSERT_EQ(result.argmin.size(), 2u);
  EXPECT_TRUE(opt::Box({-4.0, -4.0}, {4.0, 4.0}).contains(result.argmin));
  EXPECT_EQ(result.value, quadratic_problem().objective(result.argmin));
}

// ---------------------------------------------------- graceful degradation

TEST(DegradationTest, BddBudgetFallsBackToAdaptiveMc) {
  const fta::FaultTree tree = voting_tree();
  core::EngineConfig config;
  config.bdd_node_budget = 3;
  config.fallback = "mc_adaptive";
  config.mc_trials = 1 << 16;
  std::string diagnostic;
  const auto engine =
      core::create_engine_with_fallback("bdd", tree, config, &diagnostic);
  ASSERT_NE(engine, nullptr);
  EXPECT_NE(diagnostic.find("degraded to \"mc_adaptive\""), std::string::npos);
  EXPECT_NE(diagnostic.find("resource_exhausted"), std::string::npos);
  const core::QuantificationResult result =
      engine->quantify(uniform_input(tree, 0.2));
  EXPECT_GT(result.trials, 0u);
  EXPECT_TRUE(result.ci95.has_value());
}

TEST(DegradationTest, NoFallbackRethrowsTheOriginalError) {
  const fta::FaultTree tree = voting_tree();
  core::EngineConfig config;
  config.bdd_node_budget = 3;
  std::string diagnostic;
  EXPECT_THROW((void)core::create_engine_with_fallback("bdd", tree, config,
                                                       &diagnostic),
               Error);
  EXPECT_TRUE(diagnostic.empty());
}

TEST(DegradationTest, CancellationIsNotRecoveredByFallback) {
  const fta::FaultTree tree = voting_tree();
  const ExecutionControl control = FaultInjector::cancelled();
  core::EngineConfig config;
  config.fallback = "mc_adaptive";
  try {
    (void)core::create_engine_with_fallback("bdd", tree, config, nullptr,
                                            &control);
    FAIL() << "cancellation must not degrade to another engine";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kCancelled);
  }
}

TEST(DegradationTest, NodeBudgetCountsEveryModuleDiagram) {
  // The committed 1k corpus tier compiles to 4013 decision nodes summed
  // over its 109 module diagrams, none of which is larger than 1300 on its
  // own: the budget is charged against the sum, so 4012 is exhausted
  // (recoverably, so `fallback` degrades it) and 4013 suffices.
  const ftio::StudyDocument doc = ftio::load_study(
      concat(SAFEOPT_SOURCE_DIR, "/examples/corpus/corpus_1k.ft"));
  const fta::FaultTree& tree = doc.trees.front().tree;
  core::EngineConfig config;
  config.bdd_node_budget = 4012;
  try {
    (void)core::EngineRegistry::create("bdd", tree, config);
    FAIL() << "a budget of 4012 must be exhausted";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kResourceExhausted);
    EXPECT_NE(std::string(error.what()).find("more than 4012 decision nodes"),
              std::string::npos)
        << error.what();
  }
  // Which engine was built shows in its result: only bdd reports a pass
  // pipeline, only the sampled engines an interval.
  config.fallback = "mc";
  config.mc_trials = 1000;
  const fta::QuantificationInput input = doc.trees.front().constant_input();
  std::string diagnostic;
  const core::QuantificationResult degraded =
      core::create_engine_with_fallback("bdd", tree, config, &diagnostic)
          ->quantify(input);
  EXPECT_TRUE(degraded.ci95.has_value());
  EXPECT_FALSE(degraded.preprocess.has_value());
  EXPECT_NE(diagnostic.find("resource_exhausted"), std::string::npos);

  config.bdd_node_budget = 4013;
  diagnostic.clear();
  const core::QuantificationResult exact =
      core::create_engine_with_fallback("bdd", tree, config, &diagnostic)
          ->quantify(input);
  EXPECT_TRUE(exact.preprocess.has_value());
  EXPECT_FALSE(exact.ci95.has_value());
  EXPECT_TRUE(diagnostic.empty()) << diagnostic;
}

TEST(DegradationTest, StudyQuantifyRecordsTheDowngradeInDiagnostics) {
  const ftio::StudyDocument doc = ftio::parse_study(R"(
param p in [0.05, 0.4];

tree T;
toplevel top;
top or a b c;
a prob = p;
b prob = p;
c prob = 0.1;

hazard T cost = 10;
engine bdd bdd_node_budget = 1 fallback = mc_adaptive
    trials = 65536 target_halfwidth = 0.2;
)");
  const core::Study study = core::Study::from_document(doc);
  expr::ParameterAssignment at;
  at.set("p", 0.2);
  const core::QuantificationResult result = study.quantify("T", at);
  ASSERT_FALSE(result.diagnostics.empty());
  EXPECT_NE(result.diagnostics.front().find("degraded to \"mc_adaptive\""),
            std::string::npos);
  EXPECT_GT(result.trials, 0u);
  EXPECT_GT(result.probability, 0.0);
}

}  // namespace
}  // namespace safeopt
