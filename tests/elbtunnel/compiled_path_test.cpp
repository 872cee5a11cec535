// Acceptance tests for the compiled-evaluation path on the paper's own
// optimization problem: running a solver against the compiled tape must give
// exactly (bitwise) the optimum the recursive expression walk gives.
#include <gtest/gtest.h>

#include <vector>

#include "safeopt/core/leaf_tapes.h"
#include "safeopt/core/study.h"
#include "safeopt/elbtunnel/elbtunnel_model.h"
#include "safeopt/expr/compiled.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/opt/solver.h"

namespace safeopt::elbtunnel {
namespace {

/// The pre-compilation objective: assignment construction + tree walk.
opt::Problem tree_walk_problem(const core::Study& study) {
  opt::Problem problem;
  problem.bounds = study.space().box();
  const core::ParameterSpace space = study.space();
  const expr::Expr cost = study.model().cost_expression();
  problem.objective = [space, cost](std::span<const double> x) {
    return cost.evaluate(space.assignment(x));
  };
  return problem;
}

TEST(CompiledPathTest, CompiledCostMatchesTreeWalkAcrossTheBox) {
  const ElbtunnelModel model;
  const expr::Expr cost = model.cost_model().cost_expression();
  const auto compiled = expr::CompiledExpr::compile(cost, {"T1", "T2"});
  for (double t1 = 5.0; t1 <= 40.0; t1 += 1.7) {
    for (double t2 = 5.0; t2 <= 40.0; t2 += 2.3) {
      const double tree = cost.evaluate({{"T1", t1}, {"T2", t2}});
      EXPECT_EQ(tree, compiled.evaluate(std::vector<double>{t1, t2}));
    }
  }
}

TEST(CompiledPathTest, GridSearchOptimumIsBitwiseIdentical) {
  const ElbtunnelModel model;
  const core::Study study = model.study();
  const auto search = opt::SolverRegistry::create("grid_search");

  const opt::OptimizationResult tree =
      search->solve(tree_walk_problem(study));
  // study.problem() carries the compiled scalar + batch objectives.
  const opt::OptimizationResult compiled = search->solve(study.problem());

  EXPECT_EQ(tree.value, compiled.value);
  EXPECT_EQ(tree.argmin, compiled.argmin);
  EXPECT_EQ(tree.evaluations, compiled.evaluations);
}

TEST(CompiledPathTest, DifferentialEvolutionOptimumIsBitwiseIdentical) {
  const ElbtunnelModel model;
  const core::Study study = model.study();
  const auto solver = opt::SolverRegistry::create("differential_evolution");
  opt::SolverConfig config;
  config.set("generations", 60.0);
  config.seed = 0xd1ffe;

  const opt::OptimizationResult tree =
      solver->solve(tree_walk_problem(study), config);
  const opt::OptimizationResult compiled =
      solver->solve(study.problem(), config);

  EXPECT_EQ(tree.value, compiled.value);
  EXPECT_EQ(tree.argmin, compiled.argmin);
}

/// Both Elbtunnel fault trees, both hazard-assembly formulas: hazard and
/// Birnbaum tapes compiled from the assembled expressions must reproduce the
/// symbolic expression walks bit for bit across the timer box.
TEST(CompiledPathTest, HazardAndBirnbaumTapesMatchSymbolicWalk) {
  const ElbtunnelModel model;
  const fta::FaultTree collision = model.collision_tree();
  const fta::FaultTree alarm = model.false_alarm_tree();
  const std::vector<
      std::pair<const fta::FaultTree*, core::ParameterizedQuantification>>
      cases = {{&collision, model.collision_quantification(collision)},
               {&alarm, model.false_alarm_quantification(alarm)}};

  for (const auto& [tree, quantification] : cases) {
    const fta::CutSetCollection mcs = fta::minimal_cut_sets(*tree);
    for (const core::HazardFormula formula :
         {core::HazardFormula::kRareEvent,
          core::HazardFormula::kMinCutUpperBound}) {
      const expr::Expr hazard =
          quantification.hazard_expression(mcs, formula);
      const auto hazard_tape =
          expr::CompiledExpr::compile(hazard, {"T1", "T2"});
      for (double t1 = 15.0; t1 <= 30.0; t1 += 3.7) {
        for (double t2 = 15.0; t2 <= 30.0; t2 += 4.3) {
          const expr::ParameterAssignment env{{"T1", t1}, {"T2", t2}};
          EXPECT_EQ(hazard.evaluate(env),
                    hazard_tape.evaluate(std::vector<double>{t1, t2}))
              << tree->name() << " T1=" << t1 << " T2=" << t2;
        }
      }
      for (std::size_t e = 0; e < tree->basic_event_count(); ++e) {
        const auto ordinal = static_cast<fta::BasicEventOrdinal>(e);
        const expr::Expr birnbaum =
            quantification.birnbaum_expression(mcs, ordinal, formula);
        const auto birnbaum_tape =
            expr::CompiledExpr::compile(birnbaum, {"T1", "T2"});
        const expr::ParameterAssignment env{{"T1", 19.0}, {"T2", 15.6}};
        EXPECT_EQ(birnbaum.evaluate(env),
                  birnbaum_tape.evaluate(std::vector<double>{19.0, 15.6}))
            << tree->name() << " event " << e;
      }
    }
  }
}

/// The compiled leaf tapes must produce the same numeric quantification
/// input the symbolic walk produces — the seam Monte Carlo validation and
/// the classical fta/bdd engines consume.
TEST(CompiledPathTest, CompiledInputMatchesSymbolicEvaluate) {
  const ElbtunnelModel model;
  const fta::FaultTree alarm = model.false_alarm_tree();
  const core::ParameterizedQuantification quantification =
      model.false_alarm_quantification(alarm);
  const core::LeafTapes leaves(quantification);
  for (double t2 = 5.0; t2 <= 30.0; t2 += 4.9) {
    const expr::ParameterAssignment env{{"T1", 30.0}, {"T2", t2}};
    const fta::QuantificationInput symbolic = quantification.evaluate(env);
    const fta::QuantificationInput tape = leaves.input_at(env);
    EXPECT_EQ(symbolic.basic_event_probability, tape.basic_event_probability);
    EXPECT_EQ(symbolic.condition_probability, tape.condition_probability);
  }
}

TEST(CompiledPathTest, BatchedTabulationMatchesScalarSurface) {
  const ElbtunnelModel model;
  const core::Study study = model.study();
  const opt::Problem problem = study.problem();

  // The Fig. 5 plotting box.
  opt::Problem figure = problem;
  figure.bounds = opt::Box({15.0, 15.0}, {20.0, 18.0});
  const opt::GridTable batched = opt::tabulate_2d(figure, 21, 25);
  const opt::GridTable scalar =
      opt::tabulate_2d(problem.objective, figure.bounds, 21, 25);
  EXPECT_EQ(batched.xs, scalar.xs);
  EXPECT_EQ(batched.ys, scalar.ys);
  EXPECT_EQ(batched.values, scalar.values);
}

}  // namespace
}  // namespace safeopt::elbtunnel
