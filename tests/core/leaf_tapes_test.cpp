// Compiled tapes vs the symbolic ParameterizedQuantification walk on the
// paper's Fig. 2 collision-tree shape: hazard and Birnbaum expressions
// compiled with CompiledExpr must reproduce their tree walks bit for bit
// under both HazardFormula variants, and LeafTapes::input_at must match
// evaluate().
#include "safeopt/core/leaf_tapes.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "safeopt/core/parameterized_fta.h"
#include "safeopt/expr/compiled.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/fta/fault_tree.h"
#include "safeopt/stats/distribution.h"
#include "safeopt/support/error.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::core {
namespace {

using expr::constant;
using expr::parameter;
using expr::ParameterAssignment;

/// The paper's §IV-B.2 collision shape: OR(residual, INHIBIT(OT1|crit),
/// INHIBIT(OT2|crit)) with parameterized overtime probabilities.
struct Fig2Fixture {
  Fig2Fixture() : tree(make_tree()), quantification(tree) {
    const auto transit = std::make_shared<stats::TruncatedNormal>(
        stats::TruncatedNormal::nonnegative(4.0, 2.0));
    quantification.set_event_probability("residual", constant(4.19e-8));
    quantification.set_event_probability(
        "OT1", expr::survival(transit, parameter("T1")));
    quantification.set_event_probability(
        "OT2", expr::survival(transit, parameter("T2")) *
                   (1.0 - expr::survival(transit, parameter("T1"))));
    quantification.set_condition_probability("OHVcritical", constant(0.011));
  }

  static fta::FaultTree make_tree() {
    fta::FaultTree tree("HCol");
    const auto residual = tree.add_basic_event("residual");
    const auto ot1 = tree.add_basic_event("OT1");
    const auto ot2 = tree.add_basic_event("OT2");
    const auto crit = tree.add_condition("OHVcritical");
    const auto g1 = tree.add_inhibit("g1", ot1, crit);
    const auto g2 = tree.add_inhibit("g2", ot2, crit);
    tree.set_top(tree.add_or("top", {residual, g1, g2}));
    return tree;
  }

  [[nodiscard]] expr::CompiledExpr hazard_tape() const {
    return expr::CompiledExpr::compile(quantification.hazard_expression(),
                                       {"T1", "T2"});
  }

  fta::FaultTree tree;
  ParameterizedQuantification quantification;
};

const std::vector<std::pair<double, double>> kProbePoints = {
    {15.0, 15.0}, {17.3, 16.1}, {19.0, 15.6}, {20.0, 18.0}, {30.0, 30.0}};

TEST(LeafTapesTest, HazardTapeMatchesSymbolicWalkBothFormulas) {
  const Fig2Fixture f;
  const fta::CutSetCollection mcs = fta::minimal_cut_sets(f.tree);
  for (const HazardFormula formula :
       {HazardFormula::kRareEvent, HazardFormula::kMinCutUpperBound}) {
    const expr::Expr symbolic =
        f.quantification.hazard_expression(mcs, formula);
    const auto compiled = expr::CompiledExpr::compile(symbolic, {"T1", "T2"});
    for (const auto& [t1, t2] : kProbePoints) {
      const double tree_walk =
          symbolic.evaluate(ParameterAssignment{{"T1", t1}, {"T2", t2}});
      EXPECT_EQ(tree_walk, compiled.evaluate(std::vector<double>{t1, t2}))
          << "T1=" << t1 << " T2=" << t2;
    }
  }
}

TEST(LeafTapesTest, BirnbaumTapesMatchSymbolicWalkBothFormulas) {
  const Fig2Fixture f;
  const fta::CutSetCollection mcs = fta::minimal_cut_sets(f.tree);
  for (const HazardFormula formula :
       {HazardFormula::kRareEvent, HazardFormula::kMinCutUpperBound}) {
    for (std::size_t e = 0; e < f.tree.basic_event_count(); ++e) {
      const auto ordinal = static_cast<fta::BasicEventOrdinal>(e);
      const expr::Expr symbolic =
          f.quantification.birnbaum_expression(mcs, ordinal, formula);
      const auto compiled =
          expr::CompiledExpr::compile(symbolic, {"T1", "T2"});
      for (const auto& [t1, t2] : kProbePoints) {
        const double tree_walk =
            symbolic.evaluate(ParameterAssignment{{"T1", t1}, {"T2", t2}});
        EXPECT_EQ(tree_walk, compiled.evaluate(std::vector<double>{t1, t2}))
            << "event " << e << " T1=" << t1 << " T2=" << t2;
      }
    }
  }
}

TEST(LeafTapesTest, InputAtMatchesSymbolicEvaluate) {
  const Fig2Fixture f;
  const LeafTapes leaves(f.quantification);
  ASSERT_EQ(leaves.parameter_order(), (std::vector<std::string>{"T1", "T2"}));
  for (const auto& [t1, t2] : kProbePoints) {
    const ParameterAssignment env{{"T1", t1}, {"T2", t2}};
    const fta::QuantificationInput symbolic = f.quantification.evaluate(env);
    const fta::QuantificationInput tape = leaves.input_at(env);
    EXPECT_EQ(symbolic.basic_event_probability,
              tape.basic_event_probability);
    EXPECT_EQ(symbolic.condition_probability, tape.condition_probability);
    EXPECT_TRUE(tape.is_valid_for(f.tree));
  }
}

TEST(LeafTapesTest, InputAtRejectsANaNLeafByName) {
  fta::FaultTree tree("Gap");
  tree.set_top(tree.add_or("top", {tree.add_basic_event("steady"),
                                   tree.add_basic_event("clearance")}));
  ParameterizedQuantification quantification(tree);
  quantification.set_event_probability("steady", constant(0.5));
  quantification.set_event_probability(
      "clearance", parameter("W") - parameter("B"));
  const LeafTapes leaves(quantification);
  // ±inf clamps into [0, 1] ...
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(leaves.input_at({{"B", 0.0}, {"W", inf}})
                .basic_event_probability[1],
            1.0);
  // ... but inf − inf is NaN, which no engine accepts.
  try {
    (void)leaves.input_at({{"B", inf}, {"W", inf}});
    ADD_FAILURE() << "a NaN leaf probability was accepted";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kInvalidInput);
    EXPECT_NE(std::string(error.what()).find("\"clearance\""),
              std::string::npos)
        << error.what();
  }
}

TEST(LeafTapesTest, HazardBatchIsLaneAndThreadInvariant) {
  const Fig2Fixture f;
  const expr::CompiledExpr compiled = f.hazard_tape();
  const std::size_t nx = 23;
  const std::size_t ny = 9;
  std::vector<double> points(nx * ny * 2);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      points[2 * (j * nx + i)] = 15.0 + 0.2 * static_cast<double>(i);
      points[2 * (j * nx + i) + 1] = 15.0 + 0.3 * static_cast<double>(j);
    }
  }
  std::vector<double> batch(nx * ny);
  compiled.evaluate_batch({.points = points, .values = batch});
  for (std::size_t r = 0; r < batch.size(); ++r) {
    EXPECT_EQ(batch[r], compiled.evaluate(std::span<const double>(
                            &points[2 * r], 2)));
  }
  ThreadPool pool(3);
  std::vector<double> parallel(nx * ny);
  compiled.evaluate_batch(
      {.points = points, .values = parallel, .pool = &pool});
  EXPECT_EQ(batch, parallel);
}

}  // namespace
}  // namespace safeopt::core
