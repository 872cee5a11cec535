#include "safeopt/core/study.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "safeopt/fta/fault_tree.h"
#include "safeopt/fta/probability.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/support/error.h"
#include "safeopt/support/strings.h"

namespace safeopt::core {
namespace {

using expr::parameter;

/// The synthetic two-hazard system of safety_optimization_test:
///   f_cost = 50·e^{-x} + 0.01·x, argmin x* = ln(5000).
CostModel synthetic_model() {
  CostModel model;
  model.add_hazard({"H1", expr::exp(-parameter("x")), 50.0});
  model.add_hazard({"H2", 0.01 * parameter("x"), 1.0});
  return model;
}

ParameterSpace synthetic_space() {
  return ParameterSpace{{"x", 0.1, 20.0, "", "free parameter"}};
}

void expect_identical(const SafetyOptimizationResult& a,
                      const SafetyOptimizationResult& b) {
  EXPECT_EQ(a.optimization.argmin, b.optimization.argmin);
  EXPECT_EQ(a.optimization.value, b.optimization.value);
  EXPECT_EQ(a.optimization.evaluations, b.optimization.evaluations);
  EXPECT_EQ(a.hazard_probabilities, b.hazard_probabilities);
  EXPECT_EQ(a.cost, b.cost);
}

TEST(StudyTest, GoldenSectionIsReachableByName) {
  Study study(synthetic_model(), synthetic_space());
  const auto result = study.solver("golden_section").run();
  EXPECT_NEAR(result.optimization.argmin[0], std::log(5000.0), 1e-6);
}

TEST(StudyTest, UnknownSolverNameThrowsFromRun) {
  Study study(synthetic_model(), synthetic_space());
  study.solver("definitely_not_registered");
  EXPECT_THROW((void)study.run(), std::invalid_argument);
}

TEST(StudyTest, CompiledProblemIsCachedPerInstance) {
  Study study(synthetic_model(), synthetic_space());
  // One tape per study: problem() is address-stable ...
  const opt::Problem& first = study.problem();
  const opt::Problem& second = study.problem();
  EXPECT_EQ(&first, &second);
  // ... and consecutive runs (which use it) are reproducible.
  study.solver("nelder_mead");
  const auto run_a = study.run();
  const auto run_b = study.run();
  expect_identical(run_a, run_b);
}

TEST(StudyTest, ProblemFromATemporaryIsASafeCopy) {
  // The rvalue overload returns a copy sharing the tape, so binding a
  // reference to a temporary's problem() cannot dangle.
  const auto& from_temporary =
      Study(synthetic_model(), synthetic_space()).problem();
  const std::vector<double> at{3.0};
  EXPECT_NEAR(from_temporary.objective(at), 50.0 * std::exp(-3.0) + 0.03,
              1e-12);
}

TEST(StudyTest, ObserverReceivesMonotoneProgress) {
  Study study(synthetic_model(), synthetic_space());
  std::size_t events = 0;
  double last_best = std::numeric_limits<double>::infinity();
  study.solver("hooke_jeeves").observe([&](const opt::ProgressEvent& event) {
    EXPECT_LE(event.best_value, last_best);
    last_best = event.best_value;
    ++events;
  });
  const auto result = study.run();
  EXPECT_GT(events, 0u);
  EXPECT_LE(last_best, result.cost + 1e-15);
}

TEST(StudyTest, QuantifyRequiresAnAttachedTree) {
  Study study(synthetic_model(), synthetic_space());
  EXPECT_THROW((void)study.quantify("H1", {{"x", 1.0}}),
               std::invalid_argument);
}

TEST(StudyTest, QuantifyRunsEveryEngineOnTheCompiledLeafTapes) {
  // A redundant pair whose failure probability depends on the free
  // parameter x, quantified through the fault tree.
  fta::FaultTree tree("Loss");
  const auto a = tree.add_basic_event("A");
  const auto b = tree.add_basic_event("B");
  tree.set_top(tree.add_and("Both", {a, b}));
  ParameterizedQuantification quant(tree);
  const expr::Expr p_leaf = 0.1 * parameter("x");
  quant.set_event_probability("A", p_leaf);
  quant.set_event_probability("B", p_leaf);

  CostModel model;
  model.add_hazard({"Loss", quant.hazard_expression(), 10.0});
  model.add_hazard({"Burden", 0.001 * parameter("x"), 1.0});
  ParameterSpace space{{"x", 0.1, 1.0, "", ""}};

  Study study(std::move(model), std::move(space));
  study.hazard_tree("Loss", tree, quant);
  const expr::ParameterAssignment at{{"x", 0.5}};
  // P(Loss) = (0.05)^2 exactly; both deterministic engines nail it, and the
  // expression path (rare event over the single cut set {A, B}) agrees.
  const double expected = 0.05 * 0.05;
  EXPECT_NEAR(study.engine("fta").quantify("Loss", at).probability, expected,
              1e-15);
  EXPECT_NEAR(study.engine("bdd").quantify("Loss", at).probability, expected,
              1e-15);
  const auto sampled = study.engine("mc").quantify("Loss", at);
  ASSERT_TRUE(sampled.ci95.has_value());
  EXPECT_TRUE(sampled.ci95->contains(expected));
  EXPECT_GT(sampled.trials, 0u);
  // Attaching a hazard the cost model does not know is a contract violation
  // caught eagerly (hazard_by_name aborts); unknown hazards at quantify
  // time throw.
  EXPECT_THROW((void)study.quantify("NotAttached", at),
               std::invalid_argument);
}

TEST(StudyTest, SolverDefaultsLiveInTheRegistryFactories) {
  // An empty config selects each solver's one set of defaults: grid_search
  // 33 points x 5 rounds, multi_start 8 Nelder–Mead starts.
  Study study(synthetic_model(), synthetic_space());
  const auto grid = study.solver("grid_search").run();
  EXPECT_EQ(grid.optimization.evaluations, 33u * 5u);
  opt::SolverConfig grid_config;
  grid_config.set("points_per_dimension", 33).set("refinement_rounds", 5);
  expect_identical(study.solver("grid_search", grid_config).run(), grid);

  const auto multi = study.solver("multi_start").run();
  EXPECT_EQ(multi.optimization.message.rfind("best of 8 starts", 0), 0u)
      << multi.optimization.message;
  opt::SolverConfig multi_config;
  multi_config.set("inner", "nelder_mead").set("starts", 8);
  expect_identical(study.solver("multi_start", multi_config).run(), multi);
}

TEST(StudyTest, NaNLeafProbabilityIsInvalidInput) {
  // W − B at W = B = +inf is NaN: quantify must refuse it as invalid input
  // (naming the leaf) rather than hand it to an engine, whose precondition
  // would abort the process.
  fta::FaultTree tree("Gap");
  tree.set_top(tree.add_or("top", {tree.add_basic_event("Clearance"),
                                   tree.add_basic_event("Steady")}));
  ParameterizedQuantification quant(tree);
  quant.set_event_probability("Clearance", parameter("W") - parameter("B"));
  quant.set_event_probability("Steady", expr::constant(0.01));
  CostModel model;
  model.add_hazard({"Gap", quant.hazard_expression(), 1.0});
  Study study(std::move(model), ParameterSpace{{"W", 1.0, 2.0, "", ""},
                                               {"B", 0.0, 1.0, "", ""}});
  study.hazard_tree("Gap", tree, quant);
  const double inf = std::numeric_limits<double>::infinity();
  for (const char* engine : {"fta", "bdd", "mc"}) {
    study.engine(engine);
    try {
      (void)study.quantify("Gap", {{"W", inf}, {"B", inf}});
      ADD_FAILURE() << engine << " accepted a NaN leaf probability";
    } catch (const Error& error) {
      EXPECT_EQ(error.category(), ErrorCategory::kInvalidInput) << engine;
      EXPECT_NE(std::string(error.what()).find("\"Clearance\""),
                std::string::npos)
          << error.what();
    }
  }
}

/// from_document's diagnostic for `document` under `overrides`.
std::string from_document_error(const ftio::StudyDocument& document,
                                const StudyOverrides& overrides = {}) {
  try {
    (void)Study::from_document(document, overrides);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "(accepted)";
}

TEST(StudyTest, DisplayNamesAreNotSolverNames) {
  // Only registry names select a solver: class display names are rejected
  // with the list of available names, from a document's solver section and
  // from an override alike.
  ftio::StudyDocument document = ftio::parse_study(
      "param X in [0, 1];\ntoplevel t;\nt or a;\na prob = 0.1 * X;\n"
      "hazard fault-tree cost = 1;\n");
  for (const char* display : {"GridSearch", "MultiStart(NelderMead)"}) {
    document.solver = ftio::SelectionDecl{display, {}};
    EXPECT_NE(from_document_error(document).find(
                  concat("unknown solver \"", display, "\"; available: ")),
              std::string::npos)
        << from_document_error(document);
    document.solver.reset();
    StudyOverrides overrides;
    overrides.solver = display;
    EXPECT_NE(from_document_error(document, overrides)
                  .find(concat("unknown solver \"", display,
                               "\"; available: ")),
              std::string::npos)
        << from_document_error(document, overrides);
  }
}

}  // namespace
}  // namespace safeopt::core
