// Registry-completeness acceptance test on the paper's own problem (Fig. 5
// Elbtunnel cost surface): every solver reachable through the registry,
// every front door that names a solver giving the same result bit for bit,
// and the quantification engines agreeing at the optimum.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "safeopt/core/study.h"
#include "safeopt/elbtunnel/elbtunnel_model.h"
#include "safeopt/fta/probability.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/opt/solver.h"

namespace safeopt::elbtunnel {
namespace {

std::string read_model() {
  std::ifstream in(std::string(SAFEOPT_SOURCE_DIR) +
                   "/examples/models/elbtunnel.ft");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// elbtunnel.ft with its solver line replaced by `solver NAME;`.
ftio::StudyDocument document_with_solver(const std::string& text,
                                         const std::string& name) {
  const std::string line = "solver multi_start starts = 8 inner = nelder_mead;";
  const std::size_t at = text.find(line);
  if (at == std::string::npos) {
    throw std::logic_error("elbtunnel.ft lost its solver line");
  }
  std::string edited = text;
  edited.replace(at, line.size(), "solver " + name + ";");
  return ftio::parse_study(edited);
}

void expect_identical(const core::SafetyOptimizationResult& expected,
                      const core::SafetyOptimizationResult& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.optimization.argmin, actual.optimization.argmin)
      << label;
  EXPECT_EQ(expected.optimization.value, actual.optimization.value) << label;
  EXPECT_EQ(expected.optimization.evaluations,
            actual.optimization.evaluations)
      << label;
  EXPECT_EQ(expected.hazard_probabilities, actual.hazard_probabilities)
      << label;
}

TEST(RegistryParityTest, EveryFrontDoorRunsTheSameSolve) {
  // The fault-tree derivation of both hazards — the cost model
  // from_document assembles from elbtunnel.ft (see document_parity_test).
  const ElbtunnelModel model;
  const fta::FaultTree collision = model.collision_tree();
  const fta::FaultTree alarm = model.false_alarm_tree();
  core::CostModel cost;
  cost.add_hazard({"HCol",
                   model.collision_quantification(collision)
                       .hazard_expression(),
                   model.parameters().cost_collision});
  cost.add_hazard({"HAlr",
                   model.false_alarm_quantification(alarm).hazard_expression(),
                   model.parameters().cost_false_alarm});
  core::Study study(cost, model.parameter_space());
  const std::string text = read_model();
  const ftio::StudyDocument document = ftio::parse_study(text);

  for (const std::string& name : opt::SolverRegistry::available()) {
    if (opt::SolverRegistry::create(name)->traits().max_dimension == 1) {
      continue;  // the 2-D timer box is out of reach
    }
    const auto expected = study.solver(name).run();
    expect_identical(
        expected,
        core::Study::from_document(document_with_solver(text, name)).run(),
        name + " via the document's solver line");
    core::StudyOverrides overrides;
    overrides.solver = name;
    expect_identical(expected,
                     core::Study::from_document(document, overrides).run(),
                     name + " via a solver override");
    if (name == "grid_search") {
      // 33 points x 5 rounds on both axes.
      EXPECT_EQ(expected.optimization.evaluations, 5445u);
    }
  }
}

TEST(RegistryParityTest, EveryRegisteredSolverRunsOnTheElbtunnelProblem) {
  const ElbtunnelModel model;
  core::Study study(model.cost_model(), model.parameter_space());
  for (const std::string& name : opt::SolverRegistry::available()) {
    if (opt::SolverRegistry::create(name)->traits().max_dimension == 1) {
      // 1-D-only solvers must refuse the 2-D timer box with a clear error.
      EXPECT_THROW((void)study.solver(name).run(), std::invalid_argument)
          << name;
      continue;
    }
    const auto result = study.solver(name).run();
    ASSERT_EQ(result.optimization.argmin.size(), 2u) << name;
    // Every solver must improve on the engineers' guess (cost 0.0046615).
    EXPECT_LT(result.cost, 0.004650) << name;
    // Every solver lands on the paper's cost basin (T2* ~ 15.6; the
    // surface is flat along T1, so only the cost is pinned tightly).
    EXPECT_NEAR(result.cost, 0.00462, 5e-5) << name;
    EXPECT_NEAR(result.optimization.argmin[1], 15.76, 0.5) << name;
  }
}

TEST(RegistryParityTest, EnginesAgreeAtThePaperOptimum) {
  const ElbtunnelModel model;
  const fta::FaultTree collision = model.collision_tree();
  const core::ParameterizedQuantification quant =
      model.collision_quantification(collision);

  core::Study study(model.cost_model(), model.parameter_space());
  study.hazard_tree("HCol", collision, quant);
  const auto optimal = study.run();

  // The cut-set engine under the rare-event default reproduces the closed
  // form the optimizer minimized (HCol is assembled rare-event too).
  const double via_fta =
      study.engine("fta").quantify("HCol", optimal.optimal_parameters)
          .probability;
  EXPECT_NEAR(via_fta, optimal.hazard_probabilities[0],
              1e-12 * optimal.hazard_probabilities[0] + 1e-18);

  // The exact BDD value agrees to the rare-event bound's accuracy (the
  // probabilities involved are ~1e-8, so the bound is extremely tight).
  const double via_bdd =
      study.engine("bdd").quantify("HCol", optimal.optimal_parameters)
          .probability;
  EXPECT_NEAR(via_bdd, via_fta, 1e-12);
  EXPECT_LE(via_bdd, via_fta);  // rare event bounds from above

  // Monte Carlo: P(HCol) ~ 4e-8 needs more trials than a unit test should
  // burn, so sample the much likelier false-alarm hazard instead.
  const fta::FaultTree false_alarm = model.false_alarm_tree();
  const core::ParameterizedQuantification alarm_quant =
      model.false_alarm_quantification(false_alarm);
  core::Study alarm_study(model.cost_model(), model.parameter_space());
  alarm_study.hazard_tree("HAlr", false_alarm, alarm_quant);
  core::EngineConfig mc_config;
  mc_config.mc_trials = 400000;
  const auto sampled = alarm_study.engine("mc", mc_config)
                           .quantify("HAlr", optimal.optimal_parameters);
  const double alarm_exact = alarm_study.engine("bdd")
                                 .quantify("HAlr", optimal.optimal_parameters)
                                 .probability;
  ASSERT_TRUE(sampled.ci95.has_value());
  EXPECT_TRUE(sampled.ci95->contains(alarm_exact))
      << "estimate " << sampled.probability << " CI [" << sampled.ci95->lo
      << ", " << sampled.ci95->hi << "] exact " << alarm_exact;
}

}  // namespace
}  // namespace safeopt::elbtunnel
