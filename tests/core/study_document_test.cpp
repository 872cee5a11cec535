#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "safeopt/core/study.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/opt/solver.h"
#include "safeopt/support/strings.h"

namespace safeopt::core {
namespace {

constexpr const char* kDocument = R"(
param M in [4, 52] unit "weeks";
param S in [1, 26] unit "weeks";

tree Overheat;
toplevel Overheat_top;
Overheat_top or CoolingLost Sensors;
CoolingLost inhibit CoolingFailed ProcessRunning;
CoolingFailed 2of3 PumpA PumpB PumpC;
Sensors and TempSensor1 TempSensor2;
PumpA prob = cdf[Weibull(2, 60)](M);
PumpB prob = cdf[Weibull(2, 60)](M);
PumpC prob = cdf[Weibull(2, 60)](M);
TempSensor1 prob = cdf[Weibull(1.5, 80)](S);
TempSensor2 prob = cdf[Weibull(1.5, 80)](S);
ProcessRunning condition prob = 0.7;

tree Shutdown;
toplevel Shutdown_top;
Shutdown_top or MaintenanceTrip TestTrip;
MaintenanceTrip prob = 1 - exp(-0.4 / M);
TestTrip prob = 1 - exp(-0.1 / S);

hazard Overheat cost = 25e6;
hazard Shutdown cost = 150000;
solver differential_evolution seed = 7 max_iterations = 60;
engine fta method = min_cut_upper_bound;
formula rare_event;
)";

TEST(StudyDocumentTest, AssemblesSpaceCostModelAndSelections) {
  const ftio::StudyDocument doc = ftio::parse_study(kDocument);
  const Study study = Study::from_document(doc);

  ASSERT_EQ(study.space().size(), 2u);
  EXPECT_EQ(study.space()[0].name, "M");
  EXPECT_EQ(study.space()[0].lower, 4.0);
  EXPECT_EQ(study.space()[0].upper, 52.0);
  EXPECT_EQ(study.space()[0].unit, "weeks");
  EXPECT_EQ(study.space()[1].name, "S");

  ASSERT_EQ(study.model().hazard_count(), 2u);
  EXPECT_EQ(study.model().hazard(0).name, "Overheat");
  EXPECT_EQ(study.model().hazard(0).cost, 25e6);
  EXPECT_EQ(study.model().hazard(1).name, "Shutdown");

  EXPECT_EQ(study.solver_name(), "differential_evolution");
  EXPECT_EQ(study.engine_name(), "fta");
}

TEST(StudyDocumentTest, CostModelMatchesTheDocumentExpressions) {
  // The cost model's hazard probabilities must equal the hazard expression
  // assembled from the document's own trees and leaves.
  const ftio::StudyDocument doc = ftio::parse_study(kDocument);
  const Study study = Study::from_document(doc);

  const expr::ParameterAssignment at{{"M", 26.0}, {"S", 8.0}};
  const ftio::TreeModel* shutdown = doc.find_tree("Shutdown");
  ASSERT_NE(shutdown, nullptr);
  // Shutdown is a pure OR of two events: rare-event P = p1 + p2.
  const double p1 =
      shutdown->find_leaf("MaintenanceTrip")->probability.evaluate(at);
  const double p2 = shutdown->find_leaf("TestTrip")->probability.evaluate(at);
  EXPECT_DOUBLE_EQ(
      study.model().hazard_by_name("Shutdown").probability.evaluate(at),
      p1 + p2);

  const auto result = study.evaluate_at(at);
  EXPECT_EQ(result.hazard_probabilities.size(), 2u);
  EXPECT_DOUBLE_EQ(result.cost,
                   study.model().cost_expression().evaluate(at));
}

TEST(StudyDocumentTest, QuantifyWorksOutOfTheBoxOnEveryEngine) {
  const ftio::StudyDocument doc = ftio::parse_study(kDocument);
  const expr::ParameterAssignment at{{"M", 20.0}, {"S", 5.0}};

  // The document selects "fta" with the min-cut upper bound.
  Study study = Study::from_document(doc);
  const double expression_value =
      study.model().hazard_by_name("Overheat").probability.evaluate(at);
  const auto fta = study.quantify("Overheat", at);
  EXPECT_GT(fta.probability, 0.0);

  // Swap to the exact BDD engine — same attached trees, no re-assembly.
  study.engine("bdd");
  const auto bdd = study.quantify("Overheat", at);
  // Rare-event expression vs exact Shannon: close but not equal (the
  // rare-event sum overestimates; at these leaf probabilities by a few %).
  EXPECT_NEAR(bdd.probability, expression_value, 0.1 * expression_value);
  EXPECT_LE(bdd.probability, fta.probability);
}

TEST(StudyDocumentTest, CopiesShareTheOwnedModel) {
  std::optional<Study> copy;
  {
    const ftio::StudyDocument doc = ftio::parse_study(kDocument);
    const Study original = Study::from_document(doc);
    copy = original;
    // `doc` and `original` die here; the copy must keep the trees alive.
  }
  const auto q =
      copy->quantify("Shutdown", {{"M", 10.0}, {"S", 4.0}});
  EXPECT_GT(q.probability, 0.0);
  EXPECT_LT(q.probability, 1.0);
}

TEST(StudyDocumentTest, RunUsesTheDocumentSolver) {
  const ftio::StudyDocument doc = ftio::parse_study(kDocument);
  const Study study = Study::from_document(doc);
  const auto result = study.run();
  // DE with seed 7, 60 generations: an interior optimum exists (wear-out
  // risk grows with the intervals, trip risk shrinks).
  EXPECT_GT(result.optimal_parameters.get("M"), 4.0);
  EXPECT_LT(result.optimal_parameters.get("M"), 52.0);
  EXPECT_GT(result.cost, 0.0);
  EXPECT_EQ(result.hazard_probabilities.size(), 2u);
}

TEST(StudyDocumentTest, MinCutFormulaChangesTheAssembledExpression) {
  std::string text(kDocument);
  const auto pos = text.find("formula rare_event");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("formula rare_event").size(),
               "formula min_cut_upper_bound");
  const Study rare = Study::from_document(ftio::parse_study(kDocument));
  const Study mcub = Study::from_document(ftio::parse_study(text));
  const expr::ParameterAssignment at{{"M", 40.0}, {"S", 20.0}};
  const double p_rare =
      rare.model().hazard_by_name("Overheat").probability.evaluate(at);
  const double p_mcub =
      mcub.model().hazard_by_name("Overheat").probability.evaluate(at);
  // Rare-event sums cut probabilities; the min-cut bound is tighter.
  EXPECT_LT(p_mcub, p_rare);
  EXPECT_NEAR(p_mcub, p_rare, 0.15 * p_rare);
}

TEST(StudyDocumentTest, RejectsDocumentsWithoutHazards) {
  const ftio::StudyDocument doc = ftio::parse_study(
      "toplevel t;\nt or a;\na prob = 0.1;\n");
  try {
    (void)Study::from_document(doc);
    FAIL();
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("no hazards"),
              std::string::npos)
        << error.what();
  }
}

TEST(StudyDocumentTest, DocumentOptionsSurviveInTheStudyConfigs) {
  // The CLI layers --extra/--seed/--engine overrides on top of
  // solver_config()/engine_config(); the document's options must be
  // visible there.
  const ftio::StudyDocument doc = ftio::parse_study(kDocument);
  const Study study = Study::from_document(doc);
  EXPECT_EQ(study.solver_config().seed.value_or(0), 7u);
  EXPECT_EQ(study.solver_config().max_iterations, 60u);
  EXPECT_EQ(study.engine_config().method,
            fta::ProbabilityMethod::kMinCutUpperBound);
}

TEST(StudyDocumentTest, FormulaSeedsTheEngineMethodWithoutAnEngineSection) {
  // `formula min_cut_upper_bound;` with no engine section: quantify()
  // must use the same bound the cost model was assembled with.
  const std::string text =
      "param X in [0, 1];\ntoplevel t;\nt or a b;\n"
      "a prob = 0.3 * X;\nb prob = 0.4 * X;\n"
      "hazard fault-tree cost = 1;\nformula min_cut_upper_bound;\n";
  const Study study = Study::from_document(ftio::parse_study(text));
  EXPECT_EQ(study.engine_config().method,
            fta::ProbabilityMethod::kMinCutUpperBound);
  const expr::ParameterAssignment at{{"X", 1.0}};
  // fta engine with MCUB on {a}, {b}: 1 - (1-0.3)(1-0.4) = 0.58 — equal to
  // the document's own cost-model expression, not the rare-event 0.7.
  const auto q = study.quantify("fault-tree", at);
  EXPECT_DOUBLE_EQ(q.probability,
                   study.model().hazard(0).probability.evaluate(at));
  EXPECT_DOUBLE_EQ(q.probability, 1.0 - 0.7 * 0.6);
}

TEST(StudyDocumentTest, RejectsDocumentsWithoutParameters) {
  const ftio::StudyDocument doc = ftio::parse_study(
      "toplevel t;\nt or a;\na prob = 0.1;\nhazard fault-tree cost = 1;\n");
  try {
    (void)Study::from_document(doc);
    FAIL();
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("no free parameters"),
              std::string::npos)
        << error.what();
  }
}

TEST(StudyDocumentTest, RejectsUnknownSolverAndEngine) {
  const std::string base =
      "param X in [0, 1];\ntoplevel t;\nt or a;\na prob = 0.1 * X;\n"
      "hazard fault-tree cost = 1;\n";
  EXPECT_THROW((void)Study::from_document(
                   ftio::parse_study(base + "solver warp_drive;\n")),
               std::invalid_argument);
  EXPECT_THROW((void)Study::from_document(
                   ftio::parse_study(base + "engine quantum;\n")),
               std::invalid_argument);
  EXPECT_THROW((void)Study::from_document(ftio::parse_study(
                   base + "engine fta method = exact;\n")),
               std::invalid_argument);
  EXPECT_THROW((void)Study::from_document(ftio::parse_study(
                   base + "engine mc trials = 3.5;\n")),
               std::invalid_argument);
  EXPECT_THROW((void)Study::from_document(ftio::parse_study(
                   base + "solver nelder_mead seed = -1;\n")),
               std::invalid_argument);
  // A numeric-looking typo must not silently become an ignored string
  // extra ("8x" lexes as an identifier in the document grammar).
  EXPECT_THROW((void)Study::from_document(ftio::parse_study(
                   base + "solver multi_start starts = 8x;\n")),
               std::invalid_argument);
}

// The batch backend is a property of the process (--backend,
// SAFEOPT_BACKEND, CPUID dispatch), not of a study: a document that names
// it gets the schema's unknown-option diagnostic like any typo.
TEST(StudyDocumentTest, BackendIsNotAnEngineOption) {
  const std::string text =
      "param X in [0, 1];\ntoplevel t;\nt or a;\na prob = 0.1 * X;\n"
      "hazard fault-tree cost = 1;\nengine fta backend = generic;\n";
  try {
    (void)Study::from_document(ftio::parse_study(text));
    FAIL() << "backend = generic was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what())
                  .find("unknown engine option \"backend\""),
              std::string::npos)
        << error.what();
  }
}

// "gradient_descent" and "simulated_annealing" are no longer solvers (each
// lost to another solver on quality and time in bench_optimizers); in a
// document they are unknown names like any typo, rejected with the
// registered list.
TEST(StudyDocumentTest, RejectsARemovedSolverWithTheRegisteredList) {
  const std::string available = join(opt::SolverRegistry::available(), ", ");
  EXPECT_EQ(available,
            "coordinate_descent, differential_evolution, golden_section, "
            "grid_search, hooke_jeeves, multi_start, nelder_mead");
  for (const char* removed : {"simulated_annealing", "gradient_descent"}) {
    const std::string text = concat(
        "param X in [0, 1];\ntoplevel t;\nt or a;\na prob = 0.1 * X;\n"
        "hazard fault-tree cost = 1;\nsolver ",
        removed, ";\n");
    try {
      (void)Study::from_document(ftio::parse_study(text));
      FAIL() << "solver " << removed << " was accepted";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(concat("unknown solver \"", removed,
                                    "\"; available: ", available)),
                std::string::npos)
          << message;
    }
  }
}

TEST(StudyDocumentTest, SelectionHelpersMirrorFromDocument) {
  const ftio::StudyDocument doc = ftio::parse_study(kDocument);
  const auto solver = document_solver_selection(doc);
  ASSERT_TRUE(solver.has_value());
  EXPECT_EQ(solver->name, "differential_evolution");
  EXPECT_EQ(solver->config.seed.value_or(0), 7u);
  const auto [engine_name, engine_config] = document_engine_selection(doc);
  EXPECT_EQ(engine_name, "fta");
  EXPECT_EQ(engine_config.method,
            fta::ProbabilityMethod::kMinCutUpperBound);

  // No sections at all: nullopt solver, default engine with the formula-
  // derived method — usable by engine-only callers (constant models).
  const ftio::StudyDocument bare = ftio::parse_study(
      "toplevel t;\nt or a;\na prob = 0.1;\nformula min_cut_upper_bound;\n");
  EXPECT_FALSE(document_solver_selection(bare).has_value());
  const auto [bare_name, bare_config] = document_engine_selection(bare);
  EXPECT_EQ(bare_name, "fta");
  EXPECT_EQ(bare_config.method,
            fta::ProbabilityMethod::kMinCutUpperBound);
}

TEST(StudyDocumentTest, AdaptiveEngineOptionsMapOntoEngineConfig) {
  const std::string base =
      "param X in [0, 1];\ntoplevel t;\nt or a;\na prob = 0.1 * X;\n"
      "hazard fault-tree cost = 1;\n";
  const auto [name, config] = document_engine_selection(ftio::parse_study(
      base +
      "engine mc_adaptive target_halfwidth = 0.02 relative = 1 "
      "batch = 8192 tilt = 25 budget = 4000000 seed = 5;\n"));
  EXPECT_EQ(name, "mc_adaptive");
  EXPECT_EQ(config.target_halfwidth, 0.02);
  EXPECT_TRUE(config.relative);
  EXPECT_EQ(config.batch, 8192u);
  EXPECT_EQ(config.tilt, 25.0);
  EXPECT_EQ(config.mc_trials, 4000000u);  // `budget` aliases the cap
  EXPECT_EQ(config.seed, 5u);

  // relative accepts the words too.
  const auto [_, words] = document_engine_selection(ftio::parse_study(
      base + "engine mc_adaptive relative = false;\n"));
  EXPECT_FALSE(words.relative);

  // Malformed adaptive options are rejected at load, not at quantify.
  EXPECT_THROW((void)document_engine_selection(ftio::parse_study(
                   base + "engine mc_adaptive target_halfwidth = 0;\n")),
               std::invalid_argument);
  EXPECT_THROW((void)document_engine_selection(ftio::parse_study(
                   base + "engine mc_adaptive relative = maybe;\n")),
               std::invalid_argument);
  EXPECT_THROW((void)document_engine_selection(ftio::parse_study(
                   base + "engine mc_adaptive batch = 0;\n")),
               std::invalid_argument);
  // Zero trials would reach the sampler's precondition (a SIGABRT); the
  // schema stops it at load, and one trial is the smallest valid budget.
  for (const char* key : {"trials", "budget"}) {
    for (const char* engine : {"mc", "mc_adaptive"}) {
      EXPECT_THROW((void)document_engine_selection(ftio::parse_study(
                       concat(base, "engine ", engine, " ", key, " = 0;\n"))),
                   std::invalid_argument)
          << engine << " " << key;
      EXPECT_EQ(document_engine_selection(
                    ftio::parse_study(concat(base, "engine ", engine, " ",
                                             key, " = 1;\n")))
                    .second.mc_trials,
                1u)
          << engine << " " << key;
    }
  }
  EXPECT_THROW((void)document_engine_selection(ftio::parse_study(
                   base + "engine mc_adaptive tilt = -2;\n")),
               std::invalid_argument);
}

TEST(StudyDocumentTest, SetEngineArgumentMirrorsTheDocumentMapping) {
  // The CLI's --engine-opt K=V surface: typed like document options.
  EngineConfig config;
  set_engine_argument(config, "tilt=25");
  set_engine_argument(config, "target_halfwidth=0.02");
  set_engine_argument(config, "relative=false");
  set_engine_argument(config, "budget=1000000");
  set_engine_argument(config, "method=inclusion_exclusion");
  EXPECT_EQ(config.tilt, 25.0);
  EXPECT_EQ(config.target_halfwidth, 0.02);
  EXPECT_FALSE(config.relative);
  EXPECT_EQ(config.mc_trials, 1000000u);
  EXPECT_EQ(config.method, fta::ProbabilityMethod::kInclusionExclusion);

  EXPECT_THROW(set_engine_argument(config, "tilt"), std::invalid_argument);
  EXPECT_THROW(set_engine_argument(config, "warp=9"), std::invalid_argument);
  EXPECT_THROW(set_engine_argument(config, "batch=8x"),
               std::invalid_argument);
}

TEST(StudyDocumentTest, ExtraAndEngineOptionShareOneTypingRule) {
  // `--extra` and `--engine-opt` type a KEY=VALUE value by one rule
  // (parse_key_value_argument): a whole std::from_chars double is a number,
  // a numeric-looking rest is a typo, anything else is text. The solver side
  // shows the verdict directly; the engine side through "trials", a count:
  // text fails as "must be numeric", a number is taken (or fails its range).
  enum class Verdict { kNumber, kText, kRejected };
  const auto solver_verdict = [](const std::string& value) {
    opt::SolverConfig config;
    try {
      opt::apply_solver_argument(config, "key=" + value);
    } catch (const std::invalid_argument&) {
      return Verdict::kRejected;
    }
    return config.string_or("key", "").empty() ? Verdict::kNumber
                                                : Verdict::kText;
  };
  const auto engine_verdict = [](const std::string& value) {
    EngineConfig config;
    try {
      set_engine_argument(config, "trials=" + value);
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      if (what.find("malformed numeric value") != std::string::npos) {
        return Verdict::kRejected;
      }
      if (what.find("must be numeric") != std::string::npos) {
        return Verdict::kText;
      }
    }
    return Verdict::kNumber;
  };
  struct Row {
    const char* value;
    Verdict verdict;
  };
  for (const Row& row : {Row{"1e3", Verdict::kNumber},
                         Row{"+5", Verdict::kRejected},
                         Row{" 5", Verdict::kText},
                         Row{"0x10", Verdict::kRejected},
                         Row{"8x", Verdict::kRejected},
                         Row{"inf", Verdict::kNumber},
                         Row{"true", Verdict::kText},
                         Row{"rare_event", Verdict::kText}}) {
    EXPECT_EQ(solver_verdict(row.value), row.verdict) << row.value;
    EXPECT_EQ(engine_verdict(row.value), row.verdict) << row.value;
  }
  EngineConfig config;
  set_engine_argument(config, "trials=1e3");
  EXPECT_EQ(config.mc_trials, 1000u);
}

TEST(StudyDocumentTest, PreprocessOptionsMapOntoTypedConfigFields) {
  EngineConfig config;
  // `preprocess = true` still parses (old documents) and changes nothing:
  // the bdd engine always preprocesses. `false` asked for the removed
  // unpreprocessed path and is refused.
  set_engine_argument(config, "preprocess=true");
  try {
    set_engine_argument(config, "preprocess=false");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("unpreprocessed bdd path was "
                                             "removed"),
              std::string::npos)
        << error.what();
  }
  // The module knobs are fixed at prep's defaults, not options.
  for (const char* removed : {"modularize=false", "module_min_leaves=8"}) {
    try {
      set_engine_argument(config, removed);
      FAIL() << "expected std::invalid_argument for " << removed;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("unknown engine option"),
                std::string::npos)
          << error.what();
    }
  }
  set_engine_argument(config, "ordering=weight");
  set_engine_argument(config, "table_size=65536");
  set_engine_argument(config, "cache_size=262144");
  EXPECT_EQ(config.ordering, bdd::VariableOrdering::kWeight);
  EXPECT_EQ(config.bdd_table_size, 65536u);
  EXPECT_EQ(config.bdd_cache_size, 262144u);
  // bdd_options() is the slice the bdd engine compiles with.
  const bdd::BddOptions options = config.bdd_options();
  EXPECT_EQ(options.ordering, bdd::VariableOrdering::kWeight);
  EXPECT_EQ(options.initial_table_size, 65536u);
  EXPECT_EQ(options.cache_size, 262144u);

  EXPECT_THROW(set_engine_argument(config, "ordering=random"),
               std::invalid_argument);
  EXPECT_THROW(set_engine_argument(config, "table_size=0"),
               std::invalid_argument);
}

TEST(StudyDocumentTest, UnknownOptionsSuggestTheNearestSchemaKey) {
  // The "did you mean" diagnostic resolves through the typed schema, so a
  // one-edit typo names the intended key in the error message.
  EngineConfig config;
  try {
    set_engine_argument(config, "preproces=true");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("did you mean \"preprocess\""),
              std::string::npos)
        << error.what();
  }
  try {
    set_engine_argument(config, "table_sise=64");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("did you mean \"table_size\""),
              std::string::npos)
        << error.what();
  }
}

TEST(StudyDocumentTest, EngineOptionDocsCoverThePreprocessSchema) {
  // engine_option_docs() is the single source of truth the CLI help prints;
  // every preprocessing/BDD key must be listed with its type, and the
  // removed module knobs must not be.
  const std::vector<OptionSpec> docs = engine_option_docs();
  const auto type_of = [&](std::string_view name) -> std::string_view {
    for (const OptionSpec& doc : docs) {
      if (doc.name == name) return kind_name(doc.kind);
    }
    return "";
  };
  EXPECT_EQ(type_of("preprocess"), "flag");
  EXPECT_EQ(type_of("modularize"), "");
  EXPECT_EQ(type_of("module_min_leaves"), "");
  EXPECT_EQ(type_of("ordering"), "enum");
  EXPECT_EQ(type_of("table_size"), "count");
  EXPECT_EQ(type_of("cache_size"), "count");
  EXPECT_EQ(type_of("backend"), "");
}

TEST(StudyDocumentTest, SolverOptionsMapOntoTypedConfigFields) {
  // Reserved keys land in the typed fields (seed consumed by DE), extras
  // in the typed extras (starts consumed by multi_start). Two parameters:
  // differential_evolution rejects 1-D boxes.
  const std::string base =
      "param X in [0, 1];\nparam Y in [0, 1];\ntoplevel t;\nt or a;\n"
      "a prob = 0.1 * X + 0.1 * Y;\nhazard fault-tree cost = 1;\n";
  const Study a = Study::from_document(
      ftio::parse_study(base + "solver differential_evolution seed = 3;\n"));
  const Study b = Study::from_document(
      ftio::parse_study(base + "solver differential_evolution seed = 4;\n"));
  const auto result_a = a.run();
  const auto result_a2 = a.run();
  const auto result_b = b.run();
  // Same seed: identical trajectory; both find the boundary optimum X = 0.
  EXPECT_EQ(result_a.optimization.value, result_a2.optimization.value);
  EXPECT_NEAR(result_a.optimal_parameters.get("X"),
              result_b.optimal_parameters.get("X"), 1e-6);
}

}  // namespace
}  // namespace safeopt::core
