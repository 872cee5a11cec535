#include "safeopt/core/quantification_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "safeopt/bdd/bdd.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/fta/fault_tree.h"
#include "safeopt/fta/probability.h"
#include "safeopt/prep/preprocess.h"
#include "safeopt/support/error.h"
#include "safeopt/support/strings.h"

namespace safeopt::core {
namespace {

/// The quickstart pump train: redundancy, a single point of failure, and an
/// INHIBIT condition — exercises every leaf kind an engine must handle.
struct PumpSystem {
  fta::FaultTree tree{"LossOfCoolantFlow"};
  fta::QuantificationInput input;

  PumpSystem() {
    const auto pump_a = tree.add_basic_event("PumpA");
    const auto pump_b = tree.add_basic_event("PumpB");
    const auto valve = tree.add_basic_event("Valve");
    const auto trip = tree.add_basic_event("Trip");
    const auto maintenance = tree.add_condition("Maintenance", "");
    const auto both = tree.add_and("BothPumps", {pump_a, pump_b});
    const auto spurious = tree.add_inhibit("Spurious", trip, maintenance);
    tree.set_top(tree.add_or("Loss", {both, valve, spurious}));

    input = fta::QuantificationInput::for_tree(tree, 0.0);
    input.set(tree, "PumpA", 3e-3);
    input.set(tree, "PumpB", 3e-3);
    input.set(tree, "Valve", 1e-4);
    input.set(tree, "Trip", 2e-3);
    input.set(tree, "Maintenance", 0.05);
  }
};

TEST(EngineRegistryTest, ListsTheBuiltinEngines) {
  for (const char* name : {"fta", "bdd", "mc", "mc_adaptive"}) {
    EXPECT_TRUE(EngineRegistry::contains(name)) << name;
  }
  const auto available = EngineRegistry::available();
  EXPECT_GE(available.size(), 4u);
}

TEST(EngineRegistryTest, UnknownEngineNamesThrow) {
  const PumpSystem system;
  try {
    (void)EngineRegistry::create("no_such_engine", system.tree);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("available"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("bdd"), std::string::npos);
  }
}

TEST(EngineConformanceTest, EnginesAgreeOnThePumpSystem) {
  const PumpSystem system;
  // Oracle: exact integration of the structure function.
  const double oracle =
      fta::exact_probability_bruteforce(system.tree, system.input);

  // The exact engines reproduce the oracle to rounding.
  EngineConfig exact_config;
  exact_config.method = fta::ProbabilityMethod::kInclusionExclusion;
  const double via_ie =
      EngineRegistry::create("fta", system.tree, exact_config)
          ->quantify(system.input)
          .probability;
  const double via_bdd = EngineRegistry::create("bdd", system.tree)
                             ->quantify(system.input)
                             .probability;
  EXPECT_NEAR(via_ie, oracle, 1e-15);
  EXPECT_NEAR(via_bdd, oracle, 1e-15);

  // The bounding methods bound from above.
  const double rare_event = EngineRegistry::create("fta", system.tree)
                                ->quantify(system.input)
                                .probability;
  EXPECT_GE(rare_event, oracle);
  EXPECT_NEAR(rare_event, oracle, 1e-6);  // rare events: bound is tight

  // Monte Carlo brackets the exact value in its confidence interval.
  EngineConfig mc_config;
  mc_config.mc_trials = 400000;
  const auto sampled = EngineRegistry::create("mc", system.tree, mc_config)
                           ->quantify(system.input);
  ASSERT_TRUE(sampled.ci95.has_value());
  EXPECT_TRUE(sampled.ci95->contains(oracle))
      << "estimate " << sampled.probability << " CI [" << sampled.ci95->lo
      << ", " << sampled.ci95->hi << "] oracle " << oracle;
  EXPECT_EQ(sampled.trials, mc_config.mc_trials);
}

TEST(EngineConformanceTest, PreprocessedEnginesMatchAndReportDiagnostics) {
  const PumpSystem system;
  const double oracle =
      fta::exact_probability_bruteforce(system.tree, system.input);

  // The bdd engine always quantifies through the pass pipeline, agrees with
  // the oracle, and reports what the passes did...
  const QuantificationResult result =
      EngineRegistry::create("bdd", system.tree)->quantify(system.input);
  EXPECT_NEAR(result.probability, oracle, 1e-15);
  ASSERT_TRUE(result.preprocess.has_value());
  const PreprocessSummary& summary = *result.preprocess;
  EXPECT_EQ(summary.events_before,
            system.tree.basic_event_count() + system.tree.condition_count());
  EXPECT_GT(summary.gates_before, 0u);
  ASSERT_FALSE(summary.passes.empty());
  EXPECT_EQ(summary.passes.front(), "propagate");

  // ...bit for bit what prep's per-module diagrams give with the engine's
  // options (the module knobs are PreprocessOptions's defaults)...
  const EngineConfig config;
  const prep::PreprocessedTree preprocessed = prep::preprocess(system.tree);
  EXPECT_EQ(result.probability,
            prep::CompiledPreprocessedTree(preprocessed, config.bdd_options())
                .probability(system.input));

  // ...while the fta engine runs MOCUS on the original tree and reports no
  // pass pipeline.
  EngineConfig exact_config;
  exact_config.method = fta::ProbabilityMethod::kInclusionExclusion;
  const QuantificationResult cut_sets =
      EngineRegistry::create("fta", system.tree, exact_config)
          ->quantify(system.input);
  EXPECT_NEAR(cut_sets.probability, oracle, 1e-15);
  EXPECT_FALSE(cut_sets.preprocess.has_value());

  // prep's diagrams are *bitwise* equal to the plain ROBDD when
  // modularization is off (structure passes preserve the DFS leaf order,
  // and the ROBDD is canonical), and still agree with the oracle when
  // modules are extracted aggressively.
  prep::PreprocessOptions no_modules;
  no_modules.modularize = false;
  const prep::PreprocessedTree structured =
      prep::preprocess(system.tree, no_modules);
  EXPECT_EQ(structured.statistics.modules, 0u);
  EXPECT_EQ(prep::quantify_bdd(structured, system.input).probability,
            bdd::compile(system.tree).probability(system.input));
  prep::PreprocessOptions small_modules;
  small_modules.module_min_leaves = 2;
  const prep::PreprocessedTree modular =
      prep::preprocess(system.tree, small_modules);
  EXPECT_GT(modular.statistics.modules, 0u);
  EXPECT_NEAR(prep::quantify_bdd(modular, system.input).probability, oracle,
              1e-15);
}

TEST(EngineConformanceTest, InclusionExclusionOverTheCapRefusesToBuild) {
  // 3-of-8 voting has C(8,3) = 56 minimal cut sets: more than
  // inclusion-exclusion can sum over. Construction raises a recoverable
  // error (so `fallback` can take over) instead of tripping the
  // precondition at the first quantify.
  fta::FaultTree tree("vote");
  std::vector<fta::NodeId> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(tree.add_basic_event(concat("e", std::to_string(i))));
  }
  tree.set_top(tree.add_k_of_n("top", 3, std::move(leaves)));
  EngineConfig config;
  config.method = fta::ProbabilityMethod::kInclusionExclusion;
  try {
    (void)EngineRegistry::create("fta", tree, config);
    FAIL() << "expected Error(kResourceExhausted)";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kResourceExhausted);
    EXPECT_NE(std::string(error.what()).find("at most 25 minimal cut sets"),
              std::string::npos)
        << error.what();
  }
  // The bounding methods have no cap.
  EXPECT_NO_THROW((void)EngineRegistry::create("fta", tree));

  // The fallback is the bdd engine: only bdd reports a pass pipeline.
  config.fallback = "bdd";
  std::string diagnostic;
  const auto engine =
      create_engine_with_fallback("fta", tree, config, &diagnostic);
  EXPECT_TRUE(engine->quantify(fta::QuantificationInput::for_tree(tree, 0.1))
                  .preprocess.has_value());
  EXPECT_NE(diagnostic.find("resource_exhausted"), std::string::npos)
      << diagnostic;
}

TEST(EngineConformanceTest, AdaptiveEngineReportsUniformDiagnostics) {
  const PumpSystem system;
  const double oracle =
      fta::exact_probability_bruteforce(system.tree, system.input);

  EngineConfig config;
  config.target_halfwidth = 0.1;
  config.relative = true;
  config.mc_trials = 1u << 22;
  config.seed = 1;  // a 95% interval misses 5% of seeds; this one covers
  const auto result = EngineRegistry::create("mc_adaptive", system.tree, config)
                          ->quantify(system.input);

  ASSERT_TRUE(result.ci95.has_value());
  ASSERT_TRUE(result.ess.has_value());
  ASSERT_TRUE(result.converged.has_value());
  EXPECT_TRUE(*result.converged);
  EXPECT_EQ(*result.ess, static_cast<double>(result.trials));  // crude mode
  EXPECT_LE(result.halfwidth(), 0.1 * result.probability);
  EXPECT_TRUE(result.ci95->contains(oracle))
      << result.probability << " vs " << oracle;

  // The fixed-budget engine reports the same diagnostic surface (ESS ==
  // trials; no convergence notion).
  const auto fixed =
      EngineRegistry::create("mc", system.tree)->quantify(system.input);
  ASSERT_TRUE(fixed.ess.has_value());
  EXPECT_EQ(*fixed.ess, static_cast<double>(fixed.trials));
  EXPECT_FALSE(fixed.converged.has_value());
}

TEST(EngineConformanceTest, McIsDeterministicUnderAFixedSeed) {
  const PumpSystem system;
  EngineConfig config;
  config.mc_trials = 20000;
  config.seed = 123;
  const auto first = EngineRegistry::create("mc", system.tree, config)
                         ->quantify(system.input);
  const auto again = EngineRegistry::create("mc", system.tree, config)
                         ->quantify(system.input);
  EXPECT_EQ(first.probability, again.probability);
}

TEST(EngineConformanceTest, McMatchesPinnedValuesWithinOneChunk) {
  // "mc" draws its first 4096 trials from the unjumped Rng(seed) stream,
  // trial-major and leaf-ordered, so up to one chunk it reproduces the
  // sequential fixed-budget estimator it replaced bit for bit. These values
  // were captured from that estimator (probability, Wilson bounds, trials).
  PumpSystem system;
  system.input.set(system.tree, "PumpA", 0.3);
  system.input.set(system.tree, "PumpB", 0.3);
  system.input.set(system.tree, "Valve", 0.05);
  system.input.set(system.tree, "Trip", 0.2);
  system.input.set(system.tree, "Maintenance", 0.5);
  struct Pinned {
    std::uint64_t seed;
    std::uint64_t trials;
    double probability, lo, hi;
  };
  const Pinned pinned[] = {
      {0x5a4e0, 2000, 0x1.c28f5c28f5c29p-3, 0x1.9e7f660ec14a3p-3,
       0x1.e8d22b3b41ff7p-3},
      {0x5a4e0, 4096, 0x1.c1p-3, 0x1.a798bcd8eceeep-3, 0x1.db7b1bc4470cap-3},
      {7, 2000, 0x1.ae147ae147ae1p-3, 0x1.8aad751d03c58p-3,
       0x1.d3c273a67fa22p-3},
      {7, 4096, 0x1.c28p-3, 0x1.a9106cf81a0ccp-3, 0x1.dd02b36d7bf7cp-3},
      {0xbeef, 2000, 0x1.d3f7ced916873p-3, 0x1.af5e980a83dc7p-3,
       0x1.fab2c87e9f53bp-3},
      {0xbeef, 4096, 0x1.c2p-3, 0x1.a893316688993p-3, 0x1.dc802c66ecbdbp-3},
  };
  for (const Pinned& pin : pinned) {
    EngineConfig config;
    config.seed = pin.seed;
    config.mc_trials = pin.trials;
    const auto result = EngineRegistry::create("mc", system.tree, config)
                            ->quantify(system.input);
    EXPECT_EQ(result.trials, pin.trials) << "seed " << pin.seed;
    EXPECT_EQ(result.probability, pin.probability) << "seed " << pin.seed;
    ASSERT_TRUE(result.ci95.has_value());
    EXPECT_EQ(result.ci95->lo, pin.lo) << "seed " << pin.seed;
    EXPECT_EQ(result.ci95->hi, pin.hi) << "seed " << pin.seed;
    EXPECT_EQ(*result.ess, static_cast<double>(pin.trials));
    EXPECT_FALSE(*result.aborted);
  }
}

TEST(EngineConformanceTest, McAndMcAdaptiveShareOneSampler) {
  // "mc" is the adaptive sampler with no stopping target: at the same
  // budget, batch and seed it is bitwise-equal to an "mc_adaptive" run
  // whose target is out of reach, and only "mc_adaptive" reports whether
  // it converged.
  const PumpSystem system;
  EngineConfig config;
  config.mc_trials = 50000;
  config.batch = 1u << 14;
  config.seed = 9;
  const auto fixed = EngineRegistry::create("mc", system.tree, config);
  config.target_halfwidth = 1e-12;
  config.relative = false;
  const auto adaptive =
      EngineRegistry::create("mc_adaptive", system.tree, config);
  const auto a = fixed->quantify(system.input);
  const auto b = adaptive->quantify(system.input);
  EXPECT_EQ(a.trials, 50000u);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.probability, b.probability);
  EXPECT_EQ(a.ci95->lo, b.ci95->lo);
  EXPECT_EQ(a.ci95->hi, b.ci95->hi);
  EXPECT_FALSE(a.converged.has_value());
  ASSERT_TRUE(b.converged.has_value());
  EXPECT_FALSE(*b.converged);
}

TEST(EngineRegistryTest, RegistrarRegistersACustomEngine) {
  // A "pessimist" engine that always reports certainty — one override in
  // user code buys a fully pluggable backend (see docs/extending.md).
  class PessimistEngine final : public QuantificationEngine {
   public:
    [[nodiscard]] QuantificationResult quantify(
        const fta::QuantificationInput&,
        const ExecutionControl* = nullptr) const override {
      QuantificationResult result;
      result.probability = 1.0;
      return result;
    }
  };
  const EngineRegistrar registrar(
      "test_pessimist",
      [](const fta::FaultTree&, const EngineConfig&,
         const ExecutionControl*) {
        return std::make_unique<PessimistEngine>();
      });
  ASSERT_TRUE(EngineRegistry::contains("test_pessimist"));
  const PumpSystem system;
  EXPECT_EQ(EngineRegistry::create("test_pessimist", system.tree)
                ->quantify(system.input)
                .probability,
            1.0);
}

}  // namespace
}  // namespace safeopt::core
