// AnalysisGraph pass-reuse tests: the pass dependency graph must amortize
// everything upstream of the first changed input — identical requests hit
// every pass, canonical formatting variants share compile artifacts, and an
// optimize after a quantify reuses the same compiled study. Responses are
// deterministic byte strings (the same renderers the CLI prints).
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "safeopt/expr/eval_backend.h"
#include "safeopt/serve/analysis_graph.h"
#include "safeopt/support/error.h"
#include "safeopt/support/execution.h"
#include "safeopt/support/strings.h"
#include "serve/serve_client.h"

namespace safeopt::serve {
namespace {

const std::string kDoc{tstu::kParamDoc};
const std::string kConst{tstu::kConstDoc};

AnalysisOptions options_named(const std::string& model) {
  AnalysisOptions options;
  options.model = model;
  return options;
}

TEST(AnalysisGraphTest, RepeatedQuantifyHitsEveryPass) {
  AnalysisGraph graph(1 << 20);
  const AnalysisOptions options = options_named("m");
  const std::string first = graph.quantify(kDoc, options, nullptr);
  const std::string second = graph.quantify(kDoc, options, nullptr);
  EXPECT_EQ(first, second) << "cached responses must be byte-identical";

  const CacheStats stats = graph.cache_stats();
  EXPECT_EQ(stats.passes.at("parse").misses, 1u);
  EXPECT_EQ(stats.passes.at("parse").hits, 1u);
  EXPECT_EQ(stats.passes.at("compile").misses, 1u);
  EXPECT_EQ(stats.passes.at("compile").hits, 1u);
  EXPECT_EQ(stats.passes.at("quantify").misses, 1u);
  EXPECT_EQ(stats.passes.at("quantify").hits, 1u);
}

/// Sets the process-wide backend override for one scope and restores the
/// previous one on exit (the whole suite shares one registry).
class BackendOverride {
 public:
  explicit BackendOverride(std::string name)
      : previous_(expr::BackendRegistry::override_name()) {
    expr::BackendRegistry::set_override(std::move(name));
  }
  ~BackendOverride() { expr::BackendRegistry::set_override(previous_); }
  BackendOverride(const BackendOverride&) = delete;
  BackendOverride& operator=(const BackendOverride&) = delete;

 private:
  std::string previous_;
};

TEST(AnalysisGraphTest, ADegradedProcessBackendStillCachesQuantify) {
  // A degraded backend request is a fact of the process, reported once at
  // startup; it leaves no note on the results, so they stay reusable.
  AnalysisGraph plain_graph(1 << 20);
  const std::string plain =
      plain_graph.quantify(kDoc, options_named("m"), nullptr);

  const BackendOverride degraded("no-such-backend");
  ASSERT_FALSE(expr::BackendRegistry::resolve({}).diagnostic.empty());
  AnalysisGraph graph(1 << 20);
  const std::string first = graph.quantify(kDoc, options_named("m"), nullptr);
  const std::string second = graph.quantify(kDoc, options_named("m"), nullptr);
  EXPECT_EQ(first, plain);
  EXPECT_EQ(second, plain);
  EXPECT_EQ(graph.cache_stats().passes.at("quantify").hits, 1u);
}

TEST(AnalysisGraphTest, CanonicalVariantsShareCompiledArtifacts) {
  AnalysisGraph graph(1 << 20);
  // Same document with formatting noise: extra blank lines and comments.
  std::string noisy = "# a comment\n\n" + kDoc + "\n# trailing comment\n";
  const std::string a = graph.quantify(kDoc, options_named("m"), nullptr);
  const std::string b = graph.quantify(noisy, options_named("m"), nullptr);
  EXPECT_EQ(a, b);

  const CacheStats stats = graph.cache_stats();
  // Different raw text → two parse artifacts; same canonical hash → ONE
  // compiled study, one quantify outcome.
  EXPECT_EQ(stats.passes.at("parse").misses, 2u);
  EXPECT_EQ(stats.passes.at("compile").misses, 1u);
  EXPECT_EQ(stats.passes.at("compile").hits, 1u);
  EXPECT_EQ(stats.passes.at("quantify").misses, 1u);
  EXPECT_EQ(stats.passes.at("quantify").hits, 1u);
}

TEST(AnalysisGraphTest, OptimizeReusesTheQuantifyCompileArtifact) {
  AnalysisGraph graph(1 << 20);
  (void)graph.quantify(kDoc, options_named("m"), nullptr);
  (void)graph.optimize(kDoc, options_named("m"), nullptr);

  const CacheStats stats = graph.cache_stats();
  EXPECT_EQ(stats.passes.at("compile").misses, 1u)
      << "optimize must reuse the study quantify compiled";
  EXPECT_EQ(stats.passes.at("compile").hits, 1u);
  EXPECT_EQ(stats.passes.at("optimize").misses, 1u);
}

TEST(AnalysisGraphTest, DifferentAtPointsShareCompileButNotQuantify) {
  AnalysisGraph graph(1 << 20);
  AnalysisOptions center = options_named("m");
  AnalysisOptions shifted = options_named("m");
  shifted.at = {{"X", 0.8}};  // off the [0.1, 0.9] box center of 0.5
  const std::string a = graph.quantify(kDoc, center, nullptr);
  const std::string b = graph.quantify(kDoc, shifted, nullptr);
  EXPECT_NE(a, b) << "different evaluation points, different probabilities";

  const CacheStats stats = graph.cache_stats();
  EXPECT_EQ(stats.passes.at("compile").misses, 1u);
  EXPECT_EQ(stats.passes.at("quantify").misses, 2u);
}

TEST(AnalysisGraphTest, EngineOverrideForksTheCompileArtifact) {
  AnalysisGraph graph(1 << 20);
  AnalysisOptions fta = options_named("m");
  AnalysisOptions bdd = options_named("m");
  bdd.engine = "bdd";
  (void)graph.quantify(kDoc, fta, nullptr);
  (void)graph.quantify(kDoc, bdd, nullptr);
  const CacheStats stats = graph.cache_stats();
  EXPECT_EQ(stats.passes.at("parse").hits, 1u)
      << "the parse artifact is engine-independent";
  EXPECT_EQ(stats.passes.at("compile").misses, 2u)
      << "an engine override is a different compile key";
}

TEST(AnalysisGraphTest,
     ExpiredDeadlineDuringCompileDoesNotPoisonLaterRequests) {
  // The first request's deadline has fired before the BDD build starts, so
  // its study degrades to the fallback engine. That study is the first
  // request's alone: a later request without a deadline must get the
  // exact BDD answer a fresh graph gives, not the degraded estimate.
  const std::string doc = R"(
param p in [0.05, 0.4];

tree T;
toplevel top;
top or ab c;
ab and a b;
a prob = p;
b prob = p;
c prob = 0.05;

hazard T cost = 10;
engine bdd fallback = mc_adaptive trials = 65536 target_halfwidth = 0.2;
)";
  AnalysisGraph graph(1 << 20);
  const ExecutionControl expired(Deadline::already_expired());
  (void)graph.quantify(doc, options_named("m"), &expired);
  const std::string after = graph.quantify(doc, options_named("m"), nullptr);

  AnalysisGraph fresh(1 << 20);
  EXPECT_EQ(after, fresh.quantify(doc, options_named("m"), nullptr));
  EXPECT_EQ(after.find("degraded"), std::string::npos) << after;
}

TEST(AnalysisGraphTest, QuantifyAndOptimizeRunConcurrentlyOnOneArtifact) {
  std::vector<AnalysisOptions> points;
  for (int i = 0; i < 16; ++i) {
    AnalysisOptions options = options_named("m");
    options.at = {{"X", 0.1 + 0.05 * i}};
    points.push_back(options);
  }
  AnalysisGraph serial(1 << 20);
  const std::string optimized =
      serial.optimize(kDoc, options_named("m"), nullptr);
  std::vector<std::string> quantified;
  for (const AnalysisOptions& options : points) {
    quantified.push_back(serial.quantify(kDoc, options, nullptr));
  }

  // Both threads share one compiled artifact: compile it first.
  AnalysisGraph graph(1 << 20);
  (void)graph.quantify(kDoc, options_named("m"), nullptr);
  std::string parallel_optimized;
  std::vector<std::string> parallel_quantified(points.size());
  std::thread optimizer([&] {
    parallel_optimized = graph.optimize(kDoc, options_named("m"), nullptr);
  });
  std::thread quantifier([&] {
    for (std::size_t i = 0; i < points.size(); ++i) {
      parallel_quantified[i] = graph.quantify(kDoc, points[i], nullptr);
    }
  });
  optimizer.join();
  quantifier.join();

  EXPECT_EQ(parallel_optimized, optimized);
  EXPECT_EQ(parallel_quantified, quantified);
  EXPECT_EQ(graph.cache_stats().passes.at("compile").misses, 1u);
}

TEST(AnalysisGraphTest, UnknownAtParameterIsInvalidInput) {
  AnalysisGraph graph(1 << 20);
  AnalysisOptions options = options_named("m");
  options.at = {{"NoSuchParam", 0.5}};
  EXPECT_THROW((void)graph.quantify(kDoc, options, nullptr),
               std::invalid_argument);
}

TEST(AnalysisGraphTest, ConstantDocumentQuantifiesWithoutASolver) {
  AnalysisGraph graph(1 << 20);
  const std::string body =
      graph.quantify(kConst, options_named("const.ft"), nullptr);
  // P(T) = 0.1 * 0.2 under inclusion-exclusion on an AND of two leaves.
  EXPECT_NE(body.find("\"probability\": 0.020000000000000004"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"model\": \"const.ft\""), std::string::npos);

  const CacheStats stats = graph.cache_stats();
  EXPECT_EQ(stats.passes.count("compile"), 0u)
      << "constant documents skip the study compile pass";
  EXPECT_EQ(stats.passes.at("quantify").misses, 1u);
}

TEST(AnalysisGraphTest, InclusionExclusionOverTheCapIsAnErrorNotAnAbort) {
  // 56 minimal cut sets under `method = inclusion_exclusion`: the engine
  // build fails with a recoverable error, which `fallback` degrades.
  std::ifstream file(concat(SAFEOPT_SOURCE_DIR, "/tests/cli/vote_3_of_8.ft"));
  const std::string vote((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  ASSERT_FALSE(vote.empty());
  AnalysisGraph graph(1 << 20);
  try {
    (void)graph.quantify(vote, options_named("vote"), nullptr);
    FAIL() << "expected Error(kResourceExhausted)";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kResourceExhausted);
  }
  AnalysisOptions options = options_named("vote");
  options.engine_options = {"fallback=bdd"};
  const std::string body = graph.quantify(vote, options, nullptr);
  EXPECT_NE(body.find("degraded to \\\"bdd\\\""), std::string::npos)
      << body;
}

TEST(AnalysisGraphTest, ZeroTrialsIsInvalidInputNotAnAbort) {
  AnalysisGraph graph(1 << 20);
  for (const char* engine : {"mc", "mc_adaptive"}) {
    for (const char* option : {"trials=0", "budget=0"}) {
      AnalysisOptions options = options_named("m");
      options.engine = engine;
      options.engine_options = {option};
      EXPECT_THROW((void)graph.quantify(kDoc, options, nullptr),
                   std::invalid_argument)
          << engine << " " << option;
    }
  }
}

TEST(AnalysisGraphTest, ValidateRunsTheSolverCapabilityCheck) {
  // What `run` would refuse before its first evaluation: DE on a 1-D box.
  AnalysisGraph graph(1 << 20);
  const std::string body = graph.validate(
      "param T in [1, 365];\ntree B;\ntoplevel b;\nb prob = 1 / T;\n"
      "hazard B cost = 1;\nsolver differential_evolution;\n",
      options_named("m"));
  EXPECT_NE(body.find("differential_evolution needs at least 2-dimensional "
                      "problems"),
            std::string::npos)
      << body;
}

TEST(AnalysisGraphTest, ValidateChecksTheInnerSolverOfMultiStart) {
  // multi_start runs its inner solver's capability check on the box too.
  AnalysisGraph graph(1 << 20);
  const std::string body = graph.validate(
      "param T in [1, 365];\ntree B;\ntoplevel b;\nb prob = 1 / T;\n"
      "hazard B cost = 1;\n"
      "solver multi_start inner = differential_evolution;\n",
      options_named("m"));
  EXPECT_NE(body.find("differential_evolution needs at least 2-dimensional "
                      "problems"),
            std::string::npos)
      << body;
}

TEST(AnalysisGraphTest, ValidateTakesTheRequestOverrides) {
  // The request's solver/engine options are checked as `run` would check
  // them, and they are part of the validate cache key: the same document
  // with and without a bad extra gets two answers.
  AnalysisGraph graph(1 << 20);
  AnalysisOptions bad = options_named("m");
  bad.extras = {"starts=0"};
  const std::string refused = graph.validate(kDoc, bad);
  EXPECT_NE(refused.find("\"valid\": false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("multi_start (inner nelder_mead) option "
                         "\\\"starts\\\" must be an integer in [1, 100000], "
                         "got 0"),
            std::string::npos)
      << refused;
  const std::string ok = graph.validate(kDoc, options_named("m"));
  EXPECT_NE(ok.find("\"valid\": true"), std::string::npos) << ok;

  AnalysisOptions engine = options_named("m");
  engine.engine = "mc";
  engine.engine_options = {"trials=0"};
  EXPECT_NE(graph.validate(kDoc, engine).find("\"valid\": false"),
            std::string::npos);
}

TEST(AnalysisGraphTest, ValidateReportsProblemsAndCachesByCanonicalHash) {
  AnalysisGraph graph(1 << 20);
  const std::string ok = graph.validate(kDoc, options_named("m"));
  EXPECT_NE(ok.find("\"problems\": []"), std::string::npos) << ok;

  (void)graph.validate(kDoc, options_named("m"));
  const CacheStats stats = graph.cache_stats();
  EXPECT_EQ(stats.passes.at("validate").misses, 1u);
  EXPECT_EQ(stats.passes.at("validate").hits, 1u);
}

TEST(AnalysisGraphTest, ExpiredDeadlineAbortsAndIsNeverCached) {
  AnalysisGraph graph(1 << 20);
  ExecutionControl control(Deadline::already_expired());
  // Depending on where the first cooperative checkpoint lands relative to
  // the (tiny) computation, the abort surfaces as Error(kDeadlineExceeded),
  // as an aborted-flagged result, or the work completes first. In every
  // case the outcome of a fired control must not be cached as reusable.
  try {
    (void)graph.quantify(kDoc, options_named("m"), &control);
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kDeadlineExceeded);
  }
  // A later unconstrained request recomputes (miss #2, no hit) and gets a
  // clean result — never a replay of the deadline-constrained attempt.
  const std::string clean = graph.quantify(kDoc, options_named("m"), nullptr);
  EXPECT_EQ(clean.find("\"aborted\": true"), std::string::npos) << clean;
  const CacheStats stats = graph.cache_stats();
  EXPECT_EQ(stats.passes.at("quantify").misses, 2u)
      << "an outcome computed under a fired control must not be cached";
  EXPECT_EQ(stats.passes.at("quantify").hits, 0u);
}

TEST(AnalysisGraphTest, CancelledGridSearchReturnsAnUnconvergedBody) {
  // A solve whose control fired before its first evaluation is unwound by
  // the solver's instrumentation: grid_search never reaches its zoom step
  // with no incumbent, and the response reports the partial result.
  std::ifstream file(
      concat(SAFEOPT_SOURCE_DIR, "/examples/models/railroad_crossing.ft"));
  const std::string railroad((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());
  ASSERT_FALSE(railroad.empty());
  AnalysisOptions options = options_named("railroad");
  options.solver = "grid_search";
  options.engine = "fta";
  ExecutionControl control;
  control.token.request_cancel();
  AnalysisGraph graph(1 << 20);
  const std::string body = graph.optimize(railroad, options, &control);
  EXPECT_NE(body.find("\"converged\": false"), std::string::npos) << body;
  EXPECT_NE(body.find("\"evaluations\": 0"), std::string::npos) << body;
}

TEST(AnalysisGraphTest, McDeadlineAbortsTheSamplerAndIsNeverCached) {
  // The "mc" engine polls the request control between chunks: a budget of
  // 10^12 trials under a 50 ms deadline comes back flagged aborted instead
  // of holding the worker for hours, and that request-specific outcome is
  // never cached — the identical second request recomputes.
  AnalysisGraph graph(1 << 20);
  AnalysisOptions options = options_named("const.ft");
  options.engine = "mc";
  options.engine_options = {"trials=1000000000000"};
  for (int request = 0; request < 2; ++request) {
    ExecutionControl control(Deadline::after_ms(50));
    const std::string body = graph.quantify(kConst, options, &control);
    EXPECT_NE(body.find("\"aborted\": true"), std::string::npos) << body;
  }
  const CacheStats stats = graph.cache_stats();
  EXPECT_EQ(stats.passes.at("quantify").misses, 2u);
  EXPECT_EQ(stats.passes.at("quantify").hits, 0u);
}

TEST(AnalysisGraphTest, OptionFingerprintIsInjective) {
  // One delimiter-containing value must not alias the split variant — the
  // two configure engines differently and cannot share a compile artifact.
  AnalysisOptions joined;
  joined.engine_options = {"a=1,b=2"};
  AnalysisOptions split;
  split.engine_options = {"a=1", "b=2"};
  EXPECT_NE(option_fingerprint(joined), option_fingerprint(split));

  // Values spilling across field boundaries must not alias either.
  AnalysisOptions spoofed;
  spoofed.extras = {"x=1;solver=+de"};
  AnalysisOptions honest;
  honest.extras = {"x=1"};
  honest.solver = "de";
  EXPECT_NE(option_fingerprint(spoofed), option_fingerprint(honest));

  // Absent and empty-string options are distinct configurations.
  AnalysisOptions absent;
  AnalysisOptions empty;
  empty.engine = "";
  EXPECT_NE(option_fingerprint(absent), option_fingerprint(empty));

  // The fingerprint stays deterministic for equal options (it is a cache
  // key), and ignores the response-only model label.
  AnalysisOptions relabeled = joined;
  relabeled.model = "a different label";
  EXPECT_EQ(option_fingerprint(joined), option_fingerprint(relabeled));
}

TEST(AnalysisGraphTest, PassListIsTopologicallyOrdered) {
  const auto& passes = analysis_passes();
  ASSERT_GE(passes.size(), 7u);
  EXPECT_EQ(passes.front().name, "parse");
  EXPECT_EQ(passes.back().name, "optimize");
  // Every dependency must name an earlier pass.
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const std::string deps(passes[i].depends_on);
    for (std::size_t j = i + 1; j < passes.size(); ++j) {
      EXPECT_EQ(deps.find(std::string(passes[j].name)), std::string::npos)
          << passes[i].name << " depends on later pass " << passes[j].name;
    }
  }
}

}  // namespace
}  // namespace safeopt::serve
