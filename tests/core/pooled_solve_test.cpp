// Study::run() gives uninstrumented solves the shared pool, and multi_start
// spreads its starts over the workers. Its result must not depend on the
// thread count: each study below is also solved on a one-thread pool (start
// by start, inline) and on a four-thread pool, and all three must agree bit
// for bit. A budgeted solve stays sequential and keeps its pinned result.
// Run under ThreadSanitizer by the CI's TSan leg.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "safeopt/core/study.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/support/rng.h"
#include "safeopt/support/strings.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::core {
namespace {

std::string hex(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%a", value);
  return text;
}

void expect_same_bits(const opt::OptimizationResult& a,
                      const opt::OptimizationResult& b) {
  ASSERT_EQ(a.argmin.size(), b.argmin.size());
  for (std::size_t i = 0; i < a.argmin.size(); ++i) {
    EXPECT_EQ(hex(a.argmin[i]), hex(b.argmin[i])) << "argmin[" << i << "]";
  }
  EXPECT_EQ(hex(a.value), hex(b.value));
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.message, b.message);
}

/// `study` solved with its own solver settings on `pool`.
opt::OptimizationResult solve_on(Study study, ThreadPool& pool) {
  opt::SolverConfig config = study.solver_config();
  config.pool = &pool;
  study.solver(study.solver_name(), std::move(config));
  return study.run().optimization;
}

void expect_thread_count_invariant(const Study& study) {
  ThreadPool one(1);
  ThreadPool four(4);
  const opt::OptimizationResult shared = study.run().optimization;
  {
    SCOPED_TRACE("one thread");
    expect_same_bits(shared, solve_on(study, one));
  }
  {
    SCOPED_TRACE("four threads");
    expect_same_bits(shared, solve_on(study, four));
  }
}

Study model(const std::string& name) {
  return Study::from_file(std::string(SAFEOPT_SOURCE_DIR) +
                          "/examples/models/" + name + ".ft");
}

/// A study shaped like the benchmark's generated ones: four maintenance
/// intervals, a wear-out tree and a nuisance-trip tree of 32 four-leaf
/// groups (128 leaves) each, solved by multi-start Nelder–Mead.
std::string generated_study(std::uint64_t seed) {
  Rng rng(seed);
  std::string out;
  for (int p = 0; p < 4; ++p) {
    out += concat("param X", std::to_string(p), " in [4, 104];\n");
  }
  const auto tree = [&](const std::string& name, const std::string& prefix,
                        bool rising) {
    std::string top = concat(name, " or");
    std::string body;
    for (int g = 0; g < 32; ++g) {
      const std::string group = concat(prefix, std::to_string(g));
      std::string leaves[4];
      for (int l = 0; l < 4; ++l) {
        leaves[l] = concat(group, "_", std::to_string(l));
        const std::string x =
            concat("X", std::to_string(uniform_index(rng, 4)));
        // Wear-out rises with the interval, nuisance trips fall with it.
        const std::string rate =
            rising
                ? concat(format_double(uniform(rng, 2e-5, 8e-5)), " * ", x)
                : concat(format_double(uniform(rng, 0.01, 0.05)), " / ", x);
        body += concat(leaves[l], " prob = 1 - exp(-", rate, ");\n");
      }
      const std::string outer = g % 2 == 0 ? "and" : "or";
      const std::string inner = g % 2 == 0 ? "or" : "and";
      body += concat(group, " ", outer, " ", group, "_l ", group, "_r;\n",
                     group, "_l ", inner, " ", leaves[0], " ", leaves[1],
                     ";\n", group, "_r ", inner, " ", leaves[2], " ",
                     leaves[3], ";\n");
      top += concat(" ", group);
    }
    return concat("tree ", name, ";\ntoplevel ", name, ";\n", top, ";\n",
                  body, "\n");
  };
  out += tree("Risk", "r", true);
  out += tree("Outage", "o", false);
  out +=
      "hazard Risk cost = 100000;\n"
      "hazard Outage cost = 700000;\n"
      "solver multi_start starts = 8 inner = nelder_mead;\n"
      "engine fta;\n"
      "formula rare_event;\n";
  return out;
}

TEST(PooledSolveTest, ElbtunnelDoesNotDependOnTheThreadCount) {
  expect_thread_count_invariant(model("elbtunnel"));
}

TEST(PooledSolveTest, RailroadCrossingDoesNotDependOnTheThreadCount) {
  expect_thread_count_invariant(model("railroad_crossing"));
}

TEST(PooledSolveTest, GeneratedStudyDoesNotDependOnTheThreadCount) {
  const Study study =
      Study::from_document(ftio::parse_study(generated_study(7)));
  ASSERT_EQ(study.space().size(), 4u);
  ASSERT_EQ(study.solver_name(), "multi_start");
  expect_thread_count_invariant(study);
}

TEST(PooledSolveTest, BudgetedMultiStartKeepsItsSequentialResult) {
  // With a budget the solve stays sequential: which start the budget cuts
  // short must not depend on scheduling. Pinned before starts ran on the
  // pool.
  Study study = model("elbtunnel");
  opt::SolverConfig config = study.solver_config();
  config.max_evaluations = 200;
  study.solver("multi_start", std::move(config));
  const opt::OptimizationResult result = study.run().optimization;
  ASSERT_EQ(result.argmin.size(), 2u);
  EXPECT_EQ(hex(result.argmin[0]), "0x1.30172deb9b036p+4");
  EXPECT_EQ(hex(result.argmin[1]), "0x1.f82c77182cbbep+3");
  EXPECT_EQ(hex(result.value), "0x1.2ea82c1e8416ep-8");
  EXPECT_EQ(result.evaluations, 200u);
  EXPECT_EQ(result.iterations, 0u);  // cut short: the solver never returned
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.message,
            "evaluation budget exhausted after 200 evaluations");
}

}  // namespace
}  // namespace safeopt::core
