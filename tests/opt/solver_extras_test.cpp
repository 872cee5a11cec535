// The solver option resolver: `--extra starts=16` (and a request's
// `extras`) goes through apply_solver_argument, which types the value by the
// shared KEY=VALUE rule and sends reserved keys to their typed fields; the
// solver's declared option table then rejects bad values (negative / NaN /
// fractional counts, unknown keys) with messages naming the key.
#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <string>

#include "safeopt/opt/solver.h"

namespace safeopt::opt {
namespace {

TEST(SolverExtrasTest, NumericValuesBecomeNumericExtras) {
  SolverConfig config;
  apply_solver_argument(config, "inner=hooke_jeeves");
  apply_solver_argument(config, "starts=16");
  apply_solver_argument(config, "initial_step=1e-3");
  EXPECT_EQ(config.number_or("starts", 0.0), 16.0);
  EXPECT_DOUBLE_EQ(config.number_or("initial_step", 0.0), 1e-3);
  EXPECT_NO_THROW(SolverRegistry::create("multi_start")->check_options(config));
}

TEST(SolverExtrasTest, ReservedKeysReachTheTypedFields) {
  // The same mapping as a document's solver section: no extra is stored.
  SolverConfig config;
  apply_solver_argument(config, "max_iterations=3");
  apply_solver_argument(config, "tolerance=-4");
  apply_solver_argument(config, "max_evaluations=100");
  apply_solver_argument(config, "seed=42");
  EXPECT_EQ(config.max_iterations, 3u);
  EXPECT_EQ(config.tolerance, -4.0);
  EXPECT_EQ(config.max_evaluations, 100u);
  EXPECT_EQ(config.seed.value_or(0), 42u);
  EXPECT_TRUE(config.extras().empty());
  for (const char* bad : {"max_iterations=-1", "seed=0.5", "tolerance=nan",
                          "max_evaluations=true"}) {
    EXPECT_THROW(apply_solver_argument(config, bad), std::invalid_argument)
        << bad;
  }
}

TEST(SolverExtrasTest, NonNumericValuesBecomeStringExtras) {
  SolverConfig config;
  apply_solver_argument(config, "inner=nelder_mead");
  EXPECT_EQ(config.string_or("inner", ""), "nelder_mead");
  // And the key is visible through has() like any set() extra.
  EXPECT_TRUE(config.has("inner"));
}

TEST(SolverExtrasTest, NumericLookingTyposAreRejectedNotStored) {
  // "4x" must not silently become a string extra no solver reads.
  SolverConfig config;
  for (const char* bad : {"starts=4x", "starts=1_000", "starts=1O",
                          "offset=-4q", "scale=.5.5"}) {
    try {
      apply_solver_argument(config, bad);
      FAIL() << "expected rejection of \"" << bad << "\"";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("malformed numeric value"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_FALSE(config.has("starts"));
}

TEST(SolverExtrasTest, MalformedArgumentsAreRejected) {
  SolverConfig config;
  for (const char* bad : {"starts", "=16", "starts=", ""}) {
    try {
      apply_solver_argument(config, bad);
      FAIL() << "expected rejection of \"" << bad << "\"";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("key=value"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(SolverExtrasTest, UnknownKeysAreRefusedWithTheSolversList) {
  SolverConfig config;
  apply_solver_argument(config, "points_per_dimensoin=9");
  try {
    SolverRegistry::create("grid_search")->check_options(config);
    FAIL() << "an undeclared key was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown grid_search option \"points_per_dimensoin\""),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("did you mean \"points_per_dimension\""),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("supported: points_per_dimension, refinement_rounds, "
                        "max_iterations"),
              std::string::npos)
        << what;
  }
}

struct BadCountCase {
  const char* argument;
  const char* key;
  const char* solver;
  const char* range;  // as the refusal words it
};

// Keeps code addresses out of the listed test names.
void PrintTo(const BadCountCase& c, std::ostream* os) { *os << c.argument; }

class SolverExtrasBadCounts : public ::testing::TestWithParam<BadCountCase> {};

TEST_P(SolverExtrasBadCounts, CountConsumptionRejectsWithTheKeyName) {
  // The value parses as a double, so it is *stored*; the solver's option
  // table rejects it before any run would read it.
  SolverConfig config;
  apply_solver_argument(config, GetParam().argument);
  try {
    SolverRegistry::create(GetParam().solver)->check_options(config);
    FAIL() << GetParam().argument;
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(GetParam().key), std::string::npos) << what;
    EXPECT_NE(what.find(std::string("must be an integer ") + GetParam().range),
              std::string::npos)
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SolverExtrasBadCounts,
    ::testing::Values(
        BadCountCase{"starts=-3", "starts", "multi_start", "in [1, 100000]"},
        BadCountCase{"starts=2.5", "starts", "multi_start", "in [1, 100000]"},
        BadCountCase{"starts=nan", "starts", "multi_start", "in [1, 100000]"},
        BadCountCase{"starts=inf", "starts", "multi_start", "in [1, 100000]"},
        BadCountCase{"generations=1e300", "generations",
                     "differential_evolution", ">= 1"}));

TEST(SolverExtrasTest, RejectedCountsFailTheSolveWithAClearMessage) {
  // End to end: solve() runs the same table check, so a bad CLI flag
  // surfaces from solve() with the key in the message.
  Problem problem;
  problem.bounds = Box::interval(0.0, 1.0);
  problem.objective = [](std::span<const double> x) { return x[0] * x[0]; };
  SolverConfig config;
  apply_solver_argument(config, "starts=-3");
  const auto solver = SolverRegistry::create("multi_start");
  try {
    (void)solver->solve(problem, config);
    FAIL();
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("starts"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace safeopt::opt
