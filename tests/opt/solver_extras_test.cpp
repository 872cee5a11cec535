// CLI-style extras parsing: `--extra starts=16` maps onto the typed
// SolverConfig extras, and count_or-grade validation rejects bad values
// (negative / NaN / fractional) with messages naming the key.
#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <string>

#include "safeopt/opt/solver.h"

namespace safeopt::opt {
namespace {

TEST(SolverExtrasTest, NumericValuesBecomeNumericExtras) {
  SolverConfig config;
  config.set_extra_argument("starts=16")
      .set_extra_argument("tolerance_scale=1e-3")
      .set_extra_argument("offset=-4");
  EXPECT_EQ(config.count_or("starts", 0), 16u);
  EXPECT_DOUBLE_EQ(config.number_or("tolerance_scale", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(config.number_or("offset", 0.0), -4.0);
}

TEST(SolverExtrasTest, NonNumericValuesBecomeStringExtras) {
  SolverConfig config;
  config.set_extra_argument("inner=nelder_mead");
  EXPECT_EQ(config.string_or("inner", ""), "nelder_mead");
  // And the key is visible through has() like any set() extra.
  EXPECT_TRUE(config.has("inner"));
}

TEST(SolverExtrasTest, NumericLookingTyposAreRejectedNotStored) {
  // "4x" must not silently become a string extra that count_or ignores.
  SolverConfig config;
  for (const char* bad : {"starts=4x", "starts=1_000", "starts=1O",
                          "offset=-4q", "scale=.5.5"}) {
    try {
      config.set_extra_argument(bad);
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
      config.set_extra_argument(bad);
      FAIL() << "expected rejection of \"" << bad << "\"";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("key=value"),
                std::string::npos)
          << error.what();
    }
  }
}

struct BadCountCase {
  const char* argument;
  const char* key;
};

// Keeps code addresses out of the listed test names.
void PrintTo(const BadCountCase& c, std::ostream* os) { *os << c.argument; }

class SolverExtrasBadCounts : public ::testing::TestWithParam<BadCountCase> {};

TEST_P(SolverExtrasBadCounts, CountConsumptionRejectsWithTheKeyName) {
  // The value parses as a double, so it is *stored*; the count_or
  // consumption contract rejects it where a solver would read it.
  SolverConfig config;
  config.set_extra_argument(GetParam().argument);
  try {
    (void)config.count_or(GetParam().key, 1);
    FAIL() << GetParam().argument;
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(GetParam().key), std::string::npos) << what;
    EXPECT_NE(what.find("non-negative integer"), std::string::npos) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SolverExtrasBadCounts,
    ::testing::Values(BadCountCase{"starts=-3", "starts"},
                      BadCountCase{"starts=2.5", "starts"},
                      BadCountCase{"starts=nan", "starts"},
                      BadCountCase{"starts=inf", "starts"},
                      BadCountCase{"generations=1e300", "generations"}));

TEST(SolverExtrasTest, RejectedCountsFailTheSolveWithAClearMessage) {
  // End to end: multi_start consumes "starts" via count_or, so a bad CLI
  // flag surfaces from solve() with the key in the message.
  Problem problem;
  problem.bounds = Box::interval(0.0, 1.0);
  problem.objective = [](std::span<const double> x) { return x[0] * x[0]; };
  SolverConfig config;
  config.set_extra_argument("starts=-3");
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
