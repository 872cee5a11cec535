#include "safeopt/core/parameter_space.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace safeopt::core {
namespace {

ParameterSpace timers() {
  return ParameterSpace{
      {"T1", 5.0, 40.0, "min", "runtime of timer 1"},
      {"T2", 5.0, 40.0, "min", "runtime of timer 2"}};
}

TEST(ParameterSpaceTest, SizeAndAccess) {
  const ParameterSpace space = timers();
  ASSERT_EQ(space.size(), 2u);
  EXPECT_EQ(space[0].name, "T1");
  EXPECT_EQ(space[1].name, "T2");
  EXPECT_DOUBLE_EQ(space[0].lower, 5.0);
  EXPECT_DOUBLE_EQ(space[1].upper, 40.0);
  EXPECT_EQ(space[0].unit, "min");
}

TEST(ParameterSpaceTest, IndexOf) {
  const ParameterSpace space = timers();
  EXPECT_EQ(space.index_of("T1"), 0u);
  EXPECT_EQ(space.index_of("T2"), 1u);
  EXPECT_FALSE(space.index_of("T3").has_value());
}

TEST(ParameterSpaceTest, NamesInOrder) {
  const auto names = timers().names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "T1");
  EXPECT_EQ(names[1], "T2");
}

TEST(ParameterSpaceTest, BoxMatchesIntervals) {
  const opt::Box box = timers().box();
  ASSERT_EQ(box.dimension(), 2u);
  EXPECT_DOUBLE_EQ(box.lower[0], 5.0);
  EXPECT_DOUBLE_EQ(box.upper[0], 40.0);
  EXPECT_DOUBLE_EQ(box.lower[1], 5.0);
  EXPECT_DOUBLE_EQ(box.upper[1], 40.0);
}

TEST(ParameterSpaceTest, AssignmentRoundTrip) {
  const ParameterSpace space = timers();
  const std::vector<double> values{19.0, 15.6};
  const expr::ParameterAssignment assignment = space.assignment(values);
  EXPECT_DOUBLE_EQ(assignment.get("T1"), 19.0);
  EXPECT_DOUBLE_EQ(assignment.get("T2"), 15.6);
  EXPECT_EQ(space.values(assignment), values);
}

TEST(ParameterSpaceDeathTest, RejectsDuplicates) {
  ParameterSpace space;
  space.add({"T1", 0.0, 1.0, "", ""});
  EXPECT_DEATH(space.add({"T1", 0.0, 2.0, "", ""}), "precondition");
}

TEST(ParameterSpaceDeathTest, RejectsInvertedBounds) {
  ParameterSpace space;
  EXPECT_DEATH(space.add({"bad", 2.0, 1.0, "", ""}), "precondition");
}

TEST(ParameterSpaceTest, EvaluationPointIsTheCentreWithOverrides) {
  const ParameterSpace space = timers();
  const auto centre = space.evaluation_point({});
  EXPECT_EQ(centre.get("T1"), 22.5);
  EXPECT_EQ(centre.get("T2"), 22.5);
  const std::vector<std::pair<std::string, double>> overrides = {
      {"T2", 15.6}};
  const auto shifted = space.evaluation_point(overrides);
  EXPECT_EQ(shifted.get("T1"), 22.5);
  EXPECT_EQ(shifted.get("T2"), 15.6);
}

TEST(ParameterSpaceTest, EvaluationPointRejectsUnknownAndNonFiniteValues) {
  const ParameterSpace space = timers();
  using Overrides = std::vector<std::pair<std::string, double>>;
  EXPECT_THROW((void)space.evaluation_point(Overrides{{"T3", 1.0}}),
               std::invalid_argument);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)space.evaluation_point(Overrides{{"T1", bad}}),
                 std::invalid_argument)
        << bad;
  }
}

}  // namespace
}  // namespace safeopt::core
