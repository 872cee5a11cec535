#include "safeopt/opt/problem.h"

#include <gtest/gtest.h>


namespace safeopt::opt {
namespace {

TEST(BoxTest, ConstructionAndQueries) {
  const Box box({0.0, -1.0}, {2.0, 1.0});
  EXPECT_EQ(box.dimension(), 2u);
  EXPECT_DOUBLE_EQ(box.width(0), 2.0);
  EXPECT_DOUBLE_EQ(box.width(1), 2.0);
  const auto center = box.center();
  EXPECT_DOUBLE_EQ(center[0], 1.0);
  EXPECT_DOUBLE_EQ(center[1], 0.0);
}

TEST(BoxTest, ContainsChecksAllAxes) {
  const Box box({0.0, 0.0}, {1.0, 1.0});
  EXPECT_TRUE(box.contains(std::vector<double>{0.5, 0.5}));
  EXPECT_TRUE(box.contains(std::vector<double>{0.0, 1.0}));
  EXPECT_FALSE(box.contains(std::vector<double>{-0.1, 0.5}));
  EXPECT_FALSE(box.contains(std::vector<double>{0.5, 1.1}));
  EXPECT_FALSE(box.contains(std::vector<double>{0.5}));  // wrong dimension
}

TEST(BoxTest, ProjectClampsComponentwise) {
  const Box box({0.0, 0.0}, {1.0, 1.0});
  const auto projected = box.project(std::vector<double>{-3.0, 0.4});
  EXPECT_DOUBLE_EQ(projected[0], 0.0);
  EXPECT_DOUBLE_EQ(projected[1], 0.4);
}

TEST(BoxTest, IntervalFactory) {
  const Box box = Box::interval(5.0, 40.0);
  EXPECT_EQ(box.dimension(), 1u);
  EXPECT_DOUBLE_EQ(box.lower[0], 5.0);
  EXPECT_DOUBLE_EQ(box.upper[0], 40.0);
}

TEST(BoxTest, DegenerateIntervalAllowed) {
  const Box box({1.0}, {1.0});
  EXPECT_TRUE(box.contains(std::vector<double>{1.0}));
  EXPECT_DOUBLE_EQ(box.width(0), 0.0);
}

}  // namespace
}  // namespace safeopt::opt
