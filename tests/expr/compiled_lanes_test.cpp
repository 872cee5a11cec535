// Property tests for the lane-blocked SoA batch kernel: the lane-invariance
// contract (evaluate_batch results are bitwise-identical across lane widths,
// batch sizes, and thread counts) on random expression DAGs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "safeopt/expr/compiled.h"
#include "safeopt/expr/eval_backend.h"
#include "safeopt/expr/expr.h"
#include "safeopt/stats/distribution.h"
#include "safeopt/support/rng.h"
#include "safeopt/support/thread_pool.h"
#include "testutil/random_expr.h"

namespace safeopt::expr {
namespace {

std::vector<double> random_points(Rng& rng, std::size_t rows,
                                  std::size_t dim) {
  std::vector<double> points(rows * dim);
  for (double& v : points) v = uniform(rng, 0.25, 4.0);
  return points;
}

TEST(CompiledLanesTest, LaneWidthsProduceIdenticalResultsOnRandomDags) {
  const std::vector<std::string> params = {"a", "b", "c"};
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(seed * 6151 + 11);
    const Expr e = testutil::random_expr(rng, params, 5);
    const CompiledExpr compiled = CompiledExpr::compile(e, params);
    // Batch sizes straddling the lane widths: empty tails, partial tails,
    // single-block and multi-block batches.
    for (const std::size_t rows : {1u, 3u, 4u, 7u, 8u, 9u, 32u, 137u}) {
      const std::vector<double> points =
          random_points(rng, rows, params.size());
      std::vector<double> scalar(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        scalar[r] = compiled.evaluate(
            std::span<const double>(points).subspan(r * params.size(),
                                                    params.size()));
      }
      for (const std::size_t width : {1u, 4u, 8u, 16u}) {
        std::vector<double> batch(rows);
        compiled.evaluate_batch({.points = points, .values = batch,
                                 .lane_width = width,
                                 .backend = &BackendRegistry::generic()});
        EXPECT_EQ(scalar, batch)
            << "seed " << seed << " rows " << rows << " width " << width;
      }
      // Default width under runtime dispatch: whichever backend the
      // registry picks must reproduce the scalar oracle bit for bit.
      std::vector<double> default_width(rows);
      compiled.evaluate_batch({.points = points, .values = default_width});
      EXPECT_EQ(scalar, default_width) << "seed " << seed << " rows " << rows;
    }
  }
}

TEST(CompiledLanesTest, SplitBatchesEqualOneBatch) {
  const std::vector<std::string> params = {"a", "b"};
  Rng rng(1234);
  const Expr e = testutil::random_expr(rng, params, 6);
  const CompiledExpr compiled = CompiledExpr::compile(e, params);
  const std::size_t rows = 100;
  const std::vector<double> points = random_points(rng, rows, 2);

  std::vector<double> whole(rows);
  compiled.evaluate_batch({.points = points, .values = whole});
  // Evaluate the same rows as several sub-batches with misaligned splits:
  // each row's value may not depend on where block boundaries fall.
  for (const std::size_t split : {1u, 5u, 8u, 13u, 99u}) {
    std::vector<double> pieces(rows);
    for (std::size_t begin = 0; begin < rows; begin += split) {
      const std::size_t count = std::min(split, rows - begin);
      compiled.evaluate_batch(
          {.points =
               std::span<const double>(points).subspan(begin * 2, count * 2),
           .values = std::span<double>(pieces).subspan(begin, count)});
    }
    EXPECT_EQ(whole, pieces) << "split " << split;
  }
}

TEST(CompiledLanesTest, LaneKernelIndependentOfThreadCount) {
  const std::vector<std::string> params = {"a", "b", "c"};
  Rng rng(77);
  const Expr e = testutil::random_expr(rng, params, 6);
  const CompiledExpr compiled = CompiledExpr::compile(e, params);
  const std::size_t rows = 1000;
  const std::vector<double> points = random_points(rng, rows, 3);

  std::vector<double> serial(rows);
  compiled.evaluate_batch({.points = points, .values = serial});
  for (const std::size_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    std::vector<double> parallel(rows);
    compiled.evaluate_batch(
        {.points = points, .values = parallel, .pool = &pool});
    EXPECT_EQ(serial, parallel) << threads << " threads";
  }
}

TEST(CompiledLanesTest, GridShapedBatchesHitTheArgumentMemoSafely) {
  // Grid workloads revisit distribution arguments row after row — exactly
  // the access pattern the lane kernel's direct-mapped memo serves. Every
  // replayed value must still equal a cold scalar evaluation bit for bit.
  const auto dist = std::make_shared<stats::TruncatedNormal>(
      4.0, 2.0, 0.0, std::numeric_limits<double>::infinity());
  const Expr e = survival(dist, parameter("x")) *
                     survival(dist, parameter("y")) +
                 exp(parameter("y") * -0.13);
  const CompiledExpr compiled = CompiledExpr::compile(e, {"x", "y"});

  const std::size_t nx = 37;
  const std::size_t ny = 11;
  std::vector<double> points(nx * ny * 2);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      points[2 * (j * nx + i)] = 15.0 + 0.1 * static_cast<double>(i);
      points[2 * (j * nx + i) + 1] = 15.0 + 0.3 * static_cast<double>(j);
    }
  }
  std::vector<double> batch(nx * ny);
  compiled.evaluate_batch({.points = points, .values = batch});
  for (std::size_t r = 0; r < batch.size(); ++r) {
    EXPECT_EQ(batch[r], compiled.evaluate(std::span<const double>(
                            &points[2 * r], 2)))
        << "row " << r;
  }
}

TEST(CompiledLanesTest, ExtraUnusedParametersKeepLaneKernelInBounds) {
  // kParam slot indices can exceed the tape size when the slot order carries
  // unused names; the kernel must handle a one-instruction tape with a
  // large parameter index (regression guard for the operand-pointer clamp).
  const Expr e = parameter("z");
  const CompiledExpr compiled =
      CompiledExpr::compile(e, {"p0", "p1", "p2", "p3", "p4", "z"});
  const std::size_t rows = 16;
  std::vector<double> points(rows * 6);
  Rng rng(5);
  for (double& v : points) v = uniform(rng, -2.0, 2.0);
  std::vector<double> out(rows);
  compiled.evaluate_batch({.points = points, .values = out});
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(out[r], points[r * 6 + 5]);
  }
}

}  // namespace
}  // namespace safeopt::expr
