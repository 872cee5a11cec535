#include "safeopt/expr/compiled.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "safeopt/expr/expr.h"
#include "safeopt/stats/distribution.h"
#include "safeopt/support/rng.h"
#include "safeopt/support/thread_pool.h"
#include "testutil/random_expr.h"

namespace safeopt::expr {
namespace {

std::vector<double> values_of(const ParameterAssignment& env,
                              const std::vector<std::string>& order) {
  std::vector<double> out;
  out.reserve(order.size());
  for (const std::string& name : order) out.push_back(env.get(name));
  return out;
}

TEST(CompiledExprTest, ConstantFoldsToSingleInstruction) {
  const Expr e = (constant(2.0) + constant(3.0)) * constant(4.0);
  const CompiledExpr compiled = CompiledExpr::compile(e);
  EXPECT_EQ(compiled.tape_size(), 1u);
  EXPECT_DOUBLE_EQ(compiled.evaluate(std::vector<double>{}), 20.0);
}

TEST(CompiledExprTest, EvaluatesSimpleExpression) {
  const Expr x = parameter("x");
  const Expr y = parameter("y");
  const Expr e = (x + y) * (x - y);
  const CompiledExpr compiled = CompiledExpr::compile(e, {"x", "y"});
  EXPECT_EQ(compiled.evaluate(std::vector<double>{3.0, 2.0}), 5.0);
  EXPECT_EQ(compiled.evaluate(ParameterAssignment{{"x", 3.0}, {"y", 2.0}}),
            5.0);
}

TEST(CompiledExprTest, ParameterOrderDefaultsToAlphabetical) {
  const Expr e = parameter("b") - parameter("a");
  const CompiledExpr compiled = CompiledExpr::compile(e);
  ASSERT_EQ(compiled.parameter_order().size(), 2u);
  EXPECT_EQ(compiled.parameter_order()[0], "a");
  EXPECT_EQ(compiled.parameter_order()[1], "b");
  EXPECT_EQ(compiled.evaluate(std::vector<double>{1.0, 5.0}), 4.0);
}

TEST(CompiledExprTest, ExplicitOrderMayContainExtraParameters) {
  const Expr e = parameter("x") * 2.0;
  const CompiledExpr compiled = CompiledExpr::compile(e, {"unused", "x"});
  EXPECT_EQ(compiled.evaluate(std::vector<double>{99.0, 3.0}), 6.0);
}

TEST(CompiledExprTest, SharedSubtreeCompilesOnce) {
  const Expr x = parameter("x");
  const Expr shared = exp(x * 2.0);
  const Expr e = shared + shared * shared;
  const CompiledExpr compiled = CompiledExpr::compile(e);
  // param, mul-imm, exp, mul, add — the shared exp appears once.
  EXPECT_EQ(compiled.tape_size(), 5u);
}

TEST(CompiledExprTest, StructurallyEqualSubtreesMerge) {
  // Built twice — distinct nodes, same structure.
  const auto term = [] { return exp(parameter("x") * 2.0) + 1.0; };
  const Expr e = term() * term();
  const CompiledExpr compiled = CompiledExpr::compile(e);
  // param, mul-imm, exp, add-imm, mul: the rebuilt term dedupes.
  EXPECT_EQ(compiled.tape_size(), 5u);
}

TEST(CompiledExprTest, EqualDistributionsShareCdfInstructions) {
  // Two independently constructed but identical distributions.
  const auto d1 = std::make_shared<stats::TruncatedNormal>(
      4.0, 2.0, 0.0, std::numeric_limits<double>::infinity());
  const auto d2 = std::make_shared<stats::TruncatedNormal>(
      4.0, 2.0, 0.0, std::numeric_limits<double>::infinity());
  const Expr x = parameter("x");
  const Expr e = survival(d1, x) + survival(d2, x);
  const CompiledExpr compiled = CompiledExpr::compile(e);
  // param, survival, add — the second survival is CSE'd via the canonical
  // (type, name) distribution key.
  EXPECT_EQ(compiled.tape_size(), 3u);
  const ParameterAssignment env{{"x", 7.0}};
  EXPECT_EQ(compiled.evaluate(env), e.evaluate(env));
}

TEST(CompiledExprTest, IdentitySimplificationsPreserveValues) {
  const Expr x = parameter("x");
  const Expr e = ((x + 0.0) * 1.0 - 0.0) / 1.0 + pow(x, 1.0);
  const CompiledExpr compiled = CompiledExpr::compile(e);
  // Everything simplifies to x + x.
  EXPECT_EQ(compiled.tape_size(), 2u);
  EXPECT_EQ(compiled.evaluate(std::vector<double>{3.5}), 7.0);
}

TEST(CompiledExprTest, MatchesTreeEvaluationOnRandomDags) {
  const std::vector<std::string> params = {"a", "b", "c", "d"};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 7919 + 1);
    const Expr e = testutil::random_expr(rng, params, 5);
    const CompiledExpr compiled = CompiledExpr::compile(e, params);
    for (int point = 0; point < 5; ++point) {
      const ParameterAssignment env = testutil::random_assignment(rng, params);
      const double tree = e.evaluate(env);
      const double tape = compiled.evaluate(values_of(env, params));
      // Bitwise-comparable: the tape performs the identical operations.
      EXPECT_EQ(tree, tape) << "seed " << seed << ": " << e.to_string();
    }
  }
}

TEST(CompiledExprTest, BatchMatchesScalarEvaluation) {
  const std::vector<std::string> params = {"a", "b"};
  Rng rng(42);
  const Expr e = testutil::random_expr(rng, params, 5);
  const CompiledExpr compiled = CompiledExpr::compile(e, params);

  const std::size_t rows = 137;
  std::vector<double> points(rows * 2);
  for (double& v : points) v = uniform(rng, 0.25, 4.0);
  std::vector<double> batch(rows);
  compiled.evaluate_batch({.points = points, .values = batch});
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_EQ(batch[r],
              compiled.evaluate(std::span<const double>(&points[r * 2], 2)));
  }
}

TEST(CompiledExprTest, BatchIndependentOfThreadCount) {
  const std::vector<std::string> params = {"a", "b", "c"};
  Rng rng(7);
  const Expr e = testutil::random_expr(rng, params, 6);
  const CompiledExpr compiled = CompiledExpr::compile(e, params);

  const std::size_t rows = 1000;
  std::vector<double> points(rows * 3);
  for (double& v : points) v = uniform(rng, 0.25, 4.0);

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

TEST(CompiledExprTest, WorkspaceMemoReplaysIdenticalValues) {
  const auto dist = std::make_shared<stats::TruncatedNormal>(
      4.0, 2.0, 0.0, std::numeric_limits<double>::infinity());
  const Expr e =
      survival(dist, parameter("x")) * survival(dist, parameter("y"));
  const CompiledExpr compiled = CompiledExpr::compile(e, {"x", "y"});

  CompiledExpr::Workspace workspace;
  // Sweep x with y fixed: the y-survival memo hits on every step after the
  // first, and every value must still equal a cold evaluation.
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> point{15.0 + 0.1 * i, 16.0};
    EXPECT_EQ(compiled.evaluate(point, workspace), compiled.evaluate(point));
  }
}

TEST(CompiledExprTest, WorkspaceRebindsAcrossExpressions) {
  const CompiledExpr first =
      CompiledExpr::compile(parameter("x") * 2.0, {"x"});
  const CompiledExpr second =
      CompiledExpr::compile(parameter("x") + 1.0, {"x"});
  CompiledExpr::Workspace workspace;
  EXPECT_EQ(first.evaluate(std::vector<double>{3.0}, workspace), 6.0);
  EXPECT_EQ(second.evaluate(std::vector<double>{3.0}, workspace), 4.0);
  EXPECT_EQ(first.evaluate(std::vector<double>{5.0}, workspace), 10.0);
}

TEST(CompiledExprTest, DisassembleListsOneLinePerInstruction) {
  const Expr e = exp(parameter("x")) + 1.0;
  const CompiledExpr compiled = CompiledExpr::compile(e);
  const std::string listing = compiled.disassemble();
  std::size_t lines = 0;
  for (const char c : listing) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, compiled.tape_size());
  EXPECT_NE(listing.find("param x"), std::string::npos);
  EXPECT_NE(listing.find("exp"), std::string::npos);
}

}  // namespace
}  // namespace safeopt::expr
