#include "safeopt/expr/parse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "safeopt/expr/compiled.h"
#include "safeopt/expr/eval_backend.h"
#include "safeopt/expr/expr.h"
#include "safeopt/stats/distribution.h"

namespace safeopt::expr {
namespace {

const SymbolTable kTimers{"T1", "T2"};

TEST(ExprParseTest, NumbersParametersAndPrecedence) {
  const ParameterAssignment at{{"T1", 3.0}, {"T2", 5.0}};
  EXPECT_DOUBLE_EQ(parse("2 + 3 * T1", kTimers).evaluate(at), 11.0);
  EXPECT_DOUBLE_EQ(parse("(2 + 3) * T1", kTimers).evaluate(at), 15.0);
  EXPECT_DOUBLE_EQ(parse("T2 - T1 - 1", kTimers).evaluate(at), 1.0);
  EXPECT_DOUBLE_EQ(parse("12 / T1 / 2", kTimers).evaluate(at), 2.0);
  EXPECT_DOUBLE_EQ(parse("-T1 + 4", kTimers).evaluate(at), 1.0);
  EXPECT_DOUBLE_EQ(parse("1e-3", kTimers).evaluate(at), 1e-3);
  EXPECT_DOUBLE_EQ(parse("1e+05", kTimers).evaluate(at), 1e5);
  EXPECT_DOUBLE_EQ(parse("min(T1, T2) + max(T1, 4)", kTimers).evaluate(at),
                   7.0);
  EXPECT_DOUBLE_EQ(parse("pow(T1, 2)", kTimers).evaluate(at), 9.0);
  EXPECT_DOUBLE_EQ(parse("clamp(T2, 0, 4)", kTimers).evaluate(at), 4.0);
  EXPECT_DOUBLE_EQ(parse("exp(log(T1))", kTimers).evaluate(at), 3.0);
  EXPECT_DOUBLE_EQ(parse("sqrt(T1 * T1)", kTimers).evaluate(at), 3.0);
}

TEST(ExprParseTest, ConstantFoldingMatchesOperatorOverloads) {
  // Public-API construction folds constant subtrees; the parser must build
  // through the same constructors so tapes come out identical.
  EXPECT_TRUE(structurally_equal(parse("1 - 0.25", kTimers), constant(0.75)));
  EXPECT_TRUE(structurally_equal(parse("2 * 3 + T1", kTimers),
                                 constant(6.0) + parameter("T1")));
}

TEST(ExprParseTest, DistributionCalls) {
  const ParameterAssignment at{{"T1", 19.0}, {"T2", 15.6}};
  const auto transit = std::make_shared<stats::TruncatedNormal>(
      stats::TruncatedNormal::nonnegative(4.0, 2.0));
  const Expr direct = survival(transit, parameter("T1"));
  const Expr parsed =
      parse("survival[TruncatedNormal(4, 2, [0, inf])](T1)", kTimers);
  EXPECT_TRUE(structurally_equal(direct, parsed));
  EXPECT_EQ(direct.evaluate(at), parsed.evaluate(at));  // bitwise

  const Expr exp_cdf = parse("cdf[Exponential(0.13)](T2)", kTimers);
  EXPECT_DOUBLE_EQ(exp_cdf.evaluate(at), 1.0 - std::exp(-0.13 * 15.6));
}

struct RoundTripCase {
  std::string name;
  Expr expression;
};

// Keeps heap addresses out of the listed test names.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

class ParsePrintRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(ParsePrintRoundTrip, ParseOfPrintIsStructurallyIdentical) {
  const Expr& original = GetParam().expression;
  const Expr reparsed = parse(original.to_string(), kTimers);
  EXPECT_TRUE(structurally_equal(original, reparsed))
      << "printed: " << original.to_string()
      << "\nreparsed: " << reparsed.to_string();
  // And the reparsed DAG prints the same text again (printer fixed point).
  EXPECT_EQ(original.to_string(), reparsed.to_string());
}

std::vector<RoundTripCase> round_trip_cases() {
  const Expr t1 = parameter("T1");
  const Expr t2 = parameter("T2");
  const auto transit = std::make_shared<stats::TruncatedNormal>(
      stats::TruncatedNormal::nonnegative(4.0, 2.0));
  const auto normal = std::make_shared<stats::Normal>(4.0, 2.0);
  const auto weibull = std::make_shared<stats::Weibull>(1.5, 8.0);
  const auto gamma = std::make_shared<stats::Gamma>(2.0, 3.0);
  const auto lognormal = std::make_shared<stats::LogNormal>(0.5, 0.25);
  const auto uniform = std::make_shared<stats::Uniform>(-1.0, 2.5);
  return {
      {"constant", constant(0.25)},
      {"tiny_constant", constant(1.68e-6)},
      {"parameter", t1},
      {"arithmetic", (t1 + 2.0) * (t2 - 0.5) / (t1 * t2)},
      {"negation", -(t1 + t2)},
      {"unaries", expr::exp(t1) + expr::log(t2) + expr::sqrt(t1 * t2)},
      {"pow", expr::pow(t1 / 40.0, 2.5)},
      {"min_max", expr::min(t1, t2) * expr::max(t1, constant(7.0))},
      {"clamp", expr::clamp(t1 - t2, 0.0, 1.0)},
      {"poisson", poisson_exposure(0.13, t2)},
      {"survival_truncnorm", survival(transit, t1)},
      {"cdf_normal", cdf(normal, t2)},
      {"cdf_weibull", cdf(weibull, t1)},
      {"survival_gamma", survival(gamma, t2)},
      {"cdf_lognormal", cdf(lognormal, t1)},
      {"survival_uniform", survival(uniform, t2 / 16.0)},
      {"elbtunnel_collision",
       constant(4.19e-8) + 0.011 * (survival(transit, t1) +
                                    (1.0 - survival(transit, t1)) *
                                        survival(transit, t2))},
      {"elbtunnel_armed",
       constant(4.2e-4) + 9.9958e-05 * poisson_exposure(1.68e-6, t1)},
  };
}

INSTANTIATE_TEST_SUITE_P(Cases, ParsePrintRoundTrip,
                         ::testing::ValuesIn(round_trip_cases()),
                         [](const auto& info) { return info.param.name; });

TEST(ExprParseTest, ParsedExpressionsCompileToEquivalentTapes) {
  // The compiled-path contract extends to parsed expressions: the tape must
  // reproduce the tree walk bitwise at every lane width.
  const Expr parsed = parse(
      "4.19e-08 + 0.011 * (survival[TruncatedNormal(4, 2, [0, inf])](T1)"
      " + (1 - survival[TruncatedNormal(4, 2, [0, inf])](T1))"
      " * survival[TruncatedNormal(4, 2, [0, inf])](T2))",
      kTimers);
  const std::vector<std::string> order = {"T1", "T2"};
  const CompiledExpr compiled = CompiledExpr::compile(parsed, order);

  std::vector<double> points;
  for (double t1 = 5.0; t1 <= 40.0; t1 += 2.5) {
    for (double t2 = 5.0; t2 <= 40.0; t2 += 2.5) {
      points.push_back(t1);
      points.push_back(t2);
    }
  }
  const std::size_t rows = points.size() / 2;
  std::vector<double> walk(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    walk[r] = parsed.evaluate(
        {{"T1", points[2 * r]}, {"T2", points[2 * r + 1]}});
  }
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4},
                                  std::size_t{8}}) {
    std::vector<double> batch(rows);
    compiled.evaluate_batch({.points = points, .values = batch,
                             .lane_width = lanes,
                             .backend = &BackendRegistry::generic()});
    EXPECT_EQ(walk, batch) << "lane width " << lanes;
  }
}

struct ErrorCase {
  std::string name;
  std::string input;
  std::string fragment;
};

// Keeps heap addresses out of the listed test names.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class ParseErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ParseErrors, RejectsWithPositionAndReason) {
  const ErrorCase& c = GetParam();
  try {
    (void)parse(c.input, kTimers);
    FAIL() << "expected ParseError for: " << c.input;
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find(c.fragment), std::string::npos)
        << error.what();
    EXPECT_LE(error.offset(), c.input.size()) << error.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParseErrors,
    ::testing::Values(
        ErrorCase{"empty", "", "empty expression"},
        ErrorCase{"unknown_parameter", "T1 + T3", "unknown parameter 'T3'"},
        ErrorCase{"unknown_function", "frob(T1)", "unknown function 'frob'"},
        ErrorCase{"unknown_distribution", "cdf[Cauchy(0, 1)](T1)",
                  "unknown distribution 'Cauchy'"},
        ErrorCase{"bad_sigma", "cdf[Normal(4, 0)](T1)", "sigma must be > 0"},
        ErrorCase{"bad_truncation", "cdf[TruncatedNormal(4, 2, [5, 5])](T1)",
                  "lower < upper"},
        ErrorCase{"trailing", "T1 + 1 T2", "trailing input"},
        ErrorCase{"unbalanced", "(T1 + 1", "expected ')'"},
        ErrorCase{"missing_operand", "T1 + ", "unexpected end"},
        ErrorCase{"parameterized_pow", "pow(T1, T2)",
                  "pow exponent must be a constant"},
        ErrorCase{"cdf_without_brackets", "cdf(T1)",
                  "distribution in brackets"},
        ErrorCase{"stray_character", "T1 $ 2", "unexpected character '$'"}),
    [](const auto& info) { return info.param.name; });

TEST(ExprParseTest, ErrorOffsetsPointAtTheProblem) {
  try {
    (void)parse("T1 + frob(T2)", kTimers);
    FAIL();
  } catch (const ParseError& error) {
    EXPECT_EQ(error.offset(), 5u);  // the 'f' of frob
  }
}

TEST(ExprParseTest, InfAndNanLiterals) {
  EXPECT_TRUE(std::isinf(parse("inf", kTimers).evaluate({})));
  EXPECT_TRUE(std::isinf(parse("-inf", kTimers).evaluate({})));
  EXPECT_TRUE(std::isnan(parse("nan", kTimers).evaluate({})));
}

TEST(ExprParseTest, BareLiteralsAreTheConstantsTheGrammarReads) {
  // A lone literal takes a shortcut past the grammar; wrapped in
  // parentheses the same text goes the whole way through it, so the two
  // must agree bit for bit, and both are the plain constant.
  const struct {
    const char* text;
    double value;
  } cases[] = {{"0.25", 0.25}, {" -0.5 ", -0.5}, {"1e-3", 1e-3},
               {"\t-0\n", -0.0}, {".5", 0.5}, {"-.5e1", -5.0}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    const Expr bare = parse(c.text, kTimers);
    EXPECT_TRUE(structurally_equal(
        bare, parse(std::string("(") + c.text + ")", kTimers)));
    EXPECT_TRUE(structurally_equal(bare, constant(c.value)));
    EXPECT_TRUE(bare.is_constant());
  }
}

TEST(ExprParseTest, LiteralLookalikesKeepTheirGrammarResults) {
  const struct {
    const char* text;
    const char* what;
    std::size_t offset;
  } errors[] = {
      {"1e999", "malformed number starting at '1e999'", 0},
      {"0x1p-3", "unexpected trailing input at 'x1p'", 1},
      {"+1", "unexpected '+' in expression", 0},
      {"1.5e", "unexpected trailing input at 'e'", 3},
      {"- 1e999", "malformed number starting at '1e999'", 2},
  };
  for (const auto& c : errors) {
    SCOPED_TRACE(c.text);
    try {
      (void)parse(c.text, kTimers);
      ADD_FAILURE() << "expected ParseError";
    } catch (const ParseError& error) {
      EXPECT_STREQ(error.what(), c.what);
      EXPECT_EQ(error.offset(), c.offset);
    }
  }
  // Signs and spellings the grammar reads its own way.
  EXPECT_TRUE(structurally_equal(parse("- 2", kTimers), constant(-2.0)));
  EXPECT_TRUE(structurally_equal(parse("--2", kTimers), -constant(-2.0)));
  EXPECT_TRUE(structurally_equal(
      parse("-inf", kTimers),
      constant(-std::numeric_limits<double>::infinity())));
  EXPECT_FALSE(parse("T1", kTimers).is_constant());
  EXPECT_FALSE(parse("exp(1 + 2 * T1)", kTimers).is_constant());
  EXPECT_TRUE(parse("exp(1 + 2)", kTimers).is_constant());
}

TEST(ExprParseTest, SymbolTableFromVectorAndContains) {
  SymbolTable symbols(std::vector<std::string>{"b", "a", "b"});
  EXPECT_TRUE(symbols.contains("a"));
  EXPECT_TRUE(symbols.contains("b"));
  EXPECT_FALSE(symbols.contains("c"));
  EXPECT_EQ(symbols.names().size(), 2u);  // deduplicated
}

}  // namespace
}  // namespace safeopt::expr
