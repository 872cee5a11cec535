#include "safeopt/ftio/study_document.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

#include "safeopt/expr/parse.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/ftio/parser.h"

namespace safeopt::ftio {
namespace {

constexpr const char* kElbtunnelStudy = R"(
# Elbtunnel height control (paper SIV), as a study document.
param T1 in [5, 40] unit "min" desc "runtime of timer 1";
param T2 in [5, 40] unit "min";

tree HCol;
toplevel Collision;
Collision or OtherCollisionCauses OT1_critical OT2_critical;
OT1_critical inhibit OT1 OHVcritical;
OT2_critical inhibit OT2 OHVcritical;
OtherCollisionCauses prob = 4.19e-08;
OT1 prob = survival[TruncatedNormal(4, 2, [0, inf])](T1);
OT2 prob = survival[TruncatedNormal(4, 2, [0, inf])](T2);
OHVcritical condition prob = 0.011;

tree HAlr;
toplevel FalseAlarm;
FalseAlarm or OtherFalseAlarmCauses HVODfinal_whileArmed;
HVODfinal_whileArmed inhibit HVODfinal ODfinalArmed;
OtherFalseAlarmCauses prob = 6e-05;
HVODfinal prob = 1 - exp(-0.13 * T2);
ODfinalArmed condition prob = 0.00042 + 9.9958e-05 * (1 - exp(-1.68e-06 * T1));

hazard HCol cost = 100000;
hazard HAlr cost = 1;
solver multi_start starts = 8 inner = nelder_mead;
engine fta method = rare_event;
formula rare_event;
)";

TEST(StudyParserTest, ParsesACompleteStudyDocument) {
  const StudyDocument doc = parse_study(kElbtunnelStudy);

  ASSERT_EQ(doc.parameters.size(), 2u);
  EXPECT_EQ(doc.parameters[0].name, "T1");
  EXPECT_EQ(doc.parameters[0].lower, 5.0);
  EXPECT_EQ(doc.parameters[0].upper, 40.0);
  EXPECT_EQ(doc.parameters[0].unit, "min");
  EXPECT_EQ(doc.parameters[0].description, "runtime of timer 1");
  EXPECT_EQ(doc.parameter_names(),
            (std::vector<std::string>{"T1", "T2"}));

  ASSERT_EQ(doc.trees.size(), 2u);
  const TreeModel* hcol = doc.find_tree("HCol");
  ASSERT_NE(hcol, nullptr);
  EXPECT_EQ(hcol->tree.basic_event_count(), 3u);
  EXPECT_EQ(hcol->tree.condition_count(), 1u);
  EXPECT_TRUE(hcol->tree.validate().empty());

  const LeafProbability* ot1 = hcol->find_leaf("OT1");
  ASSERT_NE(ot1, nullptr);
  EXPECT_FALSE(ot1->is_condition);
  EXPECT_EQ(ot1->probability.parameters(),
            (std::set<std::string>{"T1"}));

  const TreeModel* halr = doc.find_tree("HAlr");
  ASSERT_NE(halr, nullptr);
  const LeafProbability* armed = halr->find_leaf("ODfinalArmed");
  ASSERT_NE(armed, nullptr);
  EXPECT_TRUE(armed->is_condition);

  ASSERT_EQ(doc.hazards.size(), 2u);
  EXPECT_EQ(doc.hazards[0].tree, "HCol");
  EXPECT_EQ(doc.hazards[0].cost, 100000.0);

  ASSERT_TRUE(doc.solver.has_value());
  EXPECT_EQ(doc.solver->name, "multi_start");
  const OptionValue* starts = doc.solver->find_option("starts");
  ASSERT_NE(starts, nullptr);
  EXPECT_EQ(starts->kind, OptionValue::Kind::kNumber);
  EXPECT_EQ(starts->number, 8.0);
  const OptionValue* inner = doc.solver->find_option("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->text, "nelder_mead");

  ASSERT_TRUE(doc.engine.has_value());
  EXPECT_EQ(doc.engine->name, "fta");
  EXPECT_EQ(doc.formula.value_or(""), "rare_event");
}

TEST(StudyParserTest, V1DocumentsParseUnchanged) {
  // The v1 dialect is a subset: one tree, constant probabilities, no
  // sections. Both entry points must agree on it.
  constexpr const char* kV1 = R"(
tree Overheat;
toplevel Overheat_top;
Overheat_top or CoolingLost SensorBlind;
CoolingLost  2of3 PumpA PumpB PumpC;
SensorBlind  and TempSensor1 TempSensor2;
PumpA prob = 0.02;
PumpB prob = 0.02;
PumpC prob = 0.02;
TempSensor1 prob = 0.001;
TempSensor2 prob = 0.001;
)";
  const StudyDocument doc = parse_study(kV1);
  ASSERT_EQ(doc.trees.size(), 1u);
  EXPECT_EQ(doc.trees[0].tree.name(), "Overheat");
  EXPECT_TRUE(doc.hazards.empty());
  EXPECT_FALSE(doc.solver.has_value());

  const ParsedFaultTree v1 = parse_fault_tree(kV1);
  EXPECT_EQ(v1.tree.basic_event_count(),
            doc.trees[0].tree.basic_event_count());
  const auto id = v1.tree.find("PumpA");
  ASSERT_TRUE(id.has_value());
  EXPECT_DOUBLE_EQ(
      v1.probabilities.basic_event_probability[v1.tree.basic_event_ordinal(
          *id)],
      0.02);
}

TEST(StudyParserTest, ParseFaultTreeRejectsParameterizedDocuments) {
  try {
    (void)parse_fault_tree(kElbtunnelStudy);
    FAIL();
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("parse_study"),
              std::string::npos)
        << error.what();
  }
}

TEST(StudyParserTest, LeafExpressionsShareSubexpressionsAcrossTrees) {
  // The same parameter may appear in several trees; each leaf expression is
  // parsed against the full document symbol table.
  const StudyDocument doc = parse_study(kElbtunnelStudy);
  const expr::ParameterAssignment at{{"T1", 19.0}, {"T2", 15.6}};
  const double p_ot1 =
      doc.find_tree("HCol")->find_leaf("OT1")->probability.evaluate(at);
  EXPECT_GT(p_ot1, 0.0);
  EXPECT_LT(p_ot1, 1.0);
  const double p_hv =
      doc.find_tree("HAlr")->find_leaf("HVODfinal")->probability.evaluate(at);
  EXPECT_NEAR(p_hv, 1.0 - std::exp(-0.13 * 15.6), 1e-15);
}

TEST(StudyParserTest, MinimalCutSetsOfParsedTreesAreSane) {
  const StudyDocument doc = parse_study(kElbtunnelStudy);
  const auto mcs = fta::minimal_cut_sets(doc.find_tree("HCol")->tree);
  EXPECT_EQ(mcs.size(), 3u);  // residual, OT1|crit, OT2|crit
}

struct ErrorCase {
  std::string name;
  std::string input;
  std::string fragment;
  std::size_t line;
};

// Keeps heap addresses out of the listed test names.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class StudyParserErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(StudyParserErrors, ReportsPositionAndReason) {
  const ErrorCase& c = GetParam();
  try {
    (void)parse_study(c.input);
    FAIL() << "expected ParseError for " << c.name;
  } catch (const ParseError& error) {
    EXPECT_EQ(error.line(), c.line) << error.what();
    EXPECT_NE(std::string(error.what()).find(c.fragment), std::string::npos)
        << error.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, StudyParserErrors,
    ::testing::Values(
        ErrorCase{"unknown_parameter_in_expression",
                  "param T1 in [5, 40];\ntoplevel t;\nt or a;\n"
                  "a prob = 1 - exp(-0.1 * T9);\n",
                  "unknown parameter 'T9'", 4},
        ErrorCase{"expression_syntax_error",
                  "param T1 in [5, 40];\ntoplevel t;\nt or a;\n"
                  "a prob = 1 +\n;\n",
                  "unexpected end", 5},
        ErrorCase{"constant_out_of_range",
                  "toplevel t;\nt or a;\na prob = 2 * 0.8;\n",
                  "must lie in [0, 1]", 3},
        ErrorCase{"duplicate_param",
                  "param T1 in [0, 1];\nparam T1 in [2, 3];\ntoplevel t;\n"
                  "t or a;\na prob = 0.1;\n",
                  "duplicate declaration of parameter 'T1'", 2},
        ErrorCase{"bad_param_bounds",
                  "param T1 in [9, 2];\ntoplevel t;\nt or a;\na prob = 0.1;\n",
                  "lower <= upper", 1},
        ErrorCase{"param_missing_in",
                  "param T1 [5, 40];\n", "expected 'in'", 1},
        ErrorCase{"unknown_param_clause",
                  "param T1 in [5, 40] frob \"x\";\n",
                  "unknown parameter clause 'frob'", 1},
        ErrorCase{"hazard_unknown_tree",
                  "toplevel t;\nt or a;\na prob = 0.1;\n"
                  "hazard Ghost cost = 5;\n",
                  "unknown tree 'Ghost'", 4},
        ErrorCase{"hazard_negative_cost",
                  "toplevel t;\nt or a;\na prob = 0.1;\n"
                  "hazard fault-tree cost = -2;\n",
                  "non-negative", 4},
        ErrorCase{"duplicate_hazard",
                  "toplevel t;\nt or a;\na prob = 0.1;\n"
                  "hazard fault-tree cost = 1;\nhazard fault-tree cost = 2;\n",
                  "duplicate hazard", 5},
        ErrorCase{"duplicate_solver",
                  "toplevel t;\nt or a;\na prob = 0.1;\n"
                  "solver nelder_mead;\nsolver grid_search;\n",
                  "duplicate 'solver'", 5},
        ErrorCase{"duplicate_solver_option",
                  "toplevel t;\nt or a;\na prob = 0.1;\n"
                  "solver multi_start starts = 8 starts = 9;\n",
                  "duplicate option 'starts'", 4},
        ErrorCase{"unknown_formula",
                  "toplevel t;\nt or a;\na prob = 0.1;\nformula exact;\n",
                  "unknown formula 'exact'", 4},
        ErrorCase{"duplicate_tree_name",
                  "tree A;\ntoplevel t;\nt or a;\na prob = 0.1;\n"
                  "tree A;\ntoplevel s;\ns or b;\nb prob = 0.1;\n",
                  "duplicate tree 'A'", 5},
        ErrorCase{"tree_without_toplevel",
                  "tree A;\na prob = 0.1;\n",
                  "missing 'toplevel' declaration for tree 'A'", 1},
        ErrorCase{"unterminated_string",
                  "param T1 in [5, 40] unit \"min;\n",
                  "unterminated string", 1}),
    [](const auto& info) { return info.param.name; });

TEST(StudyParserTest, LoadStudyPutsTheFileNameIntoErrors) {
  const std::string path = ::testing::TempDir() + "broken_model.ft";
  {
    std::ofstream file(path);
    file << "toplevel t;\nt or ghost;\n";
  }
  try {
    (void)load_study(path);
    FAIL();
  } catch (const ParseError& error) {
    EXPECT_EQ(error.file(), path);
    EXPECT_EQ(error.line(), 2u);
    // The rendered message leads with file:line:column, verbatim enough for
    // the CLI to print error.what() as-is.
    EXPECT_NE(std::string(error.what()).find(path + ":2:"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("undefined node 'ghost'"),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(StudyParserTest, LoadStudyReadsAndRecordsTheSource) {
  const std::string path = ::testing::TempDir() + "mini_model.ft";
  {
    std::ofstream file(path);
    file << "toplevel t;\nt or a b;\na prob = 0.1;\nb prob = 0.2;\n";
  }
  const StudyDocument doc = load_study(path);
  EXPECT_EQ(doc.source, path);
  ASSERT_EQ(doc.trees.size(), 1u);
  EXPECT_EQ(doc.trees[0].tree.basic_event_count(), 2u);
  std::remove(path.c_str());

  EXPECT_THROW((void)load_study(path + ".does-not-exist"),
               std::runtime_error);
}

TEST(StudyParserTest, StringsWithQuotesAndBackslashesRoundTrip) {
  StudyDocument doc = parse_study(
      "param T in [0, 1] unit \"m/s\" desc \"say \\\"hi\\\" \\\\ there\";\n"
      "toplevel t;\nt or a;\na prob = 0.1;\n");
  ASSERT_EQ(doc.parameters.size(), 1u);
  EXPECT_EQ(doc.parameters[0].description, "say \"hi\" \\ there");
  const StudyDocument reparsed = parse_study(write_study(doc));
  EXPECT_EQ(reparsed.parameters[0].unit, doc.parameters[0].unit);
  EXPECT_EQ(reparsed.parameters[0].description,
            doc.parameters[0].description);
}

TEST(StudyParserTest, CommentsInsideExpressionsAreBlanked) {
  const StudyDocument doc = parse_study(
      "param T1 in [0, 10];\ntoplevel t;\nt or a;\n"
      "a prob = 0.5 # half\n * (T1 / 10);\n");
  const expr::ParameterAssignment at{{"T1", 4.0}};
  EXPECT_DOUBLE_EQ(doc.trees[0].find_leaf("a")->probability.evaluate(at),
                   0.2);
}

}  // namespace
}  // namespace safeopt::ftio
