#include "safeopt/ftio/parser.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "../testutil/random_tree.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/ftio/writer.h"

namespace safeopt::ftio {
namespace {

constexpr const char* kFig2Model = R"(
# Elbtunnel collision tree (paper Fig. 2)
tree Collision;
toplevel Collision_top;
Collision_top or OHVIgnoresSignal SignalNotOn;
SignalNotOn   or SignalOutOfOrder SignalNotActivated;
OHVIgnoresSignal   prob = 1e-3;
SignalOutOfOrder   prob = 1e-4;
SignalNotActivated prob = 5e-4;
)";

TEST(ParserTest, ParsesFig2Model) {
  const ParsedFaultTree parsed = parse_fault_tree(kFig2Model);
  EXPECT_EQ(parsed.tree.name(), "Collision");
  EXPECT_EQ(parsed.tree.basic_event_count(), 3u);
  EXPECT_EQ(parsed.tree.gate_count(), 2u);
  EXPECT_EQ(parsed.tree.node_name(parsed.tree.top()), "Collision_top");
  EXPECT_TRUE(parsed.tree.validate().empty());
  EXPECT_TRUE(parsed.probabilities.is_valid_for(parsed.tree));
  const auto id = parsed.tree.find("OHVIgnoresSignal");
  ASSERT_TRUE(id.has_value());
  EXPECT_DOUBLE_EQ(parsed.probabilities
                       .basic_event_probability[parsed.tree
                                                    .basic_event_ordinal(*id)],
                   1e-3);
}

TEST(ParserTest, ParsesAllGateKinds) {
  const ParsedFaultTree parsed = parse_fault_tree(R"(
toplevel top;
top or g_and g_vote g_xor g_inh;
g_and and a b;
g_vote 2of3 a b c;
g_xor xor a b;
g_inh inhibit a cond;
a prob = 0.1;
b prob = 0.2;
c prob = 0.3;
cond condition prob = 0.5;
)");
  const auto& tree = parsed.tree;
  EXPECT_EQ(tree.gate_type(*tree.find("g_and")), fta::GateType::kAnd);
  EXPECT_EQ(tree.gate_type(*tree.find("g_vote")), fta::GateType::kKofN);
  EXPECT_EQ(tree.vote_threshold(*tree.find("g_vote")), 2u);
  EXPECT_EQ(tree.gate_type(*tree.find("g_xor")), fta::GateType::kXor);
  EXPECT_EQ(tree.gate_type(*tree.find("g_inh")), fta::GateType::kInhibit);
  EXPECT_EQ(tree.condition_count(), 1u);
  EXPECT_DOUBLE_EQ(parsed.probabilities.condition_probability[0], 0.5);
}

TEST(ParserTest, SharedSubtreesAreSingleNodes) {
  const ParsedFaultTree parsed = parse_fault_tree(R"(
toplevel top;
top and left right;
left or shared a;
right or shared b;
shared prob = 0.01;
a prob = 0.1;
b prob = 0.2;
)");
  // "shared" appears twice as a child but is one node; MCS must absorb.
  const auto mcs = fta::minimal_cut_sets(parsed.tree);
  EXPECT_EQ(mcs.size(), 2u);  // {shared}, {a, b}
}

struct ErrorCase {
  std::string name;
  std::string input;
  std::string message_fragment;
  std::size_t line;
};

// Keeps heap addresses out of the listed test names.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.name; }

class ParserErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ParserErrors, ReportsPositionAndReason) {
  const ErrorCase& c = GetParam();
  try {
    (void)parse_fault_tree(c.input);
    FAIL() << "expected ParseError for " << c.name;
  } catch (const ParseError& error) {
    EXPECT_EQ(error.line(), c.line) << error.what();
    EXPECT_NE(std::string(error.what()).find(c.message_fragment),
              std::string::npos)
        << error.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrors,
    ::testing::Values(
        ErrorCase{"missing_toplevel", "a prob = 0.1;\n", "missing 'toplevel'",
                  1},
        ErrorCase{"missing_semicolon", "toplevel top\ntop or a b;\n",
                  "expected ';'", 2},
        ErrorCase{"unknown_gate_kind",
                  "toplevel t;\nt frobnicate a b;\na prob = 0.1;\n",
                  "unknown gate kind", 2},
        ErrorCase{"undefined_node", "toplevel t;\nt or a ghost;\na prob = 0.1;\n",
                  "undefined node 'ghost'", 2},
        ErrorCase{"probability_out_of_range",
                  "toplevel t;\nt or a;\na prob = 1.5;\n",
                  "must lie in [0, 1]", 3},
        ErrorCase{"duplicate_gate",
                  "toplevel t;\nt or a;\nt or a;\na prob = 0.1;\n",
                  "duplicate definition", 3},
        ErrorCase{"duplicate_leaf",
                  "toplevel t;\nt or a;\na prob = 0.1;\na prob = 0.2;\n",
                  "duplicate declaration", 4},
        ErrorCase{"inhibit_arity",
                  "toplevel t;\nt inhibit a;\na prob = 0.1;\n",
                  "exactly two operands", 2},
        ErrorCase{"inhibit_condition_kind",
                  "toplevel t;\nt inhibit a b;\na prob = 0.1;\nb prob = 0.2;\n",
                  "must be a condition leaf", 2},
        ErrorCase{"vote_too_few_children",
                  "toplevel t;\nt 3of2 a b;\na prob = 0.1;\nb prob = 0.1;\n",
                  "fewer children", 2},
        // The cycle is detected while expanding gate b (line 3), whose
        // child refers back to a.
        ErrorCase{"cycle", "toplevel a;\na or b;\nb or a;\n", "cycle", 3},
        ErrorCase{"bad_character", "toplevel t;\nt or a$;\n", "unexpected",
                  2},
        ErrorCase{"unreachable_leaf",
                  "toplevel t;\nt or a;\na prob = 0.1;\nzombie prob = 0.5;\n",
                  "not reachable", 4},
        // FaultTree::set_top refuses a condition by contract (an abort),
        // so the parser must refuse it first.
        ErrorCase{"condition_toplevel",
                  "\ntoplevel c;\nc condition prob = 0.5;\n",
                  "toplevel 'c' is a condition leaf", 2}),
    [](const auto& info) { return info.param.name; });

// Documents with several faults at once: which fault is reported first is
// part of the diagnostic contract, so the whole message and its
// line:column are pinned. Names are chosen so that declaration order and
// name order disagree; the unreachable-leaf and bad-expression checks
// report the leaf that comes first by name.
struct FirstFaultCase {
  const char* name;
  const char* input;
  const char* what;
  std::size_t line;
  std::size_t column;
};

TEST(ParserTest, SeveralFaultsReportTheSameFirstOne) {
  const FirstFaultCase cases[] = {
      {"two_unreachable_leaves",
       "toplevel t;\nt or a;\na prob = 0.1;\nzeta prob = 0.5;\n"
       "alpha prob = 0.5;\n",
       "5:1: leaf 'alpha' is declared but not reachable from toplevel", 5, 1},
      {"two_undefined_children",
       "toplevel t;\nt or g1 g2;\ng1 or a zz;\ng2 or a aa;\na prob = 0.1;\n",
       "3:1: undefined node 'zz'", 3, 1},
      {"two_bad_leaf_expressions",
       "toplevel t;\nt or zb ab;\nzb prob = 0.1 + ;\nab prob = 1.5;\n",
       "4:11: probability must lie in [0, 1], got 1.5", 4, 11},
      {"duplicate_gate_after_duplicate_leaf",
       "toplevel t;\na prob = 0.1;\na prob = 0.2;\nt or a;\nt or a;\n",
       "3:1: duplicate declaration of leaf 'a'", 3, 1},
  };
  for (const FirstFaultCase& c : cases) {
    SCOPED_TRACE(c.name);
    try {
      (void)parse_fault_tree(c.input);
      ADD_FAILURE() << "expected ParseError";
    } catch (const ParseError& error) {
      EXPECT_STREQ(error.what(), c.what);
      EXPECT_EQ(error.line(), c.line);
      EXPECT_EQ(error.column(), c.column);
    }
  }
}

TEST(ParserTest, AGateShadowsTheLeafOfTheSameName) {
  // A name declared both as a gate and as a leaf is the gate, in either
  // declaration order; the shadowed leaf counts as reached through it.
  const char* gate_first =
      "toplevel t;\nt or x b;\nx or a b;\nx prob = 0.1;\na prob = 0.2;\n"
      "b prob = 0.3;\n";
  const char* leaf_first =
      "toplevel t;\nt or x b;\nx prob = 0.1;\nx or a b;\na prob = 0.2;\n"
      "b prob = 0.3;\n";
  for (const char* text : {gate_first, leaf_first}) {
    SCOPED_TRACE(text);
    const ParsedFaultTree parsed = parse_fault_tree(text);
    EXPECT_EQ(parsed.tree.basic_event_count(), 2u);
    const auto x = parsed.tree.find("x");
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ(parsed.tree.kind(*x), fta::NodeKind::kGate);
    EXPECT_EQ(parsed.probabilities.basic_event_probability,
              (std::vector<double>{0.2, 0.3}));
  }
  // A leaf nothing reaches is still reported, the first by name, whether
  // or not a gate shadows another leaf of the document.
  try {
    (void)parse_fault_tree(
        "toplevel t;\nt or x b;\nx or a b;\nx prob = 0.1;\na prob = 0.2;\n"
        "b prob = 0.3;\nz prob = 0.4;\ny prob = 0.5;\n");
    ADD_FAILURE() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_STREQ(error.what(),
                 "8:1: leaf 'y' is declared but not reachable from toplevel");
  }
  // The shadowing gate itself must be reached for its leaf to count.
  try {
    (void)parse_fault_tree(
        "toplevel t;\nt or a b;\nx or a b;\nx prob = 0.1;\na prob = 0.2;\n"
        "b prob = 0.3;\n");
    ADD_FAILURE() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_STREQ(error.what(),
                 "4:1: leaf 'x' is declared but not reachable from toplevel");
  }
}

TEST(ParserTest, CommentsAndWhitespaceAreIgnored) {
  const ParsedFaultTree parsed = parse_fault_tree(
      "# leading comment\n  toplevel   t ; # trailing\n\tt or a b;# x\n"
      "a prob = 0.1;\nb prob=0.2;\n");
  EXPECT_EQ(parsed.tree.basic_event_count(), 2u);
}

class RoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTrip, WriteThenParsePreservesSemantics) {
  const fta::FaultTree original = testutil::random_tree(
      GetParam(), {.basic_events = 6, .conditions = 2, .gates = 5});
  const fta::QuantificationInput probabilities =
      testutil::random_probabilities(original, GetParam());

  const std::string text = write_fault_tree(original, probabilities);
  const ParsedFaultTree reparsed = parse_fault_tree(text);

  EXPECT_EQ(reparsed.tree.basic_event_count(), original.basic_event_count());
  EXPECT_EQ(reparsed.tree.condition_count(), original.condition_count());
  EXPECT_EQ(reparsed.tree.gate_count(), original.gate_count());

  // Same minimal cut sets under the same event names, and same quantified
  // top probability: node ordinals may permute, so compare by name through
  // the cut-set string rendering and by probability.
  const auto mcs_a = fta::minimal_cut_sets(original);
  const auto mcs_b = fta::minimal_cut_sets(reparsed.tree);
  EXPECT_EQ(mcs_a.size(), mcs_b.size());
  const double p_a = fta::top_event_probability(mcs_a, probabilities);
  const double p_b =
      fta::top_event_probability(mcs_b, reparsed.probabilities);
  EXPECT_NEAR(p_a, p_b, 1e-12) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTrip,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace safeopt::ftio
