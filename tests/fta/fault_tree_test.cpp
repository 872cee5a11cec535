#include "safeopt/fta/fault_tree.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "../testutil/random_tree.h"
#include "safeopt/support/strings.h"

namespace safeopt::fta {
namespace {

/// The paper's Fig. 2 fragment: Collision <- OR(driver ignores signal,
/// Signal not on <- OR(signal out of order, signal not activated)).
FaultTree fig2_tree() {
  FaultTree tree("Collision");
  const NodeId ignores = tree.add_basic_event("OHVIgnoresSignal");
  const NodeId out_of_order = tree.add_basic_event("SignalOutOfOrder");
  const NodeId not_activated = tree.add_basic_event("SignalNotActivated");
  const NodeId not_on =
      tree.add_or("SignalNotOn", {out_of_order, not_activated});
  const NodeId top = tree.add_or("Collision_top", {ignores, not_on});
  tree.set_top(top);
  return tree;
}

TEST(FaultTreeTest, BuildsFig2Structure) {
  const FaultTree tree = fig2_tree();
  EXPECT_EQ(tree.name(), "Collision");
  EXPECT_EQ(tree.basic_event_count(), 3u);
  EXPECT_EQ(tree.condition_count(), 0u);
  EXPECT_EQ(tree.gate_count(), 2u);
  EXPECT_EQ(tree.node_count(), 5u);
  EXPECT_TRUE(tree.has_top());
  EXPECT_EQ(tree.node_name(tree.top()), "Collision_top");
  EXPECT_TRUE(tree.validate().empty());
}

TEST(FaultTreeTest, FindByName) {
  const FaultTree tree = fig2_tree();
  ASSERT_TRUE(tree.find("SignalNotOn").has_value());
  EXPECT_EQ(tree.kind(*tree.find("SignalNotOn")), NodeKind::kGate);
  EXPECT_EQ(tree.gate_type(*tree.find("SignalNotOn")), GateType::kOr);
  EXPECT_FALSE(tree.find("NoSuchNode").has_value());
}

TEST(FaultTreeTest, OrdinalsFollowCreationOrder) {
  const FaultTree tree = fig2_tree();
  EXPECT_EQ(tree.basic_event_ordinal(*tree.find("OHVIgnoresSignal")), 0u);
  EXPECT_EQ(tree.basic_event_ordinal(*tree.find("SignalOutOfOrder")), 1u);
  EXPECT_EQ(tree.basic_event_ordinal(*tree.find("SignalNotActivated")), 2u);
}

/// basic_events()[basic_event_ordinal(id)] == id for every leaf, and the
/// same for conditions: the stored ordinal round-trips through the lists.
void expect_ordinals_round_trip(const FaultTree& tree) {
  for (BasicEventOrdinal i = 0; i < tree.basic_event_count(); ++i) {
    EXPECT_EQ(tree.basic_event_ordinal(tree.basic_events()[i]), i);
  }
  for (ConditionOrdinal i = 0; i < tree.condition_count(); ++i) {
    EXPECT_EQ(tree.condition_ordinal(tree.conditions()[i]), i);
  }
}

TEST(FaultTreeTest, OrdinalsRoundTripOnRandomTreesAndTheirCopies) {
  // Random trees interleave condition leaves with gates, so leaf ordinals
  // and NodeIds diverge. Copy-constructed and copy-assigned trees must keep
  // the same mapping.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    testutil::RandomTreeOptions options;
    options.basic_events = 3 + seed % 9;
    options.conditions = seed % 3;
    options.gates = 2 + seed % 7;
    const FaultTree tree = testutil::random_tree(seed, options);
    expect_ordinals_round_trip(tree);

    const FaultTree copy(tree);
    expect_ordinals_round_trip(copy);
    FaultTree assigned("other");
    assigned.add_basic_event("x");
    assigned = copy;
    expect_ordinals_round_trip(assigned);
    for (const NodeId id : tree.basic_events()) {
      EXPECT_EQ(assigned.basic_event_ordinal(id), tree.basic_event_ordinal(id));
    }
  }
}

TEST(FaultTreeTest, OrdinalsCountLeavesOfEachKindSeparately) {
  FaultTree tree("mixed");
  const NodeId e0 = tree.add_basic_event("e0");
  const NodeId c0 = tree.add_condition("c0");
  const NodeId e1 = tree.add_basic_event("e1");
  const NodeId gate = tree.add_inhibit("g", e1, c0);
  const NodeId c1 = tree.add_condition("c1");
  tree.set_top(tree.add_or("top", {e0, gate, tree.add_inhibit("h", e0, c1)}));
  EXPECT_EQ(tree.basic_event_ordinal(e0), 0u);
  EXPECT_EQ(tree.basic_event_ordinal(e1), 1u);
  EXPECT_EQ(tree.condition_ordinal(c0), 0u);
  EXPECT_EQ(tree.condition_ordinal(c1), 1u);
  EXPECT_TRUE(tree.evaluate({false, true}, {true, false}));
  EXPECT_FALSE(tree.evaluate({false, true}, {false, true}));
  EXPECT_TRUE(tree.evaluate({true, false}, {false, true}));
}

TEST(FaultTreeEvaluateTest, OrGate) {
  const FaultTree tree = fig2_tree();
  EXPECT_FALSE(tree.evaluate({false, false, false}));
  EXPECT_TRUE(tree.evaluate({true, false, false}));
  EXPECT_TRUE(tree.evaluate({false, true, false}));
  EXPECT_TRUE(tree.evaluate({false, false, true}));
  EXPECT_TRUE(tree.evaluate({true, true, true}));
}

TEST(FaultTreeEvaluateTest, AndGate) {
  FaultTree tree("and");
  const NodeId a = tree.add_basic_event("a");
  const NodeId b = tree.add_basic_event("b");
  tree.set_top(tree.add_and("top", {a, b}));
  EXPECT_FALSE(tree.evaluate({false, false}));
  EXPECT_FALSE(tree.evaluate({true, false}));
  EXPECT_FALSE(tree.evaluate({false, true}));
  EXPECT_TRUE(tree.evaluate({true, true}));
}

TEST(FaultTreeEvaluateTest, KofNGate) {
  FaultTree tree("vote");
  const NodeId a = tree.add_basic_event("a");
  const NodeId b = tree.add_basic_event("b");
  const NodeId c = tree.add_basic_event("c");
  tree.set_top(tree.add_k_of_n("top", 2, {a, b, c}));
  EXPECT_FALSE(tree.evaluate({true, false, false}));
  EXPECT_TRUE(tree.evaluate({true, true, false}));
  EXPECT_TRUE(tree.evaluate({true, false, true}));
  EXPECT_TRUE(tree.evaluate({true, true, true}));
  EXPECT_FALSE(tree.evaluate({false, false, false}));
}

TEST(FaultTreeEvaluateTest, XorGateIsExactlyOne) {
  FaultTree tree("xor");
  const NodeId a = tree.add_basic_event("a");
  const NodeId b = tree.add_basic_event("b");
  const NodeId c = tree.add_basic_event("c");
  tree.set_top(tree.add_xor("top", {a, b, c}));
  EXPECT_TRUE(tree.evaluate({true, false, false}));
  EXPECT_FALSE(tree.evaluate({true, true, false}));
  EXPECT_FALSE(tree.evaluate({true, true, true}));
  EXPECT_FALSE(tree.evaluate({false, false, false}));
}

TEST(FaultTreeEvaluateTest, InhibitGateRequiresCondition) {
  FaultTree tree("inhibit");
  const NodeId cause = tree.add_basic_event("cooling_failure");
  const NodeId condition = tree.add_condition("system_running");
  tree.set_top(tree.add_inhibit("top", cause, condition));
  EXPECT_FALSE(tree.evaluate({false}, {false}));
  EXPECT_FALSE(tree.evaluate({true}, {false}));
  EXPECT_FALSE(tree.evaluate({false}, {true}));
  EXPECT_TRUE(tree.evaluate({true}, {true}));
}

TEST(FaultTreeEvaluateTest, SharedSubtreeEvaluatesOnce) {
  // Diamond: top = AND(or1, or2), both ORs share event s.
  FaultTree tree("diamond");
  const NodeId s = tree.add_basic_event("shared");
  const NodeId a = tree.add_basic_event("a");
  const NodeId b = tree.add_basic_event("b");
  const NodeId or1 = tree.add_or("or1", {s, a});
  const NodeId or2 = tree.add_or("or2", {s, b});
  tree.set_top(tree.add_and("top", {or1, or2}));
  EXPECT_TRUE(tree.evaluate({true, false, false}));   // shared alone suffices
  EXPECT_FALSE(tree.evaluate({false, true, false}));  // a alone does not
  EXPECT_TRUE(tree.evaluate({false, true, true}));
}

TEST(FaultTreeValidateTest, ReportsMissingTop) {
  FaultTree tree("no-top");
  tree.add_basic_event("a");
  const auto problems = tree.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("no top event"), std::string::npos);
}

TEST(FaultTreeValidateTest, ReportsUnreachableNodes) {
  FaultTree tree("unreachable");
  const NodeId a = tree.add_basic_event("a");
  tree.add_basic_event("orphan");
  tree.set_top(a);
  const auto problems = tree.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("orphan"), std::string::npos);
}

TEST(FaultTreeValidateTest, ReportsConditionOutsideInhibit) {
  FaultTree tree("bad-cond");
  const NodeId a = tree.add_basic_event("a");
  const NodeId c = tree.add_condition("c");
  tree.set_top(tree.add_or("top", {a, c}));
  const auto problems = tree.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("outside an INHIBIT"), std::string::npos);
}

TEST(FaultTreeValidateTest, CleanTreeHasNoProblems) {
  FaultTree tree("clean");
  const NodeId a = tree.add_basic_event("a");
  const NodeId c = tree.add_condition("c");
  tree.set_top(tree.add_inhibit("top", a, c));
  EXPECT_TRUE(tree.validate().empty());
}

TEST(FaultTreeValidateTest, NamesAnonymousNodesByTheirId) {
  FaultTree tree("anonymous");
  const NodeId a = tree.add_basic_event({});
  const NodeId orphan = tree.add_basic_event({});
  const NodeId c = tree.add_condition({});
  const NodeId gate = tree.add_or({}, {a, c});
  tree.set_top(gate);
  const auto problems = tree.validate();
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_EQ(problems[0], concat("node #", std::to_string(orphan),
                                " is not reachable from the top event"));
  EXPECT_EQ(problems[1],
            concat("condition #", std::to_string(c),
                   " used outside an INHIBIT gate (in gate #",
                   std::to_string(gate), ")"));
}

TEST(FaultTreeValidateTest, NamedNodesKeepTheirQuotedNames) {
  FaultTree tree("named");
  const NodeId a = tree.add_basic_event("a");
  const NodeId c = tree.add_condition("c");
  tree.add_basic_event("orphan");
  tree.set_top(tree.add_or("top", {a, c}));
  const auto problems = tree.validate();
  ASSERT_EQ(problems.size(), 2u);
  EXPECT_EQ(problems[0], "node 'orphan' is not reachable from the top event");
  EXPECT_EQ(problems[1],
            "condition 'c' used outside an INHIBIT gate (in gate 'top')");
}

TEST(FaultTreeAnonymousTest, AnonymousNodesAreNeverFound) {
  FaultTree tree("mixed");
  const NodeId a = tree.add_basic_event({});
  const NodeId b = tree.add_basic_event("b");
  const NodeId c = tree.add_condition({});
  const NodeId gate = tree.add_inhibit({}, tree.add_or({}, {a, b}), c);
  tree.set_top(gate);
  EXPECT_TRUE(tree.node_name(a).empty());
  EXPECT_TRUE(tree.node_name(gate).empty());
  EXPECT_FALSE(tree.find("").has_value());
  EXPECT_EQ(tree.find("b"), b);
  EXPECT_EQ(tree.basic_event_ordinal(a), 0u);
  EXPECT_EQ(tree.basic_event_ordinal(b), 1u);
  EXPECT_EQ(tree.condition_ordinal(c), 0u);
  EXPECT_TRUE(tree.validate().empty());
  // Anonymous nodes take part in the semantics like named ones.
  EXPECT_TRUE(tree.evaluate({true, false}, {true}));
  EXPECT_FALSE(tree.evaluate({true, false}, {false}));
}

TEST(GateTypeTest, ToString) {
  EXPECT_EQ(to_string(GateType::kAnd), "AND");
  EXPECT_EQ(to_string(GateType::kOr), "OR");
  EXPECT_EQ(to_string(GateType::kKofN), "KOFN");
  EXPECT_EQ(to_string(GateType::kXor), "XOR");
  EXPECT_EQ(to_string(GateType::kInhibit), "INHIBIT");
}

TEST(FaultTreeDeathTest, OrdinalOfTheWrongLeafKindIsRejected) {
  FaultTree tree("kinds");
  const NodeId event = tree.add_basic_event("e");
  const NodeId condition = tree.add_condition("c");
  EXPECT_DEATH((void)tree.condition_ordinal(event), "precondition");
  EXPECT_DEATH((void)tree.basic_event_ordinal(condition), "precondition");
}

TEST(FaultTreeDeathTest, DuplicateNamesAreRejected) {
  FaultTree tree("dup");
  tree.add_basic_event("a");
  EXPECT_DEATH(tree.add_basic_event("a"), "precondition");
}

TEST(FaultTreeDeathTest, DuplicateNamesAreRejectedBesideAnonymousNodes) {
  FaultTree tree("dup-anonymous");
  tree.add_basic_event({});
  tree.add_basic_event({});
  tree.add_or("g", {0, 1});
  EXPECT_DEATH(tree.add_basic_event("g"), "precondition");
}

TEST(FaultTreeDeathTest, TopMustNotBeCondition) {
  FaultTree tree("cond-top");
  const NodeId c = tree.add_condition("c");
  EXPECT_DEATH(tree.set_top(c), "precondition");
}

TEST(FaultTreeDeathTest, InhibitConditionMustBeConditionLeaf) {
  FaultTree tree("bad-inhibit");
  const NodeId a = tree.add_basic_event("a");
  const NodeId b = tree.add_basic_event("b");
  EXPECT_DEATH(tree.add_inhibit("g", a, b), "precondition");
}

}  // namespace
}  // namespace safeopt::fta
