#include "safeopt/ftio/writer.h"

#include <gtest/gtest.h>

#include "safeopt/ftio/parser.h"

namespace safeopt::ftio {
namespace {

ParsedFaultTree sample() {
  return parse_fault_tree(R"(
tree Sample;
toplevel top;
top or g a;
g inhibit b cond;
a prob = 0.1;
b prob = 0.25;
cond condition prob = 0.5;
)");
}

TEST(WriterTest, TextFormatContainsAllStatements) {
  const ParsedFaultTree model = sample();
  const std::string text = write_fault_tree(model.tree, model.probabilities);
  EXPECT_NE(text.find("tree Sample;"), std::string::npos);
  EXPECT_NE(text.find("toplevel top;"), std::string::npos);
  EXPECT_NE(text.find("g inhibit b cond;"), std::string::npos);
  EXPECT_NE(text.find("a prob = 0.1;"), std::string::npos);
  EXPECT_NE(text.find("cond condition prob = 0.5;"), std::string::npos);
}

TEST(WriterTest, VoteGateRoundTripsItsThreshold) {
  const ParsedFaultTree model = parse_fault_tree(R"(
toplevel v;
v 2of3 a b c;
a prob = 0.1;
b prob = 0.1;
c prob = 0.1;
)");
  const std::string text = write_fault_tree(model.tree, model.probabilities);
  EXPECT_NE(text.find("v 2of3 a b c;"), std::string::npos);
  const ParsedFaultTree again = parse_fault_tree(text);
  EXPECT_EQ(again.tree.vote_threshold(*again.tree.find("v")), 2u);
}

TEST(WriterDeathTest, AnonymousNodesCannotBeWritten) {
  // The dialect references nodes by name; an anonymous node has none.
  fta::FaultTree tree("anonymous");
  const fta::NodeId a = tree.add_basic_event("a");
  tree.set_top(tree.add_or({}, {a}));
  const fta::QuantificationInput input =
      fta::QuantificationInput::for_tree(tree, 0.5);
  EXPECT_DEATH((void)write_fault_tree(tree, input), "precondition");
}

TEST(DotExportTest, UsesPaperSymbolShapes) {
  const ParsedFaultTree model = sample();
  const std::string dot = to_dot(model.tree, &model.probabilities);
  EXPECT_NE(dot.find("digraph \"Sample\""), std::string::npos);
  // Paper Fig. 1 conventions: basic events are circles, OR gates
  // triangles, INHIBIT gates hexagons, conditions ellipses.
  EXPECT_NE(dot.find("\"a\" [shape=circle"), std::string::npos);
  EXPECT_NE(dot.find("\"top\" [shape=invtriangle"), std::string::npos);
  EXPECT_NE(dot.find("\"g\" [shape=hexagon"), std::string::npos);
  EXPECT_NE(dot.find("\"cond\" [shape=ellipse"), std::string::npos);
  // Probabilities make it into leaf labels; condition edges are dashed.
  EXPECT_NE(dot.find("p=0.25"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(DotExportTest, EdgesFollowChildren) {
  const ParsedFaultTree model = sample();
  const std::string dot = to_dot(model.tree);
  EXPECT_NE(dot.find("\"top\" -> \"g\""), std::string::npos);
  EXPECT_NE(dot.find("\"top\" -> \"a\""), std::string::npos);
  EXPECT_NE(dot.find("\"g\" -> \"b\""), std::string::npos);
  EXPECT_NE(dot.find("\"g\" -> \"cond\""), std::string::npos);
}

TEST(JsonExportTest, ContainsNodesAndProbabilities) {
  const ParsedFaultTree model = sample();
  const std::string json = to_json(model.tree, model.probabilities);
  EXPECT_NE(json.find("\"name\": \"Sample\""), std::string::npos);
  EXPECT_NE(json.find("\"toplevel\": \"top\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"basic-event\", \"prob\": 0.25"),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"condition\", \"prob\": 0.5"),
            std::string::npos);
  EXPECT_NE(json.find("\"gate\": \"INHIBIT\""), std::string::npos);
  EXPECT_NE(json.find("\"children\": [\"b\", \"cond\"]"), std::string::npos);
}

TEST(JsonExportTest, EscapesSpecialCharacters) {
  fta::FaultTree tree("quote\"name");
  const auto a = tree.add_basic_event("a");
  tree.set_top(tree.add_or("top", {a}));
  const auto input = fta::QuantificationInput::for_tree(tree, 0.1);
  const std::string json = to_json(tree, input);
  EXPECT_NE(json.find("quote\\\"name"), std::string::npos);
}

}  // namespace
}  // namespace safeopt::ftio
