#include "safeopt/bdd/bdd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "../../tools/corpus.h"
#include "../testutil/random_tree.h"

namespace safeopt::bdd {
namespace {

TEST(BddManagerTest, TerminalsAndVariables) {
  BddManager manager(3);
  const BddRef x = manager.variable(0);
  EXPECT_NE(x, kFalse);
  EXPECT_NE(x, kTrue);
  // Hash-consing: the same variable is the same node.
  EXPECT_EQ(x, manager.variable(0));
}

TEST(BddManagerTest, BasicBooleanIdentities) {
  BddManager m(2);
  const BddRef x = m.variable(0);
  const BddRef y = m.variable(1);
  EXPECT_EQ(m.apply_and(x, kTrue), x);
  EXPECT_EQ(m.apply_and(x, kFalse), kFalse);
  EXPECT_EQ(m.apply_or(x, kFalse), x);
  EXPECT_EQ(m.apply_or(x, kTrue), kTrue);
  EXPECT_EQ(m.apply_and(x, x), x);
  EXPECT_EQ(m.apply_or(x, x), x);
  EXPECT_EQ(m.apply_xor(x, x), kFalse);
  EXPECT_EQ(m.apply_not(m.apply_not(x)), x);
  // Canonicity: equivalent formulas share one node.
  EXPECT_EQ(m.apply_and(x, y), m.apply_and(y, x));
  EXPECT_EQ(m.apply_or(m.apply_and(x, y), x), x);  // absorption
}

TEST(BddManagerTest, EvaluateFollowsAssignment) {
  BddManager m(2);
  const BddRef f = m.apply_or(m.variable(0),
                              m.apply_not(m.variable(1)));
  EXPECT_TRUE(m.evaluate(f, {true, true}));
  EXPECT_TRUE(m.evaluate(f, {false, false}));
  EXPECT_FALSE(m.evaluate(f, {false, true}));
}

TEST(BddManagerTest, AtLeastMatchesNaiveCount) {
  BddManager m(4);
  std::vector<BddRef> vars;
  for (std::uint32_t i = 0; i < 4; ++i) vars.push_back(m.variable(i));
  for (std::uint32_t k = 1; k <= 4; ++k) {
    const BddRef f = m.at_least(vars, k);
    for (std::uint32_t mask = 0; mask < 16; ++mask) {
      std::vector<bool> assignment(4);
      std::uint32_t count = 0;
      for (std::uint32_t i = 0; i < 4; ++i) {
        assignment[i] = (mask & (1u << i)) != 0;
        count += assignment[i] ? 1 : 0;
      }
      EXPECT_EQ(m.evaluate(f, assignment), count >= k)
          << "k=" << k << " mask=" << mask;
    }
  }
}

TEST(BddManagerTest, ProbabilityShannonExactOnSmallFormula) {
  BddManager m(2);
  const BddRef f = m.apply_or(m.variable(0), m.variable(1));
  // P(x ∪ y) = 0.1 + 0.2 − 0.02.
  EXPECT_NEAR(m.probability(f, {0.1, 0.2}), 0.28, 1e-15);
}

TEST(BddManagerTest, StatisticsTrackCacheAndNodes) {
  BddManager m(8);
  std::vector<BddRef> vars;
  for (std::uint32_t i = 0; i < 8; ++i) vars.push_back(m.variable(i));
  (void)m.at_least(vars, 4);
  EXPECT_GT(m.statistics().node_count, 8u);
  EXPECT_GT(m.statistics().ite_calls, 0u);
}

TEST(CompileTest, XorCompilesAsExactlyOne) {
  fta::FaultTree tree("xor3");
  const auto a = tree.add_basic_event("a");
  const auto b = tree.add_basic_event("b");
  const auto c = tree.add_basic_event("c");
  tree.set_top(tree.add_xor("top", {a, b, c}));
  CompiledFaultTree compiled = compile(tree);
  // P(exactly one of three fair coins) = 3/8.
  fta::QuantificationInput input =
      fta::QuantificationInput::for_tree(tree, 0.5);
  EXPECT_NEAR(compiled.probability(input), 0.375, 1e-15);
}

TEST(CompileTest, InhibitBehavesAsAnd) {
  fta::FaultTree tree("inh");
  const auto pf = tree.add_basic_event("pf");
  const auto env = tree.add_condition("env");
  tree.set_top(tree.add_inhibit("top", pf, env));
  CompiledFaultTree compiled = compile(tree);
  fta::QuantificationInput input = fta::QuantificationInput::for_tree(tree, 0.0);
  input.set(tree, "pf", 0.3);
  input.set(tree, "env", 0.5);
  EXPECT_NEAR(compiled.probability(input), 0.15, 1e-15);
}

TEST(BddOptionsTest, ExplicitGeometryIsHonoredAndPowerOfTwo) {
  BddOptions options;
  options.initial_table_size = 1u << 8;
  options.cache_size = 1000;  // not a power of two: must round up
  BddManager m(4, options);
  const std::size_t slots = m.statistics().cache_slots;
  EXPECT_GE(slots, 1000u);
  EXPECT_EQ(slots & (slots - 1), 0u) << "cache_slots must be a power of two";
}

TEST(BddOptionsTest, StatisticsInvariantsHold) {
  // The documented no-GC contract: node_count counts the 2 terminals plus
  // every hash-consed decision node, and live == peak by construction.
  BddManager m(6);
  std::vector<BddRef> vars;
  for (std::uint32_t i = 0; i < 6; ++i) vars.push_back(m.variable(i));
  (void)m.at_least(vars, 3);
  const BddStatistics& stats = m.statistics();
  EXPECT_GE(stats.node_count, 2u);
  EXPECT_EQ(stats.peak_node_count, stats.node_count);
  EXPECT_EQ(stats.decision_node_count(), stats.node_count - 2);
  EXPECT_GE(stats.ite_calls, stats.cache_hits);
}

TEST(BddOptionsTest, CacheGeometryNeverChangesResults) {
  // The ITE cache only memoizes: a starved 16-slot cache and a huge one
  // must produce the bitwise-identical diagram and probability.
  const fta::FaultTree tree =
      testutil::random_tree(11, {.basic_events = 10, .gates = 9});
  const fta::QuantificationInput input =
      testutil::random_probabilities(tree, 11);

  BddOptions tiny;
  tiny.cache_size = 16;
  BddOptions huge;
  huge.cache_size = 1u << 20;
  CompiledFaultTree a = compile(tree, tiny);
  CompiledFaultTree b = compile(tree, huge);
  EXPECT_EQ(a.probability(input), b.probability(input));
  EXPECT_EQ(a.manager.statistics().decision_node_count(),
            b.manager.statistics().decision_node_count());
  EXPECT_GT(a.manager.statistics().cache_evictions,
            b.manager.statistics().cache_evictions);
}

/// "%a" of a probability, for bit-for-bit comparisons with a readable diff.
std::string bits_of(double value) {
  char bits[64];
  std::snprintf(bits, sizeof bits, "%a", value);
  return bits;
}

TEST(BddOptionsTest, SmallUniqueTableGrowsToTheSameDiagram) {
  // A unique table started at 16 slots doubles many times on the way; it
  // must hand out the same node ids as one sized up front, so the node
  // count, the ITE work and the probability bits are all the same.
  std::vector<std::pair<fta::FaultTree, fta::QuantificationInput>> cases;
  const corpus::CorpusModel corpus_1k =
      corpus::make_corpus(corpus::tier_by_name("1k"));
  cases.emplace_back(corpus_1k.tree, corpus_1k.input);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    fta::FaultTree tree = testutil::random_tree(
        seed, {.basic_events = 24, .conditions = 3, .gates = 30,
               .allow_xor = true});
    fta::QuantificationInput input = testutil::random_probabilities(tree, seed);
    cases.emplace_back(std::move(tree), std::move(input));
  }
  for (const auto& [tree, input] : cases) {
    BddOptions small;
    small.initial_table_size = 16;
    small.cache_size = 1u << 16;
    BddOptions large = small;
    large.initial_table_size = 1u << 20;
    const CompiledFaultTree grown = compile(tree, small);
    const CompiledFaultTree sized = compile(tree, large);
    const BddStatistics& a = grown.manager.statistics();
    const BddStatistics& b = sized.manager.statistics();
    EXPECT_GT(a.node_count, 64u) << tree.name();
    EXPECT_EQ(a.node_count, b.node_count) << tree.name();
    EXPECT_EQ(a.ite_calls, b.ite_calls) << tree.name();
    EXPECT_EQ(a.cache_hits, b.cache_hits) << tree.name();
    EXPECT_EQ(grown.root, sized.root) << tree.name();
    EXPECT_EQ(bits_of(grown.probability(input)),
              bits_of(sized.probability(input)))
        << tree.name();
  }
}

TEST(CompileTest, PlainCountsArePinned) {
  // Decision nodes and ITE calls of the unpreprocessed compile on random
  // trees. The ITE sequence is fixed by the node order, the child order and
  // the fold order, so any change to them moves these counts. Captured with
  // the compile that read fta::FaultTree directly and kept its unique table
  // in a node-based hash map.
  struct Row {
    std::uint64_t seed;
    std::size_t nodes, ite;
  };
  const std::vector<Row> rows = {
      {0, 454, 1516}, {1, 188, 609}, {2, 552, 1522}, {3, 242, 700},
      {4, 520, 1621}, {5, 314, 950}, {6, 302, 956},  {7, 287, 858},
      {8, 516, 1450}, {9, 238, 856},
  };
  ASSERT_EQ(rows.size(), 10u);
  for (const Row& row : rows) {
    const fta::FaultTree tree = testutil::random_tree(
        row.seed, {.basic_events = 24, .conditions = 3, .gates = 30,
                   .allow_xor = true});
    const CompiledFaultTree compiled = compile(tree);
    const BddStatistics& stats = compiled.manager.statistics();
    EXPECT_EQ(stats.decision_node_count(), row.nodes) << "seed " << row.seed;
    EXPECT_EQ(stats.ite_calls, row.ite) << "seed " << row.seed;
  }
}

// --------------------------------------------------------------- properties

class BddVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddVsBruteForce, ProbabilityMatchesEnumeration) {
  const fta::FaultTree tree = testutil::random_tree(
      GetParam(), {.basic_events = 7, .conditions = 1, .gates = 6});
  const fta::QuantificationInput input =
      testutil::random_probabilities(tree, GetParam());
  CompiledFaultTree compiled = compile(tree);
  EXPECT_NEAR(compiled.probability(input),
              fta::exact_probability_bruteforce(tree, input), 1e-12)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddVsBruteForce,
                         ::testing::Range<std::uint64_t>(0, 40));

class BddEvaluationAgreement : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BddEvaluationAgreement, StructureFunctionMatchesTree) {
  const fta::FaultTree tree = testutil::random_tree(
      GetParam(),
      {.basic_events = 5, .conditions = 1, .gates = 5, .allow_xor = true});
  CompiledFaultTree compiled = compile(tree);
  const std::size_t n_events = tree.basic_event_count();
  const std::size_t n_cond = tree.condition_count();
  for (std::uint32_t mask = 0; mask < (1u << (n_events + n_cond)); ++mask) {
    std::vector<bool> basic(n_events);
    std::vector<bool> cond(n_cond);
    std::vector<bool> bdd_assignment(compiled.manager.variable_count());
    for (std::size_t i = 0; i < n_events; ++i) {
      basic[i] = (mask & (1u << i)) != 0;
      bdd_assignment[compiled.var_of_basic_event[i]] = basic[i];
    }
    for (std::size_t i = 0; i < n_cond; ++i) {
      cond[i] = (mask & (1u << (n_events + i))) != 0;
      bdd_assignment[compiled.var_of_condition[i]] = cond[i];
    }
    EXPECT_EQ(compiled.manager.evaluate(compiled.root, bdd_assignment),
              tree.evaluate(basic, cond))
        << "seed " << GetParam() << " mask " << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddEvaluationAgreement,
                         ::testing::Range<std::uint64_t>(50, 80));

class RauzyVsMocus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RauzyVsMocus, MinimalCutSetsAgree) {
  const fta::FaultTree tree = testutil::random_tree(
      GetParam(), {.basic_events = 7, .conditions = 2, .gates = 6});
  const fta::CutSetCollection mocus = fta::minimal_cut_sets(tree);
  const fta::CutSetCollection rauzy = minimal_cut_sets_bdd(tree);
  EXPECT_EQ(mocus.sets(), rauzy.sets()) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RauzyVsMocus,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace safeopt::bdd
