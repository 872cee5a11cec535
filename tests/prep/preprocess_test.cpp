// Property tests for the preprocessing pipeline (src/prep): the structure
// passes must preserve the top-event function *bitwise* on the BDD path
// (they keep the DFS leaf order, and the ROBDD is canonical), and the
// modularized cut-set path must reproduce MOCUS exactly. Random trees give
// breadth (25 seeds, all gate kinds), the shipped example models give
// realistic shapes, and the scaling corpus's 1k tier gives a tree large
// enough for modularization to actually bite.
#include "safeopt/prep/preprocess.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "../../tools/corpus.h"
#include "../testutil/random_tree.h"
#include "safeopt/bdd/bdd.h"
#include "safeopt/core/quantification_engine.h"
#include "safeopt/core/study.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/ftio/writer.h"
#include "safeopt/support/strings.h"

namespace safeopt::prep {
namespace {

constexpr std::uint64_t kSeeds = 25;

testutil::RandomTreeOptions big_tree_options() {
  testutil::RandomTreeOptions options;
  options.basic_events = 14;
  options.conditions = 2;
  options.gates = 12;
  return options;
}

std::vector<fta::CutSet> canonical_mcs(fta::CutSetCollection collection) {
  collection.minimize();  // idempotent: sorts canonically
  return collection.sets();
}

/// a ∪ b with sorted duplicate-free invariant maintained.
fta::CutSet merge_cut_sets(const fta::CutSet& a, const fta::CutSet& b) {
  fta::CutSet merged;
  std::set_union(a.events.begin(), a.events.end(), b.events.begin(),
                 b.events.end(), std::back_inserter(merged.events));
  std::set_union(a.conditions.begin(), a.conditions.end(),
                 b.conditions.begin(), b.conditions.end(),
                 std::back_inserter(merged.conditions));
  return merged;
}

/// The anonymous FaultTree a module graph describes, node for node (ids,
/// leaf ordinals and child order carry over), so MOCUS can run per module.
fta::FaultTree tree_of(const fta::GateGraph& graph) {
  fta::FaultTree tree{std::string()};
  for (std::uint32_t id = 0; id < graph.nodes.size(); ++id) {
    const fta::GateGraph::Node& node = graph.nodes[id];
    const std::span<const std::uint32_t> span = graph.children_of(id);
    std::vector<fta::NodeId> children(span.begin(), span.end());
    switch (node.kind) {
      case fta::NodeKind::kBasicEvent:
        (void)tree.add_basic_event({});
        break;
      case fta::NodeKind::kCondition:
        (void)tree.add_condition({});
        break;
      case fta::NodeKind::kGate:
        switch (node.gate) {
          case fta::GateType::kAnd:
            (void)tree.add_and({}, std::move(children));
            break;
          case fta::GateType::kOr:
            (void)tree.add_or({}, std::move(children));
            break;
          case fta::GateType::kKofN:
            (void)tree.add_k_of_n({}, node.k, std::move(children));
            break;
          case fta::GateType::kXor:
            (void)tree.add_xor({}, std::move(children));
            break;
          case fta::GateType::kInhibit:
            (void)tree.add_inhibit({}, children[0], children[1]);
            break;
        }
        break;
    }
  }
  tree.set_top(graph.top);
  return tree;
}

/// The oracle that modularization keeps the cut sets: minimal cut sets in
/// the *original* tree's ordinals from per-subtree MOCUS, then bottom-up
/// substitution of every module pseudo-leaf by its module's cut sets
/// (cartesian composition), then minimize(). Must equal MOCUS on the
/// unpreprocessed tree for every coherent tree.
fta::CutSetCollection modular_cut_sets(const PreprocessedTree& preprocessed) {
  // composed[i] holds subtree i's cut sets already expressed in the
  // original tree's ordinals, so substituting a module pseudo-leaf is a
  // cartesian product with an earlier entry.
  std::vector<fta::CutSetCollection> composed;
  composed.reserve(preprocessed.subtrees.size());
  for (const Subtree& subtree : preprocessed.subtrees) {
    std::vector<fta::CutSet> expanded;
    for (const fta::CutSet& cut : fta::minimal_cut_sets(tree_of(subtree.graph))) {
      // Split the local cut set into its direct (original-ordinal) part and
      // the modules to substitute.
      fta::CutSet direct;
      std::vector<std::uint32_t> modules;
      for (const fta::BasicEventOrdinal event : cut.events) {
        const LeafOrigin& origin = subtree.basic_origin[event];
        if (origin.kind == LeafOrigin::Kind::kModule) {
          modules.push_back(origin.index);
        } else {
          direct.events.push_back(origin.index);
        }
      }
      for (const fta::ConditionOrdinal condition : cut.conditions) {
        direct.conditions.push_back(subtree.condition_origin[condition]);
      }
      std::sort(direct.events.begin(), direct.events.end());
      std::sort(direct.conditions.begin(), direct.conditions.end());
      std::vector<fta::CutSet> partial{std::move(direct)};
      for (const std::uint32_t module : modules) {
        std::vector<fta::CutSet> next;
        for (const fta::CutSet& p : partial) {
          for (const fta::CutSet& m : composed[module]) {
            next.push_back(merge_cut_sets(p, m));
          }
        }
        partial = std::move(next);
      }
      expanded.insert(expanded.end(), partial.begin(), partial.end());
    }
    fta::CutSetCollection collection(std::move(expanded));
    collection.minimize();
    composed.push_back(std::move(collection));
  }
  return std::move(composed.back());
}

// --- The headline property: structure passes are bitwise lossless. -------

TEST(PreprocessPropertyTest, PassesPreserveProbabilityBitwise) {
  // With modularization off, preprocessing rewrites the tree but keeps the
  // DFS first-visit leaf order. Canonicity then forces the *same* decision
  // diagram, so the Shannon probability is bitwise equal — EXPECT_EQ on
  // doubles, not EXPECT_NEAR.
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const fta::FaultTree tree = testutil::random_tree(seed);
    const fta::QuantificationInput input =
        testutil::random_probabilities(tree, seed);

    bdd::CompiledFaultTree plain = bdd::compile(tree);
    const double expected = plain.probability(input);

    PreprocessOptions options;
    options.modularize = false;
    const PreprocessedTree preprocessed = preprocess(tree, options);
    ASSERT_EQ(preprocessed.subtrees.size(), 1u) << "seed " << seed;
    const ModularBddResult result = quantify_bdd(preprocessed, input);
    EXPECT_EQ(result.probability, expected) << "seed " << seed;
  }
}

TEST(PreprocessPropertyTest, ModularizedProbabilityAgreesToRounding) {
  // Modularization is exact under leaf independence but re-associates the
  // floating-point product, so the contract weakens from bitwise to
  // last-ulp agreement.
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const fta::FaultTree tree = testutil::random_tree(seed, big_tree_options());
    const fta::QuantificationInput input =
        testutil::random_probabilities(tree, seed);

    bdd::CompiledFaultTree plain = bdd::compile(tree);
    const double expected = plain.probability(input);

    PreprocessOptions options;
    options.module_min_leaves = 2;  // small trees: extract aggressively
    const ModularBddResult result =
        quantify_bdd(preprocess(tree, options), input);
    EXPECT_NEAR(result.probability, expected, 1e-12 * std::abs(expected))
        << "seed " << seed;
  }
}

TEST(PreprocessPropertyTest, ModularizedCutSetsEqualMocus) {
  // The composed modular MCS must be *equal* to MOCUS on the original tree
  // — same sets, same canonical order — for every coherent random tree.
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const fta::FaultTree tree = testutil::random_tree(seed, big_tree_options());

    PreprocessOptions options;
    options.module_min_leaves = 2;
    const std::vector<fta::CutSet> modular =
        canonical_mcs(modular_cut_sets(preprocess(tree, options)));
    const std::vector<fta::CutSet> mocus =
        canonical_mcs(fta::minimal_cut_sets(tree));
    EXPECT_EQ(modular, mocus) << "seed " << seed;
  }
}

TEST(PreprocessPropertyTest, ExampleModelsCutSetsEqualMocus) {
  const std::string base = std::string(SAFEOPT_SOURCE_DIR) + "/examples/models/";
  for (const char* name : {"cooling_system.ft", "elbtunnel.ft",
                           "pressure_vessel.ft", "railroad_crossing.ft"}) {
    const ftio::StudyDocument document = ftio::load_study(base + name);
    for (const ftio::TreeModel& model : document.trees) {
      PreprocessOptions options;
      options.module_min_leaves = 2;
      const std::vector<fta::CutSet> modular =
          canonical_mcs(modular_cut_sets(preprocess(model.tree, options)));
      const std::vector<fta::CutSet> mocus =
          canonical_mcs(fta::minimal_cut_sets(model.tree));
      EXPECT_EQ(modular, mocus)
          << name << " tree " << model.tree.name();
    }
  }
}

TEST(PreprocessPropertyTest, CorpusTierQuantifiesLikePlainBdd) {
  // The smallest committed corpus tier end to end: 1008 events, a 25-of-50
  // top vote, INHIBIT clusters — the shape the pipeline was built for.
  const corpus::CorpusModel model =
      corpus::make_corpus(corpus::tier_by_name("1k"));

  bdd::BddOptions geometry;
  geometry.initial_table_size = std::size_t{1} << 16;
  geometry.cache_size = std::size_t{1} << 18;
  bdd::CompiledFaultTree plain = bdd::compile(model.tree, geometry);
  const double expected = plain.probability(model.input);

  const PreprocessedTree preprocessed = preprocess(model.tree, {});
  const ModularBddResult result =
      quantify_bdd(preprocessed, model.input, geometry);
  EXPECT_GT(preprocessed.statistics.modules, 50u);
  EXPECT_NEAR(result.probability, expected, 1e-9 * expected);
  // The ablation the bench gates: an order of magnitude fewer nodes.
  EXPECT_LT(result.decision_nodes * 10,
            plain.manager.statistics().decision_node_count());
}

TEST(PreprocessPropertyTest, CorpusTierDocumentProbabilityBitsArePinned) {
  // The exact-quantify front door on the 1k and 10k tiers: the tree goes
  // through its document text (write, parse_study, `engine bdd`), so
  // parser, name index, passes, module order and per-module BDD geometry
  // all sit under one pin. The figures are bit patterns, not
  // tolerances: any change to the variable order, the module order or the
  // summation order moves them.
  struct Row {
    const char* tier;
    const char* probability;  // "%a"
    std::size_t modules;
    std::size_t decision_nodes;
    std::size_t gates_after;
    std::size_t events_after;
  };
  for (const Row& row :
       {Row{"1k", "0x1.0cdfa47f33e7cp-16", 108, 4013, 1645, 50},
        Row{"10k", "0x1.8d0d3716bb54ep-25", 510, 32590, 8246, 100}}) {
    const corpus::CorpusModel model =
        corpus::make_corpus(corpus::tier_by_name(row.tier));
    const ftio::StudyDocument document = ftio::parse_study(
        ftio::write_fault_tree(model.tree, model.input) + "engine bdd;\n");
    ASSERT_EQ(document.trees.size(), 1u) << row.tier;
    const ftio::TreeModel& tree_model = document.trees.front();
    fta::QuantificationInput input =
        fta::QuantificationInput::for_tree(tree_model.tree, 0.0);
    for (const ftio::LeafProbability& leaf : tree_model.leaves) {
      input.set(tree_model.tree, leaf.name, leaf.probability.evaluate({}));
    }
    const auto [engine_name, config] =
        core::document_engine_selection(document);
    ASSERT_EQ(engine_name, "bdd") << row.tier;
    const core::QuantificationResult result =
        core::EngineRegistry::create(engine_name, tree_model.tree, config)
            ->quantify(input);
    ASSERT_TRUE(result.preprocess.has_value()) << row.tier;

    const PreprocessedTree preprocessed = preprocess(tree_model.tree);
    const CompiledPreprocessedTree compiled(preprocessed,
                                            config.bdd_options());

    char bits[64];
    std::snprintf(bits, sizeof bits, "%a", result.probability);
    EXPECT_STREQ(bits, row.probability) << row.tier;
    EXPECT_EQ(compiled.probability(input), result.probability) << row.tier;
    EXPECT_EQ(result.preprocess->modules, row.modules) << row.tier;
    EXPECT_EQ(compiled.compile_statistics().decision_nodes,
              row.decision_nodes)
        << row.tier;
    EXPECT_EQ(result.preprocess->gates_after, row.gates_after) << row.tier;
    EXPECT_EQ(result.preprocess->events_after, row.events_after) << row.tier;
  }
}

// --- Per-pass unit tests on hand-built trees. ----------------------------

TEST(PreprocessPassTest, NormalizeExpandsEveryKofN) {
  fta::FaultTree tree("kofn");
  std::vector<fta::NodeId> leaves;
  for (int i = 0; i < 6; ++i) {
    leaves.push_back(tree.add_basic_event(concat("e", std::to_string(i))));
  }
  tree.set_top(tree.add_k_of_n("top", 3, std::move(leaves)));

  PreprocessOptions options;
  options.modularize = false;
  const PreprocessedTree preprocessed = preprocess(tree, options);
  const fta::GateGraph& out = preprocessed.top().graph;
  for (std::uint32_t id = 0; id < out.nodes.size(); ++id) {
    if (out.nodes[id].kind == fta::NodeKind::kGate) {
      EXPECT_NE(out.nodes[id].gate, fta::GateType::kKofN)
          << "k-of-n gate survived normalization: node " << id;
    }
  }
}

TEST(PreprocessPassTest, PropagateDegeneratesTrivialVotes) {
  // 1-of-n is an OR and n-of-n is an AND; propagate rewrites both before
  // normalization ever sees them (its rewrite count proves it ran).
  fta::FaultTree tree("votes");
  const auto e0 = tree.add_basic_event("e0");
  const auto e1 = tree.add_basic_event("e1");
  const auto e2 = tree.add_basic_event("e2");
  const auto one = tree.add_k_of_n("one", 1, {e0, e1});
  const auto all = tree.add_k_of_n("all", 2, {e1, e2});
  tree.set_top(tree.add_and("top", {one, all}));

  PreprocessOptions options;
  options.normalize = false;
  options.modularize = false;
  const PreprocessedTree preprocessed = preprocess(tree, options);
  bool saw_or = false;
  bool saw_and = false;
  for (const fta::GateGraph::Node& node : preprocessed.top().graph.nodes) {
    if (node.kind != fta::NodeKind::kGate) continue;
    EXPECT_NE(node.gate, fta::GateType::kKofN);
    saw_or = saw_or || node.gate == fta::GateType::kOr;
    saw_and = saw_and || node.gate == fta::GateType::kAnd;
  }
  EXPECT_TRUE(saw_or);
  EXPECT_TRUE(saw_and);
}

TEST(PreprocessPassTest, FlattenSplicesSameOpChains) {
  // OR(OR(OR(e0,e1),e2),e3) with single-parent inner gates collapses to one
  // OR over four leaves.
  fta::FaultTree tree("chain");
  const auto e0 = tree.add_basic_event("e0");
  const auto e1 = tree.add_basic_event("e1");
  const auto e2 = tree.add_basic_event("e2");
  const auto e3 = tree.add_basic_event("e3");
  const auto inner = tree.add_or("inner", {e0, e1});
  const auto mid = tree.add_or("mid", {inner, e2});
  tree.set_top(tree.add_or("top", {mid, e3}));

  PreprocessOptions options;
  options.modularize = false;
  const PreprocessedTree preprocessed = preprocess(tree, options);
  const fta::GateGraph& out = preprocessed.top().graph;
  ASSERT_EQ(out.gate_count(), 1u);
  EXPECT_EQ(out.nodes[out.top].gate, fta::GateType::kOr);
  EXPECT_EQ(out.children_of(out.top).size(), 4u);
}

TEST(PreprocessPassTest, MergeHashConsesIdenticalGates) {
  // Two AND gates over the same children merge into one; the surviving
  // top-level OR then deduplicates to a single child and aliases away.
  fta::FaultTree tree("twins");
  const auto e0 = tree.add_basic_event("e0");
  const auto e1 = tree.add_basic_event("e1");
  const auto left = tree.add_and("left", {e0, e1});
  const auto right = tree.add_and("right", {e0, e1});
  tree.set_top(tree.add_or("top", {left, right}));

  PreprocessOptions options;
  options.modularize = false;
  const PreprocessedTree preprocessed = preprocess(tree, options);
  EXPECT_EQ(preprocessed.top().graph.gate_count(), 1u);
  bool merged = false;
  for (const PassStats& pass : preprocessed.statistics.passes) {
    merged = merged || (pass.name == "merge" && pass.rewrites > 0);
  }
  EXPECT_TRUE(merged);
}

TEST(PreprocessPassTest, PassSequenceEndsWithCleanupPropagate) {
  const fta::FaultTree tree = testutil::random_tree(7);
  const PreprocessedTree preprocessed = preprocess(tree, {});
  std::vector<std::string> names;
  for (const PassStats& pass : preprocessed.statistics.passes) {
    names.push_back(pass.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "propagate", "normalize", "flatten", "merge",
                       "propagate"}));
}

TEST(PreprocessPassTest, CorpusTierPassNodeCountsArePinned) {
  // The rewrites of every pass and the sizes the pipeline ends with on the
  // corpus tiers, pinned so that a pass change that moves one says so.
  struct Row {
    const char* name;
    std::size_t rewrites;
  };
  struct Expected {
    const char* tier;
    std::vector<Row> passes;
    std::size_t gates_after, events_after, modules;
  };
  const std::vector<Expected> tiers = {
      {"1k",
       {{"propagate", 16}, {"normalize", 15}, {"flatten", 205},
        {"merge", 0}, {"propagate", 27}},
       1645, 50, 108},
      {"10k",
       {{"propagate", 26}, {"normalize", 20}, {"flatten", 1971},
        {"merge", 0}, {"propagate", 160}},
       8246, 100, 510},
  };
  for (const Expected& expected : tiers) {
    const corpus::CorpusModel model =
        corpus::make_corpus(corpus::tier_by_name(expected.tier));
    const PreprocessedTree preprocessed = preprocess(model.tree, {});
    const PreprocessStatistics& statistics = preprocessed.statistics;
    const std::vector<PassStats>& passes = statistics.passes;
    ASSERT_EQ(passes.size(), expected.passes.size()) << expected.tier;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      EXPECT_EQ(passes[i].name, expected.passes[i].name)
          << expected.tier << " pass " << i;
      EXPECT_EQ(passes[i].rewrites, expected.passes[i].rewrites)
          << expected.tier << " pass " << i;
    }
    EXPECT_EQ(statistics.gates_after, expected.gates_after) << expected.tier;
    EXPECT_EQ(statistics.events_after, expected.events_after)
        << expected.tier;
    EXPECT_EQ(statistics.modules, expected.modules) << expected.tier;
  }
}

TEST(PreprocessPassTest, DisabledPassesAreLeftOutOfThePassList) {
  // Switched-off passes leave no row; the enabled ones keep their order.
  const fta::FaultTree tree = testutil::random_tree(11);
  PreprocessOptions options;
  options.normalize = false;
  options.merge = false;
  const PreprocessedTree preprocessed = preprocess(tree, options);
  const std::vector<PassStats>& passes = preprocessed.statistics.passes;
  ASSERT_EQ(passes.size(), 3u);
  EXPECT_EQ(passes[0].name, "propagate");
  EXPECT_EQ(passes[1].name, "flatten");
  EXPECT_EQ(passes[2].name, "propagate");
}

TEST(PreprocessPassTest, ModuleBecomesAnOriginTaggedPseudoLeaf) {
  // An AND over four private leaves under an OR top is a textbook module:
  // it must be extracted into its own subtree, and its place in the parent
  // must be a basic event whose LeafOrigin points at that subtree.
  fta::FaultTree tree("mod");
  std::vector<fta::NodeId> module_leaves;
  for (int i = 0; i < 4; ++i) {
    module_leaves.push_back(tree.add_basic_event(concat("m", std::to_string(i))));
  }
  const auto module_gate = tree.add_and("engine_room", std::move(module_leaves));
  const auto other = tree.add_basic_event("other");
  tree.set_top(tree.add_or("top", {module_gate, other}));

  const PreprocessedTree preprocessed = preprocess(tree, {});
  ASSERT_EQ(preprocessed.subtrees.size(), 2u);

  // The module: the AND gate over the four original leaves, in order.
  const Subtree& extracted = preprocessed.subtrees.front();
  const fta::GateGraph::Node& gate = extracted.graph.nodes[extracted.graph.top];
  ASSERT_EQ(gate.kind, fta::NodeKind::kGate);
  EXPECT_EQ(gate.gate, fta::GateType::kAnd);
  EXPECT_EQ(gate.child_count, 4u);
  ASSERT_EQ(extracted.basic_origin.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(extracted.basic_origin[i].kind, LeafOrigin::Kind::kBasicEvent);
    EXPECT_EQ(extracted.basic_origin[i].index, i);
  }

  // The parent: OR(pseudo-leaf for subtree 0, "other").
  const Subtree& top = preprocessed.top();
  const fta::GateGraph& graph = top.graph;
  ASSERT_EQ(graph.nodes[graph.top].kind, fta::NodeKind::kGate);
  EXPECT_EQ(graph.nodes[graph.top].gate, fta::GateType::kOr);
  const std::span<const std::uint32_t> children = graph.children_of(graph.top);
  ASSERT_EQ(children.size(), 2u);
  ASSERT_EQ(graph.nodes[children[0]].kind, fta::NodeKind::kBasicEvent);
  const LeafOrigin& pseudo = top.basic_origin[graph.nodes[children[0]].ordinal];
  EXPECT_EQ(pseudo.kind, LeafOrigin::Kind::kModule);
  EXPECT_EQ(pseudo.index, 0u);
  ASSERT_EQ(graph.nodes[children[1]].kind, fta::NodeKind::kBasicEvent);
  const LeafOrigin& leaf = top.basic_origin[graph.nodes[children[1]].ordinal];
  EXPECT_EQ(leaf.kind, LeafOrigin::Kind::kBasicEvent);
  EXPECT_EQ(leaf.index, tree.basic_event_ordinal(other));
}

TEST(PreprocessPassTest, CorpusTierModuleGraphsAreWellFormed) {
  // Every module is a flat gate graph, children first: each child id is
  // below its gate's id, every gate's children are an in-bounds run of the
  // shared child array, leaf ordinals count the graph's own leaves in
  // creation order, every node is reachable from the top, and the origin
  // maps cover exactly the graph's leaves, a pseudo-leaf naming an earlier
  // subtree.
  const corpus::CorpusModel model =
      corpus::make_corpus(corpus::tier_by_name("1k"));
  const PreprocessedTree preprocessed = preprocess(model.tree, {});
  ASSERT_GT(preprocessed.subtrees.size(), 1u);
  for (std::size_t i = 0; i < preprocessed.subtrees.size(); ++i) {
    const Subtree& subtree = preprocessed.subtrees[i];
    const fta::GateGraph& graph = subtree.graph;
    ASSERT_LT(graph.top, graph.nodes.size()) << "subtree " << i;
    std::uint32_t basic = 0;
    std::uint32_t conditions = 0;
    for (std::uint32_t id = 0; id < graph.nodes.size(); ++id) {
      const fta::GateGraph::Node& node = graph.nodes[id];
      switch (node.kind) {
        case fta::NodeKind::kBasicEvent:
          ASSERT_EQ(node.ordinal, basic++) << "subtree " << i << " node " << id;
          break;
        case fta::NodeKind::kCondition:
          ASSERT_EQ(node.ordinal, conditions++)
              << "subtree " << i << " node " << id;
          break;
        case fta::NodeKind::kGate:
          ASSERT_GT(node.child_count, 0u);
          ASSERT_LE(std::size_t{node.first_child} + node.child_count,
                    graph.children.size());
          for (const std::uint32_t child : graph.children_of(id)) {
            ASSERT_LT(child, id) << "subtree " << i << " node " << id;
          }
          break;
      }
    }
    EXPECT_EQ(graph.basic_event_count, basic) << "subtree " << i;
    EXPECT_EQ(graph.condition_count, conditions) << "subtree " << i;
    ASSERT_EQ(subtree.basic_origin.size(), basic) << "subtree " << i;
    ASSERT_EQ(subtree.condition_origin.size(), conditions) << "subtree " << i;
    for (const LeafOrigin& origin : subtree.basic_origin) {
      if (origin.kind == LeafOrigin::Kind::kModule) {
        EXPECT_LT(origin.index, i) << "subtree " << i;
      }
    }
    // The same graph as a FaultTree validates: every node reachable,
    // conditions only under INHIBIT.
    EXPECT_TRUE(tree_of(graph).validate().empty()) << "subtree " << i;
  }
}

TEST(PreprocessPassTest, InhibitConditionsSurviveExtraction) {
  // INHIBIT gates carry condition leaves; quantification must route the
  // original condition probability into whichever subtree the gate lands in.
  fta::FaultTree tree("inhibit");
  const auto e0 = tree.add_basic_event("e0");
  const auto e1 = tree.add_basic_event("e1");
  const auto e2 = tree.add_basic_event("e2");
  const auto e3 = tree.add_basic_event("e3");
  const auto cause = tree.add_or("cause", {e0, e1, e2, e3});
  const auto cond = tree.add_condition("maintenance");
  const auto guarded = tree.add_inhibit("guarded", cause, cond);
  const auto other = tree.add_basic_event("other");
  tree.set_top(tree.add_or("top", {guarded, other}));

  fta::QuantificationInput input =
      fta::QuantificationInput::for_tree(tree, 0.1);
  input.condition_probability[0] = 0.25;

  bdd::CompiledFaultTree plain = bdd::compile(tree);
  const double expected = plain.probability(input);
  const ModularBddResult result = quantify_bdd(preprocess(tree, {}), input);
  EXPECT_NEAR(result.probability, expected, 1e-15);
}

TEST(PreprocessPassTest, StatisticsCountEventsAndModules) {
  const corpus::CorpusModel model =
      corpus::make_corpus(corpus::tier_by_name("1k"));
  const PreprocessedTree preprocessed = preprocess(model.tree, {});
  const PreprocessStatistics& stats = preprocessed.statistics;
  EXPECT_EQ(stats.events_before, model.tree.basic_event_count() +
                                     model.tree.condition_count());
  EXPECT_EQ(stats.modules, preprocessed.subtrees.size() - 1);
  EXPECT_EQ(stats.events_after, preprocessed.top().graph.basic_event_count +
                                    preprocessed.top().graph.condition_count);
  // The whole point: the top subtree sees ~50 module pseudo-leaves instead
  // of ~1000 raw events.
  EXPECT_LT(stats.events_after * 10, stats.events_before);
}

TEST(PreprocessPassTest, DisabledPipelineIsIdentityShape) {
  const fta::FaultTree tree = testutil::random_tree(3);
  PreprocessOptions off;
  off.propagate = off.normalize = off.flatten = off.merge = off.modularize =
      false;
  const PreprocessedTree preprocessed = preprocess(tree, off);
  EXPECT_TRUE(preprocessed.statistics.passes.empty());
  ASSERT_EQ(preprocessed.subtrees.size(), 1u);

  const fta::QuantificationInput input =
      testutil::random_probabilities(tree, 3);
  bdd::CompiledFaultTree plain = bdd::compile(tree);
  const ModularBddResult result = quantify_bdd(preprocessed, input);
  EXPECT_EQ(result.probability, plain.probability(input));
}

}  // namespace
}  // namespace safeopt::prep
