// Fault-tree preprocessing: the pass pipeline that makes industrial-scale
// trees quantifiable. The paper's optimization loop re-quantifies the tree at
// every candidate design point, so per-quantification cost is the hard
// ceiling on scaling — and the classical levers (SCRAM reports up to 50×
// from exactly these steps) are all *structural*, applied once per tree:
//
//   propagate   redundancy/constant propagation: duplicate AND/OR children
//               collapse, single-child gates alias to their child, k-of-n
//               degenerates to AND (k = n) or OR (k = 1), TRUE/FALSE
//               constants (if a pass introduces them) short-circuit;
//   normalize   recursive k-of-n expansion into shared AND/OR gates via the
//               Shannon split  k/n(x1..xn) = (x1 AND (k-1)/(n-1)(x2..xn))
//                                            OR k/(n-1)(x2..xn)
//               — O(n·k) gates with sharing, never the C(n,k) blow-up;
//   flatten     same-op gate flattening: an AND child of an AND (or OR of
//               OR) with no other parent is spliced into its parent;
//   merge       common-argument merging: gates of identical type, threshold
//               and child list are hash-consed to one node;
//   modularize  Dutuit–Rauzy linear-time module detection — a gate whose
//               descendants are reachable *only* through it is an
//               independent subtree that can be quantified once and
//               substituted as a pseudo-leaf.
//
// Every pass except modularization preserves the structure function *and*
// the DFS first-visit order of the leaves. Because BDD variable order is
// that DFS order and the ROBDD is canonical, the preprocessed BDD is the
// same decision diagram as the unpreprocessed one — top-event probabilities
// agree bitwise (the property tests assert exactly that). Modularization is
// exact under leaf independence but re-associates the floating-point
// product, so it agrees to rounding, not bitwise. It keeps the cut sets:
// composing each module's MOCUS output reproduces MOCUS on the whole tree
// (the property tests check exactly that).
//
// The passes edit a copy of the tree's own fta::GateGraph (plus an alias
// array) in place: a pass writes a gate's new children into the gate's own
// run of the child array when they fit and appends a new run when they do
// not, and it reuses its scratch vectors from gate to gate, so a pass
// allocates only for the nodes and runs it adds.
//
// The result of preprocess() is a PreprocessedTree: a list of Subtrees in
// dependency order (innermost modules first, top last) with per-leaf origin
// maps back to the original tree's ordinals, plus per-pass statistics. Each
// subtree is an anonymous fta::GateGraph built straight from the edited
// graph — no fault tree, no names, since BDD compilation reads only kinds,
// children, thresholds and ordinals (a module's pseudo-leaf is tied to its
// module by LeafOrigin, not by name). bdd::compile over that graph is the
// one BDD compile routine. The "bdd" engine always runs preprocess() and
// quantifies through CompiledPreprocessedTree; the "fta" engine runs MOCUS
// on the original tree instead.
#ifndef SAFEOPT_PREP_PREPROCESS_H
#define SAFEOPT_PREP_PREPROCESS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "safeopt/bdd/bdd.h"
#include "safeopt/fta/fault_tree.h"
#include "safeopt/fta/probability.h"

namespace safeopt {
class ExecutionControl;  // support/execution.h
}

namespace safeopt::prep {

/// Which passes run, and the modularization granularity.
struct PreprocessOptions {
  bool propagate = true;
  bool normalize = true;
  bool flatten = true;
  bool merge = true;
  bool modularize = true;
  /// A detected module is extracted only when its subtree spans at least
  /// this many leaves — extracting tiny modules costs more bookkeeping than
  /// the per-module quantification saves.
  std::size_t module_min_leaves = 4;
  /// Cooperative deadline/cancellation, polled at pass boundaries; an abort
  /// throws Error(kDeadlineExceeded / kCancelled) and the input tree is
  /// untouched (passes edit a copy of its graph). Not owned; nullptr =
  /// unbounded.
  const ExecutionControl* control = nullptr;
};

/// Where a subtree leaf came from: an original basic event, an original
/// condition, or a module pseudo-leaf standing for another subtree.
struct LeafOrigin {
  enum class Kind : std::uint8_t { kBasicEvent, kCondition, kModule };
  Kind kind = Kind::kBasicEvent;
  /// Original BasicEventOrdinal / ConditionOrdinal, or the index into
  /// PreprocessedTree::subtrees() for kModule.
  std::uint32_t index = 0;
};

/// One independent quantification unit after preprocessing. The top-level
/// subtree is last in PreprocessedTree::subtrees(); every pseudo-leaf
/// refers to an earlier subtree (dependency order).
struct Subtree {
  /// The unit's gates and leaves; the origin maps below, not names, tie it
  /// back to the original tree.
  fta::GateGraph graph;
  /// Origin of each basic event of `graph`, by its basic-event ordinal.
  /// Module pseudo-leaves appear here with Kind::kModule.
  std::vector<LeafOrigin> basic_origin;
  /// Original ConditionOrdinal of each condition of `graph`.
  std::vector<std::uint32_t> condition_origin;
};

/// What one pass did, for diagnostics ("passes applied" in
/// QuantificationResult::preprocess and `safeopt quantify --json`).
struct PassStats {
  std::string name;
  std::size_t rewrites = 0;  // local rewrites the pass performed
};

/// Aggregate before/after picture of one preprocess() run.
struct PreprocessStatistics {
  /// Original leaf count (basic events + conditions).
  std::size_t events_before = 0;
  /// Leaf count of the final *top* subtree — module pseudo-leaves count as
  /// one each, which is exactly the reduction the BDD engine sees.
  std::size_t events_after = 0;
  std::size_t gates_before = 0;
  /// Total gates across all subtrees after every pass.
  std::size_t gates_after = 0;
  /// Extracted modules (subtree count minus the top).
  std::size_t modules = 0;
  std::vector<PassStats> passes;
};

/// Everything the engines need: the subtrees in dependency order, the origin
/// maps, and the statistics. Produced by preprocess(); treat as immutable.
struct PreprocessedTree {
  std::vector<Subtree> subtrees;
  PreprocessStatistics statistics;

  [[nodiscard]] const Subtree& top() const { return subtrees.back(); }
};

/// Runs the configured passes over `tree`. Precondition: tree.has_top() and
/// tree.validate() is clean. The input tree is not modified.
[[nodiscard]] PreprocessedTree preprocess(const fta::FaultTree& tree,
                                          const PreprocessOptions& options = {});

/// Outcome of quantify_bdd: the exact probability plus the aggregated BDD
/// counters of every per-subtree manager. Node counts sum
/// decision_node_count() so the two terminals are not counted once per
/// module (the "like with like" contract of the large-tree bench gates).
struct ModularBddResult {
  double probability = 0.0;
  std::size_t decision_nodes = 0;
  std::size_t ite_calls = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_evictions = 0;
};

/// Every subtree compiled to its own BDD once (modules become single
/// variables in their parent); probability() is then a per-input bottom-up
/// Shannon evaluation over the precompiled diagrams — the optimization-loop
/// hot path, where the same tree is re-quantified at every design point.
/// Construction also composes each module's leaf origins with its BDD
/// variable numbering, so a call fills each module's variable
/// probabilities straight from the input and the earlier modules' results.
/// `options.node_budget` caps the decision nodes summed over every subtree
/// (exceeding it throws Error(kResourceExhausted)); the table and cache
/// sizes cap each subtree's manager, which is sized to its own tree.
class CompiledPreprocessedTree {
 public:
  explicit CompiledPreprocessedTree(const PreprocessedTree& preprocessed,
                                    const bdd::BddOptions& options = {});

  /// Exact top-event probability under leaf independence (module leaf sets
  /// are disjoint by construction). `input` is over the *original* tree's
  /// ordinals. The `probability` field of compile_statistics() is not
  /// touched — per-call results are returned, not stored.
  [[nodiscard]] double probability(
      const fta::QuantificationInput& input) const;

  /// Aggregated compile-time BDD counters (probability field is 0).
  [[nodiscard]] const ModularBddResult& compile_statistics() const noexcept {
    return statistics_;
  }

 private:
  /// One compiled subtree, in PreprocessedTree::subtrees order.
  struct Module {
    bdd::BddManager manager;
    bdd::BddRef root = bdd::kFalse;
    /// Where each BDD variable's probability comes from, by variable.
    std::vector<LeafOrigin> source_of_var;
  };

  std::vector<Module> modules_;
  std::size_t widest_ = 0;   // the most variables of any module
  std::size_t largest_ = 0;  // the most BDD nodes of any module's manager
  ModularBddResult statistics_;
};

/// One-shot convenience over CompiledPreprocessedTree: compile every
/// subtree, evaluate `input`, return probability + aggregated counters.
[[nodiscard]] ModularBddResult quantify_bdd(
    const PreprocessedTree& preprocessed,
    const fta::QuantificationInput& input,
    const bdd::BddOptions& options = {});

}  // namespace safeopt::prep

#endif  // SAFEOPT_PREP_PREPROCESS_H
