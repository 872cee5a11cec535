#include "safeopt/prep/preprocess.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "safeopt/support/contracts.h"
#include "safeopt/support/error.h"
#include "safeopt/support/execution.h"
#include "safeopt/support/strings.h"

namespace safeopt::prep {
namespace {

// ---------------------------------------------------------------- the IR
//
// Passes rewrite a copy of the tree's own GateGraph (FaultTree is
// append-only by design) plus an alias array. Nodes are created
// children-first; rewrites alias a node to its replacement instead of
// erasing it, so ids stay stable and every pass resolves through the alias
// chain. Constants are childless gates, AND() = TRUE and OR() = FALSE, so
// constant propagation has something to propagate (no source tree contains
// them, but a pass — or a future pass, see docs/extending.md — may
// introduce them). The graph carries no names: the passes, the module
// graphs and everything downstream read kinds, children, thresholds and
// ordinals only. A pass builds a gate's new children in a scratch vector it
// reuses from gate to gate and writes them back with set_children(), so a
// sweep allocates only for the nodes and runs it adds.

using Node = fta::GateGraph::Node;

[[nodiscard]] bool is_constant(const Node& node) {
  return node.kind == fta::NodeKind::kGate && node.child_count == 0;
}
/// A gate that is not a constant.
[[nodiscard]] bool is_gate(const Node& node) {
  return node.kind == fta::NodeKind::kGate && node.child_count != 0;
}
[[nodiscard]] bool is_true(const Node& node) {
  return is_constant(node) && node.gate == fta::GateType::kAnd;
}
[[nodiscard]] bool is_false(const Node& node) {
  return is_constant(node) && node.gate == fta::GateType::kOr;
}

struct Ir {
  fta::GateGraph graph;              // graph.top is the root
  std::vector<std::uint32_t> alias;  // alias[i] == i when canonical
  // Scratch marks shared by every reachability walk and by propagate's
  // duplicate check: node i is marked in the current walk (or under the
  // current gate) iff stamp[i] == epoch, so nothing clears the array.
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> stack;

  std::uint32_t add_gate(fta::GateType type, std::uint32_t k,
                         std::span<const std::uint32_t> children) {
    const std::uint32_t id = graph.add_gate(type, k, children);
    alias.push_back(id);
    return id;
  }

  /// Replaces the children of gate `id` by `run` (never a view into the
  /// graph): in the gate's own run when they fit, else in a new run at the
  /// end of the child array.
  void set_children(std::uint32_t id, std::span<const std::uint32_t> run) {
    Node& node = graph.nodes[id];
    if (run.size() > node.child_count) {
      node.first_child = static_cast<std::uint32_t>(graph.children.size());
      graph.children.insert(graph.children.end(), run.begin(), run.end());
    } else {
      std::copy(run.begin(), run.end(),
                graph.children.begin() + node.first_child);
    }
    node.child_count = static_cast<std::uint32_t>(run.size());
  }

  [[nodiscard]] std::uint32_t resolve(std::uint32_t id) {
    while (alias[id] != id) {
      alias[id] = alias[alias[id]];  // path halving
      id = alias[id];
    }
    return id;
  }

  /// Depth-first walk over the nodes reachable from the root through
  /// resolved edges; `visit(id)` runs once per node.
  template <typename Visit>
  void walk(const Visit& visit) {
    stamp.resize(graph.nodes.size(), 0);
    ++epoch;
    stack.assign(1, resolve(graph.top));
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      stack.pop_back();
      if (stamp[id] == epoch) continue;
      stamp[id] = epoch;
      visit(id);
      for (const std::uint32_t child : graph.children_of(id)) {
        stack.push_back(resolve(child));
      }
    }
  }
};

/// The IR starts as a copy of the tree's graph, every node canonical.
Ir build_ir(const fta::FaultTree& tree) {
  Ir ir;
  ir.graph = tree.graph();
  ir.alias.resize(ir.graph.nodes.size());
  std::iota(ir.alias.begin(), ir.alias.end(), 0u);
  return ir;
}

std::uint32_t constant(Ir& ir, bool value) {
  return ir.add_gate(value ? fta::GateType::kAnd : fta::GateType::kOr, 0, {});
}

// ------------------------------------------------ redundancy/constants
//
// Bottom-up: duplicate AND/OR children collapse to the first occurrence,
// single-child AND/OR/XOR gates alias to their child, degenerate k-of-n
// becomes AND or OR, and TRUE/FALSE children short-circuit. INHIBIT is
// opaque (its condition leaf must stay under it — a validate() invariant).
// Every rewrite keeps the first DFS visit of every remaining leaf in place,
// which is what makes the pass bitwise probability-preserving.
PassStats run_propagate(Ir& ir) {
  PassStats stats{.name = "propagate"};
  // The gate's resolved children and the ones a rule keeps. A node's own
  // children change only when the gate survives, so an aliased gate keeps
  // the children it had.
  std::vector<std::uint32_t> children;
  std::vector<std::uint32_t> kept;
  // A child is kept under the current gate iff its stamp is this gate's
  // epoch; the pass adds only constants, which are never kept, so the
  // stamps of the nodes it starts with are all it needs.
  ir.stamp.resize(ir.graph.nodes.size(), 0);
  for (std::uint32_t id = 0; id < ir.graph.nodes.size(); ++id) {
    // By value: constant() below may grow the node vector.
    const Node node = ir.graph.nodes[id];
    if (!is_gate(node) || node.gate == fta::GateType::kInhibit) continue;
    fta::GateType gate = node.gate;
    children.clear();
    for (const std::uint32_t child : ir.graph.children_of(id)) {
      children.push_back(ir.resolve(child));
    }

    if (gate == fta::GateType::kKofN) {
      // Fold constants into the threshold, then degrade to AND/OR.
      kept.clear();
      std::int64_t k = node.k;
      for (const std::uint32_t child : children) {
        if (is_true(ir.graph.nodes[child])) {
          --k;
          ++stats.rewrites;
        } else if (is_false(ir.graph.nodes[child])) {
          ++stats.rewrites;
        } else {
          kept.push_back(child);
        }
      }
      children.swap(kept);
      if (k <= 0) {
        ir.alias[id] = constant(ir, true);
        ++stats.rewrites;
        continue;
      }
      if (std::cmp_greater(k, children.size())) {
        ir.alias[id] = constant(ir, false);
        ++stats.rewrites;
        continue;
      }
      if (std::cmp_equal(k, children.size())) {
        gate = fta::GateType::kAnd;
        ++stats.rewrites;
      } else if (k == 1) {
        gate = fta::GateType::kOr;
        ++stats.rewrites;
      } else {
        ir.graph.nodes[id].k = static_cast<std::uint32_t>(k);
        ir.set_children(id, children);
        continue;
      }
      ir.graph.nodes[id].gate = gate;
      ir.graph.nodes[id].k = 0;
    }

    if (gate == fta::GateType::kAnd || gate == fta::GateType::kOr) {
      const bool is_and = gate == fta::GateType::kAnd;
      kept.clear();
      ++ir.epoch;
      bool short_circuit = false;
      for (const std::uint32_t child : children) {
        const Node& c = ir.graph.nodes[child];
        if (is_constant(c)) {
          // AND absorbs TRUE / dies on FALSE; OR dually.
          if (is_false(c) == is_and) short_circuit = true;
          ++stats.rewrites;
          continue;
        }
        if (ir.stamp[child] == ir.epoch) {
          ++stats.rewrites;  // idempotence: x AND x = x OR x = x
          continue;
        }
        ir.stamp[child] = ir.epoch;
        kept.push_back(child);
      }
      if (short_circuit) {
        ir.alias[id] = constant(ir, !is_and);
        continue;
      }
      if (kept.empty()) {
        ir.alias[id] = constant(ir, is_and);  // empty AND = 1, empty OR = 0
        ++stats.rewrites;
        continue;
      }
      children.swap(kept);
    } else if (gate == fta::GateType::kXor) {
      // exactly-one: FALSE children are inert; anything stronger (a TRUE
      // child forces all siblings false) needs negation we cannot express.
      std::erase_if(children, [&](std::uint32_t child) {
        const bool drop = is_false(ir.graph.nodes[child]);
        if (drop) ++stats.rewrites;
        return drop;
      });
      if (children.empty()) {
        ir.alias[id] = constant(ir, false);
        ++stats.rewrites;
        continue;
      }
    }

    if (children.size() == 1 && gate != fta::GateType::kKofN) {
      ir.alias[id] = children.front();
      ++stats.rewrites;
      continue;
    }
    // Never longer than the children it replaces, so it fits in place.
    ir.set_children(id, children);
  }
  ir.graph.top = ir.resolve(ir.graph.top);
  return stats;
}

// ----------------------------------------------------- k-of-n expansion
//
// Recursive Shannon split with memoized suffix thresholds:
//   ge(i, j) = "at least j of children[i..n)":
//     ge(i, 1)     = OR(children[i..n))
//     ge(i, n - i) = AND(children[i..n))
//     ge(i, j)     = OR(AND(children[i], ge(i+1, j-1)), ge(i+1, j))
// O(n·k) shared gates — never the C(n,k) sum-of-products blow-up — and the
// leaves keep their DFS first-visit order (child i is always reached before
// any gate that first touches child i+1).
PassStats run_normalize(Ir& ir) {
  PassStats stats{.name = "normalize"};
  // Per-vote scratch: the resolved children and the ge(i, j) memo.
  std::vector<std::uint32_t> children;
  std::vector<std::uint32_t> memo;
  const auto gate_count = static_cast<std::uint32_t>(ir.graph.nodes.size());
  for (std::uint32_t id = 0; id < gate_count; ++id) {
    if (!is_gate(ir.graph.nodes[id]) ||
        ir.graph.nodes[id].gate != fta::GateType::kKofN) {
      continue;
    }
    children.clear();
    for (const std::uint32_t child : ir.graph.children_of(id)) {
      children.push_back(ir.resolve(child));
    }
    const std::uint32_t n = static_cast<std::uint32_t>(children.size());
    const std::uint32_t k = ir.graph.nodes[id].k;
    SAFEOPT_ASSERT(k >= 1 && k <= n);

    // memo[i * (k + 1) + j] is the gate for ge(i, j), or kNone. The memo
    // never grows, so a reference to a slot survives the recursion.
    constexpr std::uint32_t kNone = UINT32_MAX;
    memo.assign(std::size_t{n} * (k + 1), kNone);
    const auto ge = [&](auto&& self, std::uint32_t i,
                        std::uint32_t j) -> std::uint32_t {
      SAFEOPT_ASSERT(j >= 1 && j <= n - i);
      if (j == 1 && n - i == 1) return children[i];
      std::uint32_t& slot = memo[std::size_t{i} * (k + 1) + j];
      if (slot != kNone) return slot;
      const std::span<const std::uint32_t> suffix =
          std::span<const std::uint32_t>(children).subspan(i);
      if (j == 1) {
        slot = ir.add_gate(fta::GateType::kOr, 0, suffix);
      } else if (j == n - i) {
        slot = ir.add_gate(fta::GateType::kAnd, 0, suffix);
      } else {
        const std::uint32_t take[] = {children[i], self(self, i + 1, j - 1)};
        const std::uint32_t either[] = {
            ir.add_gate(fta::GateType::kAnd, 0, take), self(self, i + 1, j)};
        slot = ir.add_gate(fta::GateType::kOr, 0, either);
      }
      return slot;
    };
    ir.alias[id] = ge(ge, 0, k);
    ++stats.rewrites;
  }
  ir.graph.top = ir.resolve(ir.graph.top);
  return stats;
}

// --------------------------------------------------- same-op flattening
//
// AND(AND(a, b), c) -> AND(a, b, c) whenever the inner gate has no other
// parent (a shared gate stays put: splicing it would duplicate structure
// and lose the sharing modularization feeds on). Splicing in place keeps
// the child order, hence the DFS leaf order. One ascending sweep cascades
// through whole same-op chains because children have been flattened by the
// time their parent is visited — except for gates synthesized *above* their
// parents by normalization, which a second sweep in a later propagate/merge
// round would catch; in practice normalization emits alternating AND/OR
// levels, so there is nothing to flatten there anyway.
PassStats run_flatten(Ir& ir) {
  PassStats stats{.name = "flatten"};
  std::vector<Node>& nodes = ir.graph.nodes;  // the pass adds no node
  // Reference counts over the resolved, reachable graph only.
  std::vector<std::uint32_t> refs(nodes.size(), 0);
  ir.walk([&](std::uint32_t id) {
    for (const std::uint32_t raw : ir.graph.children_of(id)) {
      ++refs[ir.resolve(raw)];
    }
  });
  std::vector<std::uint32_t> flat;
  for (std::uint32_t id = 0; id < nodes.size(); ++id) {
    const Node& node = nodes[id];
    if (!is_gate(node)) continue;
    if (node.gate != fta::GateType::kAnd && node.gate != fta::GateType::kOr) {
      continue;
    }
    flat.clear();
    for (const std::uint32_t raw : ir.graph.children_of(id)) {
      const std::uint32_t child = ir.resolve(raw);
      const Node& c = nodes[child];
      if (is_gate(c) && c.gate == node.gate && refs[child] == 1) {
        for (const std::uint32_t grand : ir.graph.children_of(child)) {
          flat.push_back(ir.resolve(grand));
        }
        ++stats.rewrites;
      } else {
        flat.push_back(child);
      }
    }
    // A spliced gate makes the run longer: it moves to the end.
    ir.set_children(id, flat);
  }
  ir.graph.top = ir.resolve(ir.graph.top);
  return stats;
}

// ---------------------------------------------- common-argument merging
//
// Structural hash-consing: two gates with the same type, threshold and
// child *list* become one node. Equal-as-sets-but-differently-ordered
// gates are deliberately NOT merged — reordering children would permute
// the DFS leaf first-visit order and break the bitwise-parity guarantee.
PassStats run_merge(Ir& ir) {
  PassStats stats{.name = "merge"};
  const fta::GateGraph& graph = ir.graph;
  // The table holds gate ids keyed by (type, threshold, children) as the
  // gate stands when it is filed. The sweep never revisits a filed gate, so
  // the key read back later is the key that was filed. The table is only
  // probed: the first gate of each key wins, in id order. Open addressing
  // with linear probing, at most half full (no pass adds nodes here).
  const auto key_hash = [&graph](std::uint32_t id) {
    const Node& node = graph.nodes[id];
    std::size_t h = (static_cast<std::size_t>(node.gate) << 32) ^ node.k;
    for (const std::uint32_t child : graph.children_of(id)) {
      h ^= child + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  };
  const auto key_equal = [&graph](std::uint32_t a, std::uint32_t b) {
    const Node& x = graph.nodes[a];
    const Node& y = graph.nodes[b];
    return x.gate == y.gate && x.k == y.k &&
           std::ranges::equal(graph.children_of(a), graph.children_of(b));
  };
  constexpr std::uint32_t kEmpty = UINT32_MAX;
  int bits = 4;
  while ((std::size_t{1} << bits) < 2 * graph.nodes.size()) ++bits;
  std::vector<std::uint32_t> canonical(std::size_t{1} << bits, kEmpty);
  const std::size_t mask = canonical.size() - 1;
  for (std::uint32_t id = 0; id < graph.nodes.size(); ++id) {
    const Node& node = graph.nodes[id];
    if (!is_gate(node)) continue;
    for (std::uint32_t& child :
         std::span(ir.graph.children).subspan(node.first_child,
                                              node.child_count)) {
      child = ir.resolve(child);
    }
    // Fibonacci hashing: the top bits of the product spread the key.
    std::size_t i = static_cast<std::size_t>(
        (std::uint64_t{key_hash(id)} * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
    while (canonical[i] != kEmpty && !key_equal(canonical[i], id)) {
      i = (i + 1) & mask;
    }
    if (canonical[i] == kEmpty) {
      canonical[i] = id;
    } else {
      ir.alias[id] = canonical[i];
      ++stats.rewrites;
    }
  }
  ir.graph.top = ir.resolve(ir.graph.top);
  return stats;
}

// --------------------------------------------------------- modularization
//
// Dutuit & Rauzy's linear-time module detection. One DFS with a global
// clock stamps every node's first and last *touch*; children are expanded
// only on first touch. A gate g is a module iff every strict descendant is
// touched exclusively inside g's first traversal — i.e. the min first-touch
// of its descendants is after g's own first touch and the max last-touch is
// before the first traversal of g completed. Shared gates whose sharing is
// entirely internal to the subtree still qualify; any edge from outside
// moves a descendant's touch outside the window and disqualifies g.

struct ModuleScan {
  std::vector<std::uint32_t> postorder;  // reachable ids, children first
  std::vector<bool> is_module;           // by node id
  std::vector<std::size_t> leaf_refs;    // DAG leaf-reference weight
};

ModuleScan scan_modules(Ir& ir) {
  const std::size_t n = ir.graph.nodes.size();
  constexpr std::uint64_t kUnset = 0;
  std::vector<std::uint64_t> first(n, kUnset);
  std::vector<std::uint64_t> last(n, kUnset);
  std::vector<std::uint64_t> exit1(n, kUnset);
  ModuleScan scan;
  scan.is_module.assign(n, false);
  scan.leaf_refs.assign(n, 0);

  std::uint64_t clock = 0;
  struct Frame {
    std::uint32_t id;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack;
  const auto touch = [&](std::uint32_t id) {
    ++clock;
    last[id] = clock;
    if (first[id] == kUnset) {
      first[id] = clock;
      stack.push_back({id});
    }
  };
  touch(ir.resolve(ir.graph.top));
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const std::span<const std::uint32_t> children =
        ir.graph.children_of(frame.id);
    if (frame.next_child < children.size()) {
      touch(ir.resolve(children[frame.next_child++]));
    } else {
      ++clock;
      exit1[frame.id] = clock;
      last[frame.id] = clock;
      scan.postorder.push_back(frame.id);
      stack.pop_back();
    }
  }

  // Strict-descendant touch windows, children-first over the DAG.
  std::vector<std::uint64_t> desc_min(
      n, std::numeric_limits<std::uint64_t>::max());
  std::vector<std::uint64_t> desc_max(n, 0);
  for (const std::uint32_t id : scan.postorder) {
    const Node& node = ir.graph.nodes[id];
    if (!is_gate(node)) {
      scan.leaf_refs[id] = is_constant(node) ? 0 : 1;
      continue;
    }
    std::size_t refs = 0;
    for (const std::uint32_t raw : ir.graph.children_of(id)) {
      const std::uint32_t child = ir.resolve(raw);
      desc_min[id] = std::min({desc_min[id], first[child], desc_min[child]});
      desc_max[id] = std::max({desc_max[id], last[child], desc_max[child]});
      refs += scan.leaf_refs[child];
    }
    scan.leaf_refs[id] = refs;
    scan.is_module[id] =
        desc_min[id] > first[id] && desc_max[id] < exit1[id];
  }
  return scan;
}

// ------------------------------------------------------------- rebuild

/// Which IR node became which node of the graph being built: node_of[id]
/// is valid only where stamp[id] is the current subtree's stamp, so one pair
/// of vectors serves every subtree without clearing. `operands` holds the
/// child nodes of every gate on the build path, innermost gate last.
/// `subtree` is the one being built: it keeps its capacity from module to
/// module, and each finished module is copied out at its exact size.
struct BuildScratch {
  explicit BuildScratch(std::size_t nodes) : node_of(nodes), stamp(nodes, 0) {}

  std::vector<std::uint32_t> node_of;
  std::vector<std::uint32_t> stamp;
  std::uint32_t current = 0;
  std::vector<std::uint32_t> operands;
  Subtree subtree;
};

/// Builds the gate graph of the subtree rooted at `start`, stopping at
/// chosen module boundaries (they become pseudo-leaf basic events). Leaves
/// are created at their DFS first visit and gates after their children, so
/// leaf ordinal order *is* DFS order — the BDD variable order. A constant
/// that survived the passes stays a childless gate, which compiles to its
/// value.
Subtree build_subtree(Ir& ir, std::uint32_t start,
                      const std::vector<std::int64_t>& module_of,
                      BuildScratch& scratch) {
  Subtree& subtree = scratch.subtree;
  fta::GateGraph& graph = subtree.graph;
  graph.nodes.clear();
  graph.children.clear();
  graph.basic_event_count = 0;
  graph.condition_count = 0;
  subtree.basic_origin.clear();
  subtree.condition_origin.clear();
  const std::uint32_t stamp = ++scratch.current;
  const auto build = [&](auto&& self, std::uint32_t id) -> std::uint32_t {
    if (scratch.stamp[id] == stamp) return scratch.node_of[id];
    const Node& node = ir.graph.nodes[id];
    std::uint32_t built = 0;
    if (id != start && module_of[id] >= 0) {
      built = graph.add_leaf(fta::NodeKind::kBasicEvent);
      subtree.basic_origin.push_back(
          {LeafOrigin::Kind::kModule,
           static_cast<std::uint32_t>(module_of[id])});
    } else {
      switch (node.kind) {
        case fta::NodeKind::kBasicEvent:
          built = graph.add_leaf(fta::NodeKind::kBasicEvent);
          subtree.basic_origin.push_back(
              {LeafOrigin::Kind::kBasicEvent, node.ordinal});
          break;
        case fta::NodeKind::kCondition:
          built = graph.add_leaf(fta::NodeKind::kCondition);
          subtree.condition_origin.push_back(node.ordinal);
          break;
        case fta::NodeKind::kGate: {
          const std::size_t base = scratch.operands.size();
          for (const std::uint32_t raw : ir.graph.children_of(id)) {
            const std::uint32_t child = self(self, ir.resolve(raw));
            scratch.operands.push_back(child);
          }
          SAFEOPT_ASSERT(node.gate != fta::GateType::kInhibit ||
                         scratch.operands.size() - base == 2);
          built = graph.add_gate(
              node.gate, node.gate == fta::GateType::kKofN ? node.k : 0,
              std::span<const std::uint32_t>(scratch.operands).subspan(base));
          scratch.operands.resize(base);
          break;
        }
      }
    }
    scratch.stamp[id] = stamp;
    scratch.node_of[id] = built;
    return built;
  };
  graph.top = build(build, start);
  return subtree;  // a copy: each vector at its exact size
}

}  // namespace

PreprocessedTree preprocess(const fta::FaultTree& tree,
                            const PreprocessOptions& options) {
  SAFEOPT_EXPECTS(tree.has_top());
  Ir ir = build_ir(tree);

  PreprocessedTree result;
  result.statistics.events_before =
      tree.basic_event_count() + tree.condition_count();
  result.statistics.gates_before = tree.gate_count();

  // Pass-boundary poll: passes are all-or-nothing (they rewrite a private
  // IR), so between-pass checkpoints are the finest abort granularity that
  // still leaves nothing torn.
  const auto checkpoint = [&options] {
    if (options.control != nullptr) {
      options.control->check("fault-tree preprocessing");
    }
  };
  const auto run = [&](bool enabled, PassStats (*pass)(Ir&)) {
    checkpoint();
    if (enabled) result.statistics.passes.push_back(pass(ir));
  };
  run(options.propagate, run_propagate);
  run(options.normalize, run_normalize);
  run(options.flatten, run_flatten);
  run(options.merge, run_merge);
  // Normalization/flattening/merging expose fresh redundancy (e.g. a merged
  // gate appearing twice under one AND); one more propagation folds it.
  run(options.propagate &&
          (options.normalize || options.flatten || options.merge),
      run_propagate);
  checkpoint();

  // Pick modules bottom-up (postorder puts inner modules first), excluding
  // the root — the top subtree is built last and is "the" tree.
  std::vector<std::int64_t> module_of(ir.graph.nodes.size(), -1);
  BuildScratch scratch(ir.graph.nodes.size());
  const std::uint32_t root = ir.resolve(ir.graph.top);
  if (options.modularize) {
    const ModuleScan scan = scan_modules(ir);
    for (const std::uint32_t id : scan.postorder) {
      if (id == root || !scan.is_module[id]) continue;
      if (scan.leaf_refs[id] < options.module_min_leaves) continue;
      module_of[id] = static_cast<std::int64_t>(result.subtrees.size());
      result.subtrees.push_back(build_subtree(ir, id, module_of, scratch));
    }
  }
  result.statistics.modules = result.subtrees.size();
  result.subtrees.push_back(build_subtree(ir, root, module_of, scratch));

  const fta::GateGraph& top = result.subtrees.back().graph;
  result.statistics.events_after =
      top.basic_event_count + top.condition_count;
  for (const Subtree& subtree : result.subtrees) {
    result.statistics.gates_after += subtree.graph.gate_count();
  }
  return result;
}

CompiledPreprocessedTree::CompiledPreprocessedTree(
    const PreprocessedTree& preprocessed, const bdd::BddOptions& options) {
  const std::size_t count = preprocessed.subtrees.size();
  const std::size_t budget = options.node_budget;
  const auto budget_exceeded = [&](std::size_t compiled) {
    return Error(ErrorCategory::kResourceExhausted,
                 concat("BDD node budget exceeded: more than ",
                        std::to_string(budget), " decision nodes in the first ",
                        std::to_string(compiled), " of ", std::to_string(count),
                        " module diagrams"));
  };
  modules_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Subtree& subtree = preprocessed.subtrees[i];
    // `options` is a per-manager ceiling, not a per-manager grant: a module
    // a few dozen nodes wide must not zero a multi-megabyte ITE cache (with
    // hundreds of modules that would dwarf the quantification itself). Each
    // module gets geometry proportional to its own size, capped by the
    // caller's options. Results are unaffected — the cache only memoizes.
    // Four slots per tree node, picked by measurement on the corpus tiers
    // (bench_large_trees, factors 2 to 64): larger caches spend the build
    // zero-filling slots no ITE call reaches, and half as many starve the
    // cache (about 0.8% more ITE calls than 64 slots per node at 4).
    bdd::BddOptions scaled = options;
    std::size_t hint = 16;
    while (hint < 4 * subtree.graph.nodes.size()) hint <<= 1;
    scaled.cache_size = std::min(scaled.cache_size, hint);
    scaled.initial_table_size = std::min(scaled.initial_table_size, hint);
    // The node budget is charged against the sum over all modules: each
    // manager gets what the earlier ones left. 0 would mean unlimited, so a
    // spent budget still hands out 1 and the sum check below throws.
    if (budget != 0) {
      scaled.node_budget =
          std::max<std::size_t>(budget - statistics_.decision_nodes, 1);
    }
    bdd::CompiledFaultTree compiled = [&] {
      try {
        return bdd::compile(subtree.graph, scaled);
      } catch (const Error& error) {
        if (error.category() != ErrorCategory::kResourceExhausted) throw;
        throw budget_exceeded(i + 1);
      }
    }();
    const bdd::BddStatistics& stats = compiled.manager.statistics();
    statistics_.decision_nodes += stats.decision_node_count();
    statistics_.ite_calls += stats.ite_calls;
    statistics_.cache_hits += stats.cache_hits;
    statistics_.cache_evictions += stats.cache_evictions;
    if (budget != 0 && statistics_.decision_nodes > budget) {
      throw budget_exceeded(i + 1);
    }
    // Where each BDD variable's probability comes from: the module's leaf
    // origins composed with its variable numbering.
    std::vector<LeafOrigin> source_of_var(compiled.manager.variable_count());
    for (std::size_t leaf = 0; leaf < subtree.basic_origin.size(); ++leaf) {
      source_of_var[compiled.var_of_basic_event[leaf]] =
          subtree.basic_origin[leaf];
    }
    for (std::size_t leaf = 0; leaf < subtree.condition_origin.size();
         ++leaf) {
      source_of_var[compiled.var_of_condition[leaf]] = {
          LeafOrigin::Kind::kCondition, subtree.condition_origin[leaf]};
    }
    widest_ = std::max(widest_, source_of_var.size());
    largest_ = std::max(largest_, stats.node_count);
    modules_.push_back({std::move(compiled.manager), compiled.root,
                        std::move(source_of_var)});
  }
}

double CompiledPreprocessedTree::probability(
    const fta::QuantificationInput& input) const {
  std::vector<double> module_probability(modules_.size(), 0.0);
  // Variable probabilities of the module being evaluated, refilled per
  // module; BddManager::probability reads exactly variable_count() entries.
  std::vector<double> probabilities;
  probabilities.reserve(widest_);
  // One memo for every module's diagram, sized for the largest.
  bdd::BddManager::ProbabilityScratch scratch;
  scratch.memo.reserve(largest_);
  scratch.done.reserve(largest_);
  double probability = 0.0;
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    const Module& module = modules_[i];
    probabilities.resize(module.source_of_var.size());
    for (std::size_t var = 0; var < probabilities.size(); ++var) {
      const LeafOrigin& source = module.source_of_var[var];
      switch (source.kind) {
        case LeafOrigin::Kind::kBasicEvent:
          probabilities[var] = input.basic_event_probability[source.index];
          break;
        case LeafOrigin::Kind::kCondition:
          probabilities[var] = input.condition_probability[source.index];
          break;
        case LeafOrigin::Kind::kModule:
          SAFEOPT_ASSERT(source.index < i);
          probabilities[var] = module_probability[source.index];
          break;
      }
    }
    probability =
        module.manager.probability(module.root, probabilities, scratch);
    module_probability[i] = probability;
  }
  return probability;
}

ModularBddResult quantify_bdd(const PreprocessedTree& preprocessed,
                              const fta::QuantificationInput& input,
                              const bdd::BddOptions& options) {
  CompiledPreprocessedTree compiled(preprocessed, options);
  ModularBddResult result = compiled.compile_statistics();
  result.probability = compiled.probability(input);
  return result;
}

}  // namespace safeopt::prep
