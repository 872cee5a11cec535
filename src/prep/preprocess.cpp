#include "safeopt/prep/preprocess.h"

#include <algorithm>
#include <limits>
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
// Passes rewrite a small mutable mirror of the FaultTree rather than the
// tree itself (FaultTree is append-only by design). Items are created
// children-first; rewrites alias an item to its replacement instead of
// erasing it, so ids stay stable and every pass resolves through the alias
// chain. TRUE/FALSE constant items exist so constant propagation has
// something to propagate (no source tree contains them, but a pass — or a
// future pass, see docs/extending.md — may introduce them). Items carry no
// names: the passes, the module graphs and everything downstream read
// kinds, children, thresholds and ordinals only. A pass rewrites an item's
// children in place, through scratch vectors it reuses from gate to gate,
// so a sweep allocates only for the items it adds.

enum class ItemKind : std::uint8_t {
  kBasic,
  kCondition,
  kGate,
  kTrue,
  kFalse,
};

struct Item {
  ItemKind kind = ItemKind::kBasic;
  fta::GateType gate = fta::GateType::kAnd;
  std::uint32_t k = 0;        // vote threshold for kKofN
  std::uint32_t ordinal = 0;  // original leaf ordinal (leaves only)
  std::vector<std::uint32_t> children;
};

struct Ir {
  std::vector<Item> items;
  std::vector<std::uint32_t> alias;  // alias[i] == i when canonical
  std::uint32_t root = 0;
  // Walk scratch shared by every reachability walk: item i is visited in
  // the current walk iff stamp[i] == epoch, so no walk clears the array.
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> stack;

  std::uint32_t add(Item item) {
    const auto id = static_cast<std::uint32_t>(items.size());
    items.push_back(std::move(item));
    alias.push_back(id);
    return id;
  }

  [[nodiscard]] std::uint32_t resolve(std::uint32_t id) {
    while (alias[id] != id) {
      alias[id] = alias[alias[id]];  // path halving
      id = alias[id];
    }
    return id;
  }

  /// Depth-first walk over the items reachable from the root through
  /// resolved edges; `visit(id)` runs once per item.
  template <typename Visit>
  void walk(const Visit& visit) {
    stamp.resize(items.size(), 0);
    ++epoch;
    stack.assign(1, resolve(root));
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      stack.pop_back();
      if (stamp[id] == epoch) continue;
      stamp[id] = epoch;
      visit(id);
      for (const std::uint32_t child : items[id].children) {
        stack.push_back(resolve(child));
      }
    }
  }

  /// Number of items reachable from the root through resolved edges.
  [[nodiscard]] std::size_t reachable_count() {
    std::size_t count = 0;
    walk([&count](std::uint32_t) { ++count; });
    return count;
  }
};

Ir build_ir(const fta::FaultTree& tree) {
  Ir ir;
  ir.items.reserve(tree.node_count());
  ir.alias.reserve(tree.node_count());
  for (fta::NodeId id = 0; id < tree.node_count(); ++id) {
    Item item;
    switch (tree.kind(id)) {
      case fta::NodeKind::kBasicEvent:
        item.kind = ItemKind::kBasic;
        item.ordinal = tree.basic_event_ordinal(id);
        break;
      case fta::NodeKind::kCondition:
        item.kind = ItemKind::kCondition;
        item.ordinal = tree.condition_ordinal(id);
        break;
      case fta::NodeKind::kGate:
        item.kind = ItemKind::kGate;
        item.gate = tree.gate_type(id);
        if (item.gate == fta::GateType::kKofN) item.k = tree.vote_threshold(id);
        item.children.assign(tree.children(id).begin(),
                             tree.children(id).end());
        break;
    }
    ir.add(std::move(item));
  }
  ir.root = tree.top();
  return ir;
}

[[nodiscard]] bool is_constant(const Item& item) {
  return item.kind == ItemKind::kTrue || item.kind == ItemKind::kFalse;
}

std::uint32_t constant(Ir& ir, bool value) {
  Item item;
  item.kind = value ? ItemKind::kTrue : ItemKind::kFalse;
  return ir.add(std::move(item));
}

// ------------------------------------------------ redundancy/constants
//
// Bottom-up: duplicate AND/OR children collapse to the first occurrence,
// single-child AND/OR/XOR gates alias to their child, degenerate k-of-n
// becomes AND or OR, and TRUE/FALSE children short-circuit. INHIBIT is
// opaque (its condition leaf must stay under it — a validate() invariant).
// Every rewrite keeps the first DFS visit of every remaining leaf in place,
// which is what makes the pass bitwise probability-preserving.
PassStats run_propagate(Ir& ir, std::size_t nodes_before) {
  PassStats stats{.name = "propagate", .nodes_before = nodes_before};
  // The gate's resolved children and the ones a rule keeps. An item's own
  // list changes only when the gate survives, so an aliased gate keeps the
  // list it had.
  std::vector<std::uint32_t> children;
  std::vector<std::uint32_t> kept;
  for (std::uint32_t id = 0; id < ir.items.size(); ++id) {
    Item& item = ir.items[id];
    if (item.kind != ItemKind::kGate ||
        item.gate == fta::GateType::kInhibit) {
      continue;
    }
    children.clear();
    for (const std::uint32_t child : item.children) {
      children.push_back(ir.resolve(child));
    }

    if (item.gate == fta::GateType::kKofN) {
      // Fold constants into the threshold, then degrade to AND/OR.
      kept.clear();
      std::int64_t k = item.k;
      for (const std::uint32_t child : children) {
        if (ir.items[child].kind == ItemKind::kTrue) {
          --k;
          ++stats.rewrites;
        } else if (ir.items[child].kind == ItemKind::kFalse) {
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
        item.gate = fta::GateType::kAnd;
        item.k = 0;
        ++stats.rewrites;
      } else if (k == 1) {
        item.gate = fta::GateType::kOr;
        item.k = 0;
        ++stats.rewrites;
      } else {
        item.k = static_cast<std::uint32_t>(k);
        item.children.assign(children.begin(), children.end());
        continue;
      }
    }

    if (item.gate == fta::GateType::kAnd || item.gate == fta::GateType::kOr) {
      const bool is_and = item.gate == fta::GateType::kAnd;
      kept.clear();
      bool short_circuit = false;
      for (const std::uint32_t child : children) {
        const Item& c = ir.items[child];
        if (is_constant(c)) {
          // AND absorbs TRUE / dies on FALSE; OR dually.
          if ((c.kind == ItemKind::kFalse) == is_and) short_circuit = true;
          ++stats.rewrites;
          continue;
        }
        if (std::find(kept.begin(), kept.end(), child) != kept.end()) {
          ++stats.rewrites;  // idempotence: x AND x = x OR x = x
          continue;
        }
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
    } else if (item.gate == fta::GateType::kXor) {
      // exactly-one: FALSE children are inert; anything stronger (a TRUE
      // child forces all siblings false) needs negation we cannot express.
      std::erase_if(children, [&](std::uint32_t child) {
        const bool drop = ir.items[child].kind == ItemKind::kFalse;
        if (drop) ++stats.rewrites;
        return drop;
      });
      if (children.empty()) {
        ir.alias[id] = constant(ir, false);
        ++stats.rewrites;
        continue;
      }
    }

    if (children.size() == 1 && item.gate != fta::GateType::kKofN) {
      ir.alias[id] = children.front();
      ++stats.rewrites;
      continue;
    }
    // Never longer than the list it replaces, so it fits in place.
    item.children.assign(children.begin(), children.end());
  }
  ir.root = ir.resolve(ir.root);
  stats.nodes_after = ir.reachable_count();
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
PassStats run_normalize(Ir& ir, std::size_t nodes_before) {
  PassStats stats{.name = "normalize", .nodes_before = nodes_before};
  // Per-vote scratch: the resolved children and the ge(i, j) memo.
  std::vector<std::uint32_t> children;
  std::vector<std::uint32_t> memo;
  const auto gate_count = static_cast<std::uint32_t>(ir.items.size());
  for (std::uint32_t id = 0; id < gate_count; ++id) {
    if (ir.items[id].kind != ItemKind::kGate ||
        ir.items[id].gate != fta::GateType::kKofN) {
      continue;
    }
    children.clear();
    for (const std::uint32_t child : ir.items[id].children) {
      children.push_back(ir.resolve(child));
    }
    const std::uint32_t n = static_cast<std::uint32_t>(children.size());
    const std::uint32_t k = ir.items[id].k;
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
      Item gate;
      gate.kind = ItemKind::kGate;
      if (j == 1) {
        gate.gate = fta::GateType::kOr;
        gate.children.assign(children.begin() + i, children.end());
      } else if (j == n - i) {
        gate.gate = fta::GateType::kAnd;
        gate.children.assign(children.begin() + i, children.end());
      } else {
        Item take;
        take.kind = ItemKind::kGate;
        take.gate = fta::GateType::kAnd;
        take.children = {children[i], self(self, i + 1, j - 1)};
        const std::uint32_t take_id = ir.add(std::move(take));
        gate.gate = fta::GateType::kOr;
        gate.children = {take_id, self(self, i + 1, j)};
      }
      slot = ir.add(std::move(gate));
      return slot;
    };
    ir.alias[id] = ge(ge, 0, k);
    ++stats.rewrites;
  }
  ir.root = ir.resolve(ir.root);
  stats.nodes_after = ir.reachable_count();
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
PassStats run_flatten(Ir& ir, std::size_t nodes_before) {
  PassStats stats{.name = "flatten", .nodes_before = nodes_before};
  // Reference counts over the resolved, reachable graph only.
  std::vector<std::uint32_t> refs(ir.items.size(), 0);
  ir.walk([&](std::uint32_t id) {
    for (const std::uint32_t raw : ir.items[id].children) {
      ++refs[ir.resolve(raw)];
    }
  });
  std::vector<std::uint32_t> flat;
  for (std::uint32_t id = 0; id < ir.items.size(); ++id) {
    Item& item = ir.items[id];
    if (item.kind != ItemKind::kGate) continue;
    if (item.gate != fta::GateType::kAnd && item.gate != fta::GateType::kOr) {
      continue;
    }
    flat.clear();
    for (const std::uint32_t raw : item.children) {
      const std::uint32_t child = ir.resolve(raw);
      const Item& c = ir.items[child];
      if (c.kind == ItemKind::kGate && c.gate == item.gate &&
          refs[child] == 1) {
        for (const std::uint32_t grand : c.children) {
          flat.push_back(ir.resolve(grand));
        }
        ++stats.rewrites;
      } else {
        flat.push_back(child);
      }
    }
    item.children.assign(flat.begin(), flat.end());
  }
  ir.root = ir.resolve(ir.root);
  stats.nodes_after = ir.reachable_count();
  return stats;
}

// ---------------------------------------------- common-argument merging
//
// Structural hash-consing: two gates with the same type, threshold and
// child *list* become one node. Equal-as-sets-but-differently-ordered
// gates are deliberately NOT merged — reordering children would permute
// the DFS leaf first-visit order and break the bitwise-parity guarantee.
PassStats run_merge(Ir& ir, std::size_t nodes_before) {
  PassStats stats{.name = "merge", .nodes_before = nodes_before};
  // The table holds item ids keyed by (type, threshold, child list) as the
  // item stands when it is filed. The sweep never revisits a filed item, so
  // the key read back later is the key that was filed. The table is only
  // probed: the first gate of each key wins, in id order. Open addressing
  // with linear probing, at most half full (no pass adds items here).
  const auto key_hash = [&ir](std::uint32_t id) {
    const Item& item = ir.items[id];
    std::size_t h = (static_cast<std::size_t>(item.gate) << 32) ^ item.k;
    for (const std::uint32_t child : item.children) {
      h ^= child + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  };
  const auto key_equal = [&ir](std::uint32_t a, std::uint32_t b) {
    const Item& x = ir.items[a];
    const Item& y = ir.items[b];
    return x.gate == y.gate && x.k == y.k && x.children == y.children;
  };
  constexpr std::uint32_t kEmpty = UINT32_MAX;
  int bits = 4;
  while ((std::size_t{1} << bits) < 2 * ir.items.size()) ++bits;
  std::vector<std::uint32_t> canonical(std::size_t{1} << bits, kEmpty);
  const std::size_t mask = canonical.size() - 1;
  for (std::uint32_t id = 0; id < ir.items.size(); ++id) {
    Item& item = ir.items[id];
    if (item.kind != ItemKind::kGate) continue;
    for (std::uint32_t& child : item.children) child = ir.resolve(child);
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
  ir.root = ir.resolve(ir.root);
  stats.nodes_after = ir.reachable_count();
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
  std::vector<bool> is_module;           // by item id
  std::vector<std::size_t> leaf_refs;    // DAG leaf-reference weight
};

ModuleScan scan_modules(Ir& ir) {
  const std::size_t n = ir.items.size();
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
  touch(ir.resolve(ir.root));
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const Item& item = ir.items[frame.id];
    if (frame.next_child < item.children.size()) {
      const std::uint32_t child =
          ir.resolve(item.children[frame.next_child++]);
      touch(child);
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
    const Item& item = ir.items[id];
    if (item.kind != ItemKind::kGate) {
      scan.leaf_refs[id] = is_constant(item) ? 0 : 1;
      continue;
    }
    std::size_t refs = 0;
    for (const std::uint32_t raw : item.children) {
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

/// Which item became which node of the graph being built: node_of[id] is
/// valid only where stamp[id] is the current subtree's stamp, so one pair of
/// vectors serves every subtree without clearing. `operands` holds the
/// child nodes of every gate on the build path, innermost gate last.
/// `subtree` is the one being built: it keeps its capacity from module to
/// module, and each finished module is copied out at its exact size.
struct BuildScratch {
  explicit BuildScratch(std::size_t items) : node_of(items), stamp(items, 0) {}

  std::vector<std::uint32_t> node_of;
  std::vector<std::uint32_t> stamp;
  std::uint32_t current = 0;
  std::vector<std::uint32_t> operands;
  Subtree subtree;
};

/// Builds the anonymous gate graph for the subtree rooted at `start`,
/// stopping at chosen module boundaries (they become pseudo-leaf basic
/// events). Leaves are created at their DFS first visit and gates after
/// their children, so leaf ordinal order *is* DFS order — the BDD variable
/// order.
Subtree build_subtree(Ir& ir, std::uint32_t start,
                      const std::vector<std::int64_t>& module_of,
                      BuildScratch& scratch) {
  Subtree& subtree = scratch.subtree;
  bdd::GateGraph& graph = subtree.graph;
  graph.nodes.clear();
  graph.children.clear();
  graph.basic_event_count = 0;
  graph.condition_count = 0;
  subtree.basic_origin.clear();
  subtree.condition_origin.clear();
  const std::uint32_t stamp = ++scratch.current;
  const auto build = [&](auto&& self, std::uint32_t id) -> std::uint32_t {
    if (scratch.stamp[id] == stamp) return scratch.node_of[id];
    const Item& item = ir.items[id];
    std::uint32_t node = 0;
    if (id != start && module_of[id] >= 0) {
      node = graph.add_leaf(fta::NodeKind::kBasicEvent);
      subtree.basic_origin.push_back(
          {LeafOrigin::Kind::kModule,
           static_cast<std::uint32_t>(module_of[id])});
    } else {
      switch (item.kind) {
        case ItemKind::kBasic:
          node = graph.add_leaf(fta::NodeKind::kBasicEvent);
          subtree.basic_origin.push_back(
              {LeafOrigin::Kind::kBasicEvent, item.ordinal});
          break;
        case ItemKind::kCondition:
          node = graph.add_leaf(fta::NodeKind::kCondition);
          subtree.condition_origin.push_back(item.ordinal);
          break;
        case ItemKind::kTrue:
        case ItemKind::kFalse:
          // Constants reaching the rebuild would need TRUE/FALSE leaves the
          // gate graph does not have. Constant-free inputs never get here:
          // propagate() folds every constant a pass introduces.
          SAFEOPT_ASSERT(false && "unfolded constant survived preprocessing");
          break;
        case ItemKind::kGate: {
          const std::size_t base = scratch.operands.size();
          for (const std::uint32_t raw : item.children) {
            const std::uint32_t child = self(self, ir.resolve(raw));
            scratch.operands.push_back(child);
          }
          SAFEOPT_ASSERT(item.gate != fta::GateType::kInhibit ||
                         scratch.operands.size() - base == 2);
          node = graph.add_gate(
              item.gate, item.gate == fta::GateType::kKofN ? item.k : 0,
              std::span<const std::uint32_t>(scratch.operands).subspan(base));
          scratch.operands.resize(base);
          break;
        }
      }
    }
    scratch.stamp[id] = stamp;
    scratch.node_of[id] = node;
    return node;
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
  // Nothing touches the IR between passes, so each pass's nodes_before is
  // the previous pass's nodes_after: one reachability walk per boundary.
  std::size_t reachable = ir.reachable_count();
  const auto run = [&](bool enabled, PassStats (*pass)(Ir&, std::size_t)) {
    checkpoint();
    if (!enabled) return;
    result.statistics.passes.push_back(pass(ir, reachable));
    reachable = result.statistics.passes.back().nodes_after;
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
  std::vector<std::int64_t> module_of(ir.items.size(), -1);
  BuildScratch scratch(ir.items.size());
  const std::uint32_t root = ir.resolve(ir.root);
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

  const bdd::GateGraph& top = result.subtrees.back().graph;
  result.statistics.events_after =
      top.basic_event_count + top.condition_count;
  for (const Subtree& subtree : result.subtrees) {
    result.statistics.gates_after += subtree.graph.gate_count();
  }
  return result;
}

fta::QuantificationInput PreprocessedTree::input_for(
    std::size_t index, const fta::QuantificationInput& original,
    const std::vector<double>& module_probability) const {
  SAFEOPT_EXPECTS(index < subtrees.size());
  const Subtree& subtree = subtrees[index];
  fta::QuantificationInput input;
  input.basic_event_probability.reserve(subtree.basic_origin.size());
  for (const LeafOrigin& origin : subtree.basic_origin) {
    switch (origin.kind) {
      case LeafOrigin::Kind::kBasicEvent:
        input.basic_event_probability.push_back(
            original.basic_event_probability[origin.index]);
        break;
      case LeafOrigin::Kind::kModule:
        SAFEOPT_EXPECTS(origin.index < module_probability.size());
        input.basic_event_probability.push_back(
            module_probability[origin.index]);
        break;
      case LeafOrigin::Kind::kCondition:
        SAFEOPT_ASSERT(false && "condition origin on a basic-event leaf");
        break;
    }
  }
  input.condition_probability.reserve(subtree.condition_origin.size());
  for (const std::uint32_t ordinal : subtree.condition_origin) {
    input.condition_probability.push_back(
        original.condition_probability[ordinal]);
  }
  return input;
}

CompiledPreprocessedTree::CompiledPreprocessedTree(
    const PreprocessedTree& preprocessed, const bdd::BddOptions& options)
    : preprocessed_(&preprocessed) {
  const std::size_t count = preprocessed.subtrees.size();
  const std::size_t budget = options.node_budget;
  const auto budget_exceeded = [&](std::size_t compiled) {
    return Error(ErrorCategory::kResourceExhausted,
                 concat("BDD node budget exceeded: more than ",
                        std::to_string(budget), " decision nodes in the first ",
                        std::to_string(compiled), " of ", std::to_string(count),
                        " module diagrams"));
  };
  compiled_.reserve(count);
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
    try {
      compiled_.push_back(bdd::compile(subtree.graph, scaled));
    } catch (const Error& error) {
      if (error.category() != ErrorCategory::kResourceExhausted) throw;
      throw budget_exceeded(i + 1);
    }
    const bdd::BddStatistics& stats =
        compiled_.back().manager.statistics();
    statistics_.decision_nodes += stats.decision_node_count();
    statistics_.ite_calls += stats.ite_calls;
    statistics_.cache_hits += stats.cache_hits;
    statistics_.cache_evictions += stats.cache_evictions;
    if (budget != 0 && statistics_.decision_nodes > budget) {
      throw budget_exceeded(i + 1);
    }
  }
}

double CompiledPreprocessedTree::probability(
    const fta::QuantificationInput& input) const {
  std::vector<double> module_probability;
  module_probability.reserve(compiled_.size());
  double probability = 0.0;
  for (std::size_t i = 0; i < compiled_.size(); ++i) {
    probability = compiled_[i].probability(
        preprocessed_->input_for(i, input, module_probability));
    module_probability.push_back(probability);
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
