// Reduced ordered binary decision diagrams (ROBDDs) for exact fault-tree
// analysis. Complements the cut-set engine of src/fta:
//
//   * exact top-event probability by Shannon decomposition — no rare-event
//     approximation, no inclusion-exclusion blow-up (linear in BDD nodes);
//   * minimal cut sets by Rauzy's decomposition, independent of MOCUS (each
//     validates the other in the test suite);
//   * scales to trees whose MOCUS expansion would be infeasible (the
//     `mcs_algorithms` ablation bench measures the crossover).
//
// The manager owns a unique table (hash-consing guarantees canonicity: two
// equivalent functions share one node) and a direct-mapped ITE result cache
// whose geometry is tunable through BddOptions. The unique table is open
// addressing over node indices in one flat array, so creating a node
// allocates nothing beyond the node vector's own growth. Functions are
// referenced by index; no reference counting or garbage collection is
// performed — managers are intended to live for one analysis, so *live*
// node counts equal *peak* node counts (BddStatistics documents and asserts
// that invariant).
//
// compile() has one input form, fta::GateGraph, the layout every fault tree
// stores its structure in: the fault-tree overload compiles tree.graph()
// in place, and prep's modules are graphs of their own. So there is exactly
// one compile routine.
#ifndef SAFEOPT_BDD_BDD_H
#define SAFEOPT_BDD_BDD_H

#include <cstdint>
#include <span>
#include <vector>

#include "safeopt/fta/cut_sets.h"
#include "safeopt/fta/fault_tree.h"
#include "safeopt/fta/probability.h"

namespace safeopt {
class ExecutionControl;  // support/execution.h
}

namespace safeopt::bdd {

/// Index of a BDD node within its manager. 0 and 1 are the terminals.
using BddRef = std::uint32_t;

inline constexpr BddRef kFalse = 0;
inline constexpr BddRef kTrue = 1;

/// Tuning knobs for one BddManager / one compile() call.
struct BddOptions {
  /// Slots reserved up front in the unique (hash-consing) table, an
  /// open-addressing table kept at most half full; rounded up to a power
  /// of two (at least 16). Sized to the expected node count it avoids
  /// rehash stalls on big trees; results are identical at any size.
  std::size_t initial_table_size = 1u << 12;
  /// Entries in the direct-mapped ITE result cache; rounded up to a power
  /// of two. Bigger caches trade memory for fewer recomputations — results
  /// are bitwise identical at any size (ITE is deterministic; the cache
  /// only memoizes).
  std::size_t cache_size = 1u << 16;
  /// Maximum unique *decision* nodes the manager may create; exceeding it
  /// throws Error(kResourceExhausted) from the allocating operation, with
  /// the partial counters in the message and the manager still consistent
  /// (statistics() remains valid). 0 = unlimited.
  std::size_t node_budget = 0;
  /// Cooperative deadline/cancellation, polled every ~1k ITE calls and at
  /// every gate during compile(); an abort throws Error(kDeadlineExceeded /
  /// kCancelled). Not owned; must outlive the manager's operations.
  /// compile() bounds only itself: the manager it returns holds no control.
  /// nullptr = unbounded.
  const ExecutionControl* control = nullptr;
};

/// BDD node and operation counters for the ablation benches.
///
/// Invariants (asserted by the manager): `node_count` counts *unique nodes
/// ever created including the 2 terminals*, so `node_count >= 2` always and
/// `decision_node_count() == node_count - 2`. Because the manager performs
/// no garbage collection, live nodes equal peak nodes: `peak_node_count ==
/// node_count`. Bench gates that aggregate across managers (per-module
/// compilation) must sum `decision_node_count()` so terminals are not
/// counted once per manager — that is the "live vs peak, like with like"
/// contract of BENCH_large_trees.json.
struct BddStatistics {
  std::size_t node_count = 0;       // live unique nodes incl. 2 terminals
  std::size_t peak_node_count = 0;  // high-water mark; == node_count (no GC)
  std::size_t ite_calls = 0;        // total ITE invocations
  std::size_t cache_hits = 0;       // ITE results served from cache
  std::size_t cache_evictions = 0;  // direct-mapped slots overwritten
  std::size_t cache_slots = 0;      // configured ITE cache geometry

  /// Unique decision (non-terminal) nodes — the machine-independent size
  /// measure the large-tree bench gates on.
  [[nodiscard]] std::size_t decision_node_count() const noexcept {
    return node_count >= 2 ? node_count - 2 : 0;
  }
};

class BddManager {
 public:
  /// Creates a manager for `variable_count` variables; variable i is tested
  /// before variable j iff i < j (the order is fixed at construction).
  /// Delegates to the BddOptions overload with default geometry.
  explicit BddManager(std::uint32_t variable_count);

  /// Creates a manager with explicit table/cache geometry.
  BddManager(std::uint32_t variable_count, const BddOptions& options);

  [[nodiscard]] std::uint32_t variable_count() const noexcept {
    return variable_count_;
  }

  /// The projection function x_var.
  [[nodiscard]] BddRef variable(std::uint32_t var);

  // Boolean operations (memoized, canonical).
  [[nodiscard]] BddRef ite(BddRef f, BddRef g, BddRef h);
  [[nodiscard]] BddRef apply_and(BddRef f, BddRef g);
  [[nodiscard]] BddRef apply_or(BddRef f, BddRef g);
  [[nodiscard]] BddRef apply_xor(BddRef f, BddRef g);
  [[nodiscard]] BddRef apply_not(BddRef f);
  /// At least `k` of `items` true.
  [[nodiscard]] BddRef at_least(std::span<const BddRef> items,
                                std::uint32_t k);

  /// Evaluates f under a full variable assignment.
  [[nodiscard]] bool evaluate(BddRef f,
                              const std::vector<bool>& assignment) const;

  /// Working memory of probability(): one memo entry and one done flag per
  /// node. The caller owns it, so calls that share one (sized once for the
  /// largest manager they serve) allocate nothing; probability() grows it
  /// when it is too small.
  struct ProbabilityScratch {
    std::vector<double> memo;
    std::vector<unsigned char> done;
  };

  /// Exact P(f = 1) given independent per-variable probabilities
  /// (probabilities.size() == variable_count()). Linear in node count;
  /// the memo is per call, so concurrent calls are safe.
  [[nodiscard]] double probability(
      BddRef f, const std::vector<double>& probabilities) const;

  /// probability() over caller-owned working memory. Concurrent calls are
  /// safe as long as each has its own scratch.
  [[nodiscard]] double probability(BddRef f,
                                   std::span<const double> probabilities,
                                   ProbabilityScratch& scratch) const;

  /// Replaces the control later operations poll (nullptr = unbounded).
  void set_control(const ExecutionControl* control) noexcept {
    control_ = control;
  }

  /// Number of unique nodes reachable from f (including terminals).
  [[nodiscard]] std::size_t size(BddRef f) const;

  /// Counter snapshot. Asserts the documented no-GC invariant
  /// (peak_node_count == node_count, both including the 2 terminals).
  [[nodiscard]] const BddStatistics& statistics() const noexcept;

  /// Structural access for algorithms layered on top (Rauzy MCS).
  [[nodiscard]] std::uint32_t node_var(BddRef f) const;
  [[nodiscard]] BddRef node_low(BddRef f) const;
  [[nodiscard]] BddRef node_high(BddRef f) const;
  [[nodiscard]] bool is_terminal(BddRef f) const noexcept {
    return f <= kTrue;
  }

 private:
  struct Node {
    std::uint32_t var;
    BddRef low;
    BddRef high;
  };
  struct NodeKey {
    std::uint32_t var;
    BddRef low;
    BddRef high;
  };
  struct NodeKeyHash {
    std::size_t operator()(const NodeKey& k) const noexcept;
  };
  /// One direct-mapped ITE cache slot; kEmpty marks a never-written slot
  /// (no valid BddRef is UINT32_MAX — the node vector cannot grow there).
  struct IteSlot {
    static constexpr BddRef kEmpty = UINT32_MAX;
    BddRef f = kEmpty;
    BddRef g = 0;
    BddRef h = 0;
    BddRef result = 0;
  };

  /// Hash-consing constructor: returns the canonical node for (var,low,high).
  [[nodiscard]] BddRef make_node(std::uint32_t var, BddRef low, BddRef high);
  /// Doubles the unique table and refiles every decision node.
  void grow_unique_table();
  [[nodiscard]] std::uint32_t top_var(BddRef f, BddRef g, BddRef h) const;
  /// Cofactor of f with respect to var = value.
  [[nodiscard]] BddRef cofactor(BddRef f, std::uint32_t var, bool value) const;

  std::uint32_t variable_count_;
  std::vector<Node> nodes_;
  /// Open addressing with linear probing over node indices; kFalse marks
  /// an empty slot (terminals are never filed). Size is a power of two.
  std::vector<BddRef> unique_table_;
  std::vector<IteSlot> ite_cache_;
  std::size_t ite_mask_ = 0;
  std::size_t node_budget_ = 0;               // decision nodes; 0 = unlimited
  const ExecutionControl* control_ = nullptr;  // not owned
  BddStatistics stats_;
};

/// A fault tree compiled to a BDD: the manager, the root function, and the
/// mapping from tree leaves to BDD variables (DFS first-visit order from the
/// top event).
struct CompiledFaultTree {
  BddManager manager;
  BddRef root = kFalse;
  std::uint32_t basic_event_count = 0;
  std::uint32_t condition_count = 0;
  /// BDD variable index of each basic event, by BasicEventOrdinal.
  std::vector<std::uint32_t> var_of_basic_event;
  /// BDD variable index of each condition, by ConditionOrdinal.
  std::vector<std::uint32_t> var_of_condition;

  /// Exact top-event probability under a QuantificationInput — the
  /// no-approximation counterpart of fta::top_event_probability.
  [[nodiscard]] double probability(
      const fta::QuantificationInput& input) const;
};

/// Compiles the graph bottom-up from `graph.top` under `options`
/// (table/cache geometry, node budget, control). Leaves are numbered as BDD
/// variables in DFS first-visit order from the top event, which keeps
/// structurally related leaves adjacent; the order is structural (no
/// dynamic reordering), so compilation is deterministic. XOR gates compile
/// exactly (true XOR, not the coherent hull).
[[nodiscard]] CompiledFaultTree compile(const fta::GateGraph& graph,
                                        const BddOptions& options = {});

/// compile(tree.graph(), options): the tree's own graph, not a copy.
/// Precondition: tree.has_top().
[[nodiscard]] CompiledFaultTree compile(const fta::FaultTree& tree,
                                        const BddOptions& options = {});

/// Minimal cut sets via Rauzy's BDD decomposition. Requires a *coherent*
/// tree (no XOR gates): for non-coherent functions prime implicants with
/// negated literals exist, which CutSet cannot represent.
/// Agrees with fta::minimal_cut_sets on every coherent tree.
[[nodiscard]] fta::CutSetCollection minimal_cut_sets_bdd(
    const fta::FaultTree& tree);

}  // namespace safeopt::bdd

#endif  // SAFEOPT_BDD_BDD_H
