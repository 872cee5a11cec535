// Fault tree object model (paper §II).
//
// A fault tree is a rooted DAG. The root is the *hazard* (top event), inner
// nodes are *gates* over intermediate events, and leaves are either
//   * basic events — the "primary failures" PF_i of the paper, or
//   * conditions   — environmental constraints attached to INHIBIT gates
//                    (paper §II-D.1: "this condition must not be a failure").
// Keeping conditions as a distinct leaf kind is what lets the quantification
// layer implement the paper's Eq. 2, P(CS) = P(Constraints)·∏ P(PF), with the
// constraint factor separated from the failure factors.
//
// Supported gates: AND, OR, k-of-n (VOTE), XOR, INHIBIT. NOT is deliberately
// unsupported: the cut-set machinery assumes coherent trees, as does the
// paper. XOR is expanded to OR for cut-set purposes (the coherent hull),
// which is the standard conservative treatment.
//
// Nodes are created bottom-up (children must exist before their parent),
// which makes the structure acyclic by construction while still allowing
// shared subtrees (repeated events), the case where minimal-cut-set
// *minimization* actually matters.
//
// The structure is stored once, as a GateGraph: node kinds, gate types and
// thresholds, leaf ordinals, and every gate's children as one run of a
// shared child array. The same layout serves the whole exact path: prep
// copies a tree's graph and edits the copy, and bdd::compile reads a graph
// directly. Names and descriptions sit beside the graph in FaultTree, in a
// side table by NodeId.
//
// Names live only where a user wrote them. A node added with a non-empty
// name is found by find() and its name is unique in the tree. A node added
// with an empty name is anonymous: find() never returns it and node_name()
// is empty. Analyses read the graph, never names, so library-built trees
// (the dual tree of minimal_path_sets) are anonymous; ftio documents are
// always fully named.
#ifndef SAFEOPT_FTA_FAULT_TREE_H
#define SAFEOPT_FTA_FAULT_TREE_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "safeopt/support/name_index.h"

namespace safeopt::fta {

/// Index of a node within its FaultTree. Stable for the tree's lifetime.
using NodeId = std::uint32_t;

/// Dense index over the tree's basic events, in creation order. Quantitative
/// inputs (probabilities, Monte Carlo states) are vectors over this ordinal.
using BasicEventOrdinal = std::uint32_t;

/// Dense index over the tree's conditions, in creation order.
using ConditionOrdinal = std::uint32_t;

enum class NodeKind : std::uint8_t { kBasicEvent, kCondition, kGate };

enum class GateType : std::uint8_t { kAnd, kOr, kKofN, kXor, kInhibit };

/// Returns "AND", "OR", "KOFN", "XOR" or "INHIBIT".
[[nodiscard]] std::string_view to_string(GateType type) noexcept;

/// The flat, anonymous structure of a fault tree. Node ids are indices
/// into `nodes`; a gate's children are the run
/// `children[first_child, first_child + child_count)`, in the order they
/// were given. Leaf ordinals count the graph's own basic events and
/// conditions in creation order. A gate with no children is a constant:
/// AND() is true and OR() is false (FaultTree never makes one; prep's
/// constant propagation does).
struct GateGraph {
  struct Node {
    NodeKind kind = NodeKind::kBasicEvent;
    GateType gate = GateType::kAnd;
    std::uint32_t k = 0;            // vote threshold for kKofN
    std::uint32_t ordinal = 0;      // leaf ordinal (basic events, conditions)
    std::uint32_t first_child = 0;  // gates: offset into `children`
    std::uint32_t child_count = 0;
  };

  /// `top` of a graph whose top event is not set yet.
  static constexpr NodeId kNoTop = UINT32_MAX;

  std::vector<Node> nodes;
  std::vector<NodeId> children;
  NodeId top = kNoTop;
  std::uint32_t basic_event_count = 0;
  std::uint32_t condition_count = 0;

  /// Appends a basic event or condition leaf and returns its id.
  NodeId add_leaf(NodeKind kind);
  /// Appends a gate over `gate_children` (ids already in the graph) as a
  /// new run at the end of `children`, and returns its id.
  NodeId add_gate(GateType type, std::uint32_t k,
                  std::span<const NodeId> gate_children);

  [[nodiscard]] std::span<const NodeId> children_of(NodeId id) const {
    const Node& node = nodes[id];
    return {children.data() + node.first_child, node.child_count};
  }
  [[nodiscard]] std::size_t gate_count() const noexcept {
    return nodes.size() - basic_event_count - condition_count;
  }

  /// The structure function at `top` under a leaf truth assignment
  /// (`basic_state` by basic-event ordinal, `condition_state` by condition
  /// ordinal). XOR is exactly-one. `memo` is caller-owned working memory of
  /// one entry per node, reset by the call, so a caller that evaluates many
  /// assignments allocates nothing per call.
  /// Preconditions: top < nodes.size(), memo.size() == nodes.size().
  [[nodiscard]] bool evaluate(const std::vector<bool>& basic_state,
                              const std::vector<bool>& condition_state,
                              std::span<signed char> memo) const;
};

class FaultTree {
 public:
  /// Creates an empty tree. `name` identifies the modelled hazard context in
  /// reports (e.g. "Collision").
  explicit FaultTree(std::string name);

  // ---- construction (bottom-up) -------------------------------------------

  /// Reserves room for this many basic events, conditions and gates (and
  /// their names) and for `child_references` entries of the gates' child
  /// lists, so building a tree of known size reallocates nothing on the way.
  void reserve(std::size_t basic_events, std::size_t conditions,
               std::size_t gates, std::size_t child_references);

  /// Adds a primary failure leaf. A non-empty name must be unique within the
  /// tree; an empty one makes the node anonymous (see the file comment).
  NodeId add_basic_event(std::string name, std::string description = {});

  /// Adds an environmental-condition leaf for use under INHIBIT gates.
  NodeId add_condition(std::string name, std::string description = {});

  /// Adds a gate of `type` over `children` (ids already in the tree), copied
  /// into the graph's child array as one run; the add_* helpers below all
  /// come here. Preconditions: children is non-empty; for kKofN
  /// 1 <= k <= children.size(), otherwise k == 0; INHIBIT takes exactly
  /// {cause, condition} with a kCondition leaf second.
  NodeId add_gate(std::string name, GateType type, std::uint32_t k,
                  std::span<const NodeId> children);

  /// Adds an AND gate over >= 1 children.
  NodeId add_and(std::string name, std::vector<NodeId> children);

  /// Adds an OR gate over >= 1 children.
  NodeId add_or(std::string name, std::vector<NodeId> children);

  /// Adds a k-of-n voting gate: true iff at least `k` children are true.
  /// Precondition: 1 <= k <= children.size().
  NodeId add_k_of_n(std::string name, std::uint32_t k,
                    std::vector<NodeId> children);

  /// Adds an XOR gate: true iff exactly one child is true.
  NodeId add_xor(std::string name, std::vector<NodeId> children);

  /// Adds an INHIBIT gate: `cause` propagates only while `condition` holds.
  /// Precondition: `condition` refers to a kCondition leaf.
  NodeId add_inhibit(std::string name, NodeId cause, NodeId condition);

  /// Declares the hazard / top event. Must be called exactly once before any
  /// analysis. Precondition: `top` is a gate or basic event of this tree.
  void set_top(NodeId top);

  // ---- structural queries --------------------------------------------------

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool has_top() const noexcept {
    return graph_.top != GateGraph::kNoTop;
  }
  /// Precondition: has_top().
  [[nodiscard]] NodeId top() const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return graph_.nodes.size();
  }
  [[nodiscard]] std::size_t basic_event_count() const noexcept {
    return basic_events_.size();
  }
  [[nodiscard]] std::size_t condition_count() const noexcept {
    return conditions_.size();
  }
  [[nodiscard]] std::size_t gate_count() const noexcept {
    return graph_.gate_count();
  }

  /// The tree's structure: node ids, kinds, gates, thresholds, leaf
  /// ordinals and children are the ones the queries below report.
  [[nodiscard]] const GateGraph& graph() const noexcept { return graph_; }

  [[nodiscard]] NodeKind kind(NodeId id) const;
  /// The node's name; empty for an anonymous node.
  [[nodiscard]] const std::string& node_name(NodeId id) const;
  [[nodiscard]] const std::string& description(NodeId id) const;
  /// Precondition: kind(id) == kGate.
  [[nodiscard]] GateType gate_type(NodeId id) const;
  /// Precondition: kind(id) == kGate. For INHIBIT the children are
  /// {cause, condition} in that order.
  [[nodiscard]] std::span<const NodeId> children(NodeId id) const;
  /// Precondition: gate_type(id) == kKofN.
  [[nodiscard]] std::uint32_t vote_threshold(NodeId id) const;

  /// NodeId for `name`, or nullopt if no node has that name. Anonymous
  /// nodes are never found, so find("") is always nullopt.
  [[nodiscard]] std::optional<NodeId> find(std::string_view name) const;

  /// Basic-event NodeIds in ordinal (creation) order.
  [[nodiscard]] std::span<const NodeId> basic_events() const noexcept {
    return basic_events_;
  }
  /// Condition NodeIds in ordinal (creation) order.
  [[nodiscard]] std::span<const NodeId> conditions() const noexcept {
    return conditions_;
  }
  /// O(1): the ordinal is stored on the leaf when it is added.
  /// Precondition: kind(id) == kBasicEvent.
  [[nodiscard]] BasicEventOrdinal basic_event_ordinal(NodeId id) const;
  /// O(1). Precondition: kind(id) == kCondition.
  [[nodiscard]] ConditionOrdinal condition_ordinal(NodeId id) const;

  // ---- semantics -----------------------------------------------------------

  /// Evaluates the structure function: does the hazard occur under the given
  /// leaf truth assignment? `basic_state` is indexed by BasicEventOrdinal,
  /// `condition_state` by ConditionOrdinal; both must cover every leaf.
  /// The convenience for single evaluations: it allocates its own memo (a
  /// sampling loop calls graph().evaluate with one memo it reuses).
  /// Precondition: has_top().
  [[nodiscard]] bool evaluate(const std::vector<bool>& basic_state,
                              const std::vector<bool>& condition_state) const;

  /// Convenience overload for trees without conditions.
  [[nodiscard]] bool evaluate(const std::vector<bool>& basic_state) const;

  /// Checks well-formedness beyond what construction enforces: a top event is
  /// set, every node is reachable from it, INHIBIT conditions are condition
  /// leaves and conditions appear only under INHIBIT gates. Returns a list of
  /// human-readable problems; empty means valid. A problem names a node as
  /// 'name', or as #id when the node is anonymous.
  [[nodiscard]] std::vector<std::string> validate() const;

 private:
  /// Files the labels of node `id`, the node just added to the graph.
  void add_labels(NodeId id, std::string name, std::string description);
  /// 'name', or #id for an anonymous node (validate() messages).
  [[nodiscard]] std::string label(NodeId id) const;

  std::string name_;
  GateGraph graph_;
  std::vector<std::string> names_;         // by NodeId; empty = anonymous
  std::vector<std::string> descriptions_;  // by NodeId
  std::vector<NodeId> basic_events_;
  std::vector<NodeId> conditions_;
  NameIndex by_name_;  // named nodes only; names live in names_
};

}  // namespace safeopt::fta

#endif  // SAFEOPT_FTA_FAULT_TREE_H
