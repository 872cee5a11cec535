#include "safeopt/fta/fault_tree.h"

#include <algorithm>

#include "safeopt/support/contracts.h"
#include "safeopt/support/strings.h"

namespace safeopt::fta {

std::string_view to_string(GateType type) noexcept {
  switch (type) {
    case GateType::kAnd: return "AND";
    case GateType::kOr: return "OR";
    case GateType::kKofN: return "KOFN";
    case GateType::kXor: return "XOR";
    case GateType::kInhibit: return "INHIBIT";
  }
  return "?";
}

NodeId GateGraph::add_leaf(NodeKind kind) {
  SAFEOPT_EXPECTS(kind != NodeKind::kGate);
  Node node;
  node.kind = kind;
  node.ordinal = kind == NodeKind::kBasicEvent ? basic_event_count++
                                               : condition_count++;
  nodes.push_back(node);
  return static_cast<NodeId>(nodes.size() - 1);
}

NodeId GateGraph::add_gate(GateType type, std::uint32_t k,
                           std::span<const NodeId> gate_children) {
  Node node;
  node.kind = NodeKind::kGate;
  node.gate = type;
  node.k = k;
  node.first_child = static_cast<std::uint32_t>(children.size());
  node.child_count = static_cast<std::uint32_t>(gate_children.size());
  children.insert(children.end(), gate_children.begin(), gate_children.end());
  nodes.push_back(node);
  return static_cast<NodeId>(nodes.size() - 1);
}

bool GateGraph::evaluate(const std::vector<bool>& basic_state,
                         const std::vector<bool>& condition_state,
                         std::span<signed char> memo) const {
  SAFEOPT_EXPECTS(top < nodes.size());
  SAFEOPT_EXPECTS(memo.size() == nodes.size());
  std::fill(memo.begin(), memo.end(), -1);  // -1: not evaluated yet
  const auto value = [&](auto&& self, NodeId id) -> bool {
    if (memo[id] >= 0) return memo[id] != 0;
    const Node& node = nodes[id];
    const auto holds = [&](NodeId child) { return self(self, child); };
    bool result = false;
    switch (node.kind) {
      case NodeKind::kBasicEvent:
        result = basic_state[node.ordinal];
        break;
      case NodeKind::kCondition:
        result = condition_state[node.ordinal];
        break;
      case NodeKind::kGate: {
        const std::span<const NodeId> run = children_of(id);
        switch (node.gate) {
          case GateType::kAnd:
          case GateType::kInhibit:
            result = std::all_of(run.begin(), run.end(), holds);
            break;
          case GateType::kOr:
            result = std::any_of(run.begin(), run.end(), holds);
            break;
          case GateType::kKofN:
          case GateType::kXor: {
            const auto count = static_cast<std::uint32_t>(
                std::count_if(run.begin(), run.end(), holds));
            result = node.gate == GateType::kXor ? count == 1 : count >= node.k;
            break;
          }
        }
        break;
      }
    }
    memo[id] = result ? 1 : 0;
    return result;
  };
  return value(value, top);
}

FaultTree::FaultTree(std::string name) : name_(std::move(name)) {}

void FaultTree::reserve(std::size_t basic_events, std::size_t conditions,
                        std::size_t gates, std::size_t child_references) {
  const std::size_t nodes = basic_events + conditions + gates;
  basic_events_.reserve(basic_events);
  conditions_.reserve(conditions);
  graph_.nodes.reserve(nodes);
  graph_.children.reserve(child_references);
  names_.reserve(nodes);
  descriptions_.reserve(nodes);
  by_name_.reserve(nodes);
}

void FaultTree::add_labels(NodeId id, std::string name,
                           std::string description) {
  names_.push_back(std::move(name));
  descriptions_.push_back(std::move(description));
  if (!names_[id].empty()) {
    const NodeId holder = by_name_.insert(
        names_[id], id,
        [this](NodeId other) -> std::string_view { return names_[other]; });
    SAFEOPT_EXPECTS(holder == id);  // names are unique within the tree
  }
}

NodeId FaultTree::add_basic_event(std::string name, std::string description) {
  const NodeId id = graph_.add_leaf(NodeKind::kBasicEvent);
  add_labels(id, std::move(name), std::move(description));
  basic_events_.push_back(id);
  return id;
}

NodeId FaultTree::add_condition(std::string name, std::string description) {
  const NodeId id = graph_.add_leaf(NodeKind::kCondition);
  add_labels(id, std::move(name), std::move(description));
  conditions_.push_back(id);
  return id;
}

NodeId FaultTree::add_gate(std::string name, GateType type, std::uint32_t k,
                           std::span<const NodeId> children) {
  SAFEOPT_EXPECTS(!children.empty());
  for (const NodeId child : children) {
    SAFEOPT_EXPECTS(child < node_count());
  }
  if (type == GateType::kKofN) {
    SAFEOPT_EXPECTS(k >= 1 && k <= children.size());
  } else {
    SAFEOPT_EXPECTS(k == 0);
  }
  if (type == GateType::kInhibit) {
    SAFEOPT_EXPECTS(children.size() == 2);
    SAFEOPT_EXPECTS(graph_.nodes[children[1]].kind == NodeKind::kCondition);
  }
  const NodeId id = graph_.add_gate(type, k, children);
  add_labels(id, std::move(name), {});
  return id;
}

NodeId FaultTree::add_and(std::string name, std::vector<NodeId> children) {
  return add_gate(std::move(name), GateType::kAnd, 0, children);
}

NodeId FaultTree::add_or(std::string name, std::vector<NodeId> children) {
  return add_gate(std::move(name), GateType::kOr, 0, children);
}

NodeId FaultTree::add_k_of_n(std::string name, std::uint32_t k,
                             std::vector<NodeId> children) {
  return add_gate(std::move(name), GateType::kKofN, k, children);
}

NodeId FaultTree::add_xor(std::string name, std::vector<NodeId> children) {
  return add_gate(std::move(name), GateType::kXor, 0, children);
}

NodeId FaultTree::add_inhibit(std::string name, NodeId cause,
                              NodeId condition) {
  const NodeId children[] = {cause, condition};
  return add_gate(std::move(name), GateType::kInhibit, 0, children);
}

void FaultTree::set_top(NodeId top) {
  SAFEOPT_EXPECTS(top < node_count());
  SAFEOPT_EXPECTS(graph_.nodes[top].kind != NodeKind::kCondition);
  SAFEOPT_EXPECTS(!has_top());
  graph_.top = top;
}

NodeId FaultTree::top() const {
  SAFEOPT_EXPECTS(has_top());
  return graph_.top;
}

NodeKind FaultTree::kind(NodeId id) const {
  SAFEOPT_EXPECTS(id < node_count());
  return graph_.nodes[id].kind;
}

const std::string& FaultTree::node_name(NodeId id) const {
  SAFEOPT_EXPECTS(id < node_count());
  return names_[id];
}

const std::string& FaultTree::description(NodeId id) const {
  SAFEOPT_EXPECTS(id < node_count());
  return descriptions_[id];
}

GateType FaultTree::gate_type(NodeId id) const {
  SAFEOPT_EXPECTS(kind(id) == NodeKind::kGate);
  return graph_.nodes[id].gate;
}

std::span<const NodeId> FaultTree::children(NodeId id) const {
  SAFEOPT_EXPECTS(kind(id) == NodeKind::kGate);
  return graph_.children_of(id);
}

std::uint32_t FaultTree::vote_threshold(NodeId id) const {
  SAFEOPT_EXPECTS(gate_type(id) == GateType::kKofN);
  return graph_.nodes[id].k;
}

std::optional<NodeId> FaultTree::find(std::string_view name) const {
  const NodeId id = by_name_.find(
      name, [this](NodeId other) -> std::string_view { return names_[other]; });
  if (id == NameIndex::kNone) return std::nullopt;
  return id;
}

BasicEventOrdinal FaultTree::basic_event_ordinal(NodeId id) const {
  SAFEOPT_EXPECTS(kind(id) == NodeKind::kBasicEvent);
  const BasicEventOrdinal ordinal = graph_.nodes[id].ordinal;
  SAFEOPT_ASSERT(basic_events_[ordinal] == id);
  return ordinal;
}

ConditionOrdinal FaultTree::condition_ordinal(NodeId id) const {
  SAFEOPT_EXPECTS(kind(id) == NodeKind::kCondition);
  const ConditionOrdinal ordinal = graph_.nodes[id].ordinal;
  SAFEOPT_ASSERT(conditions_[ordinal] == id);
  return ordinal;
}

bool FaultTree::evaluate(const std::vector<bool>& basic_state,
                         const std::vector<bool>& condition_state) const {
  SAFEOPT_EXPECTS(has_top());
  SAFEOPT_EXPECTS(basic_state.size() == basic_events_.size());
  SAFEOPT_EXPECTS(condition_state.size() == conditions_.size());
  std::vector<signed char> memo(graph_.nodes.size());
  return graph_.evaluate(basic_state, condition_state, memo);
}

bool FaultTree::evaluate(const std::vector<bool>& basic_state) const {
  SAFEOPT_EXPECTS(conditions_.empty());
  return evaluate(basic_state, {});
}

std::string FaultTree::label(NodeId id) const {
  const std::string& name = names_[id];
  return name.empty() ? concat("#", std::to_string(id))
                      : concat("'", name, "'");
}

std::vector<std::string> FaultTree::validate() const {
  std::vector<std::string> problems;
  if (!has_top()) {
    problems.emplace_back("no top event set");
    return problems;
  }
  const std::vector<GateGraph::Node>& nodes = graph_.nodes;
  // Reachability from the top event.
  std::vector<bool> reachable(nodes.size(), false);
  std::vector<NodeId> stack{graph_.top};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (reachable[id]) continue;
    reachable[id] = true;
    for (const NodeId child : graph_.children_of(id)) stack.push_back(child);
  }
  for (NodeId id = 0; id < nodes.size(); ++id) {
    if (!reachable[id]) {
      problems.push_back(
          concat("node ", label(id), " is not reachable from the top event"));
    }
  }
  // Conditions may only appear as the second child of INHIBIT gates.
  for (NodeId id = 0; id < nodes.size(); ++id) {
    const GateGraph::Node& node = nodes[id];
    if (node.kind != NodeKind::kGate) continue;
    const std::span<const NodeId> children = graph_.children_of(id);
    for (std::size_t c = 0; c < children.size(); ++c) {
      if (nodes[children[c]].kind == NodeKind::kCondition &&
          !(node.gate == GateType::kInhibit && c == 1)) {
        problems.push_back(concat("condition ", label(children[c]),
                                  " used outside an INHIBIT gate (in gate ",
                                  label(id), ")"));
      }
    }
    if (node.gate == GateType::kInhibit &&
        nodes[children[0]].kind == NodeKind::kCondition) {
      problems.push_back(
          concat("INHIBIT gate ", label(id), " has a condition as its cause"));
    }
  }
  if (nodes[graph_.top].kind == NodeKind::kCondition) {
    problems.emplace_back("top event is a condition");
  }
  return problems;
}

}  // namespace safeopt::fta
