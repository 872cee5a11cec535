#include "safeopt/fta/fault_tree.h"

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

FaultTree::FaultTree(std::string name) : name_(std::move(name)) {}

void FaultTree::reserve(std::size_t nodes) {
  nodes_.reserve(nodes);
  by_name_.reserve(nodes);
}

NodeId FaultTree::add_node(Node node) {
  const auto id = static_cast<NodeId>(nodes_.size());
  if (!node.name.empty()) {
    const NodeId holder = by_name_.insert(
        node.name, id, [this](NodeId other) -> std::string_view {
          return nodes_[other].name;
        });
    SAFEOPT_EXPECTS(holder == id);  // names are unique within the tree
  }
  nodes_.push_back(std::move(node));
  return id;
}

NodeId FaultTree::add_basic_event(std::string name, std::string description) {
  Node node;
  node.node_kind = NodeKind::kBasicEvent;
  node.ordinal = static_cast<BasicEventOrdinal>(basic_events_.size());
  node.name = std::move(name);
  node.description = std::move(description);
  const NodeId id = add_node(std::move(node));
  basic_events_.push_back(id);
  return id;
}

NodeId FaultTree::add_condition(std::string name, std::string description) {
  Node node;
  node.node_kind = NodeKind::kCondition;
  node.ordinal = static_cast<ConditionOrdinal>(conditions_.size());
  node.name = std::move(name);
  node.description = std::move(description);
  const NodeId id = add_node(std::move(node));
  conditions_.push_back(id);
  return id;
}

void FaultTree::check_child_ids(std::span<const NodeId> children) const {
  SAFEOPT_EXPECTS(!children.empty());
  for (const NodeId child : children) {
    SAFEOPT_EXPECTS(child < nodes_.size());
  }
}

NodeId FaultTree::add_gate(std::string name, GateType type, std::uint32_t k,
                           std::vector<NodeId> children) {
  check_child_ids(children);
  Node node;
  node.node_kind = NodeKind::kGate;
  node.gate = type;
  node.k = k;
  node.name = std::move(name);
  node.children = std::move(children);
  return add_node(std::move(node));
}

NodeId FaultTree::add_and(std::string name, std::vector<NodeId> children) {
  return add_gate(std::move(name), GateType::kAnd, 0, std::move(children));
}

NodeId FaultTree::add_or(std::string name, std::vector<NodeId> children) {
  return add_gate(std::move(name), GateType::kOr, 0, std::move(children));
}

NodeId FaultTree::add_k_of_n(std::string name, std::uint32_t k,
                             std::vector<NodeId> children) {
  SAFEOPT_EXPECTS(k >= 1 && k <= children.size());
  return add_gate(std::move(name), GateType::kKofN, k, std::move(children));
}

NodeId FaultTree::add_xor(std::string name, std::vector<NodeId> children) {
  return add_gate(std::move(name), GateType::kXor, 0, std::move(children));
}

NodeId FaultTree::add_inhibit(std::string name, NodeId cause,
                              NodeId condition) {
  SAFEOPT_EXPECTS(cause < nodes_.size());
  SAFEOPT_EXPECTS(condition < nodes_.size());
  SAFEOPT_EXPECTS(nodes_[condition].node_kind == NodeKind::kCondition);
  return add_gate(std::move(name), GateType::kInhibit, 0, {cause, condition});
}

void FaultTree::set_top(NodeId top) {
  SAFEOPT_EXPECTS(top < nodes_.size());
  SAFEOPT_EXPECTS(nodes_[top].node_kind != NodeKind::kCondition);
  SAFEOPT_EXPECTS(!top_.has_value());
  top_ = top;
}

NodeId FaultTree::top() const {
  SAFEOPT_EXPECTS(top_.has_value());
  return *top_;
}

std::size_t FaultTree::gate_count() const noexcept {
  return nodes_.size() - basic_events_.size() - conditions_.size();
}

NodeKind FaultTree::kind(NodeId id) const {
  SAFEOPT_EXPECTS(id < nodes_.size());
  return nodes_[id].node_kind;
}

const std::string& FaultTree::node_name(NodeId id) const {
  SAFEOPT_EXPECTS(id < nodes_.size());
  return nodes_[id].name;
}

const std::string& FaultTree::description(NodeId id) const {
  SAFEOPT_EXPECTS(id < nodes_.size());
  return nodes_[id].description;
}

GateType FaultTree::gate_type(NodeId id) const {
  SAFEOPT_EXPECTS(kind(id) == NodeKind::kGate);
  return nodes_[id].gate;
}

std::span<const NodeId> FaultTree::children(NodeId id) const {
  SAFEOPT_EXPECTS(kind(id) == NodeKind::kGate);
  return nodes_[id].children;
}

std::uint32_t FaultTree::vote_threshold(NodeId id) const {
  SAFEOPT_EXPECTS(gate_type(id) == GateType::kKofN);
  return nodes_[id].k;
}

std::optional<NodeId> FaultTree::find(std::string_view name) const {
  const NodeId id = by_name_.find(
      name, [this](NodeId other) -> std::string_view {
        return nodes_[other].name;
      });
  if (id == NameIndex::kNone) return std::nullopt;
  return id;
}

BasicEventOrdinal FaultTree::basic_event_ordinal(NodeId id) const {
  SAFEOPT_EXPECTS(kind(id) == NodeKind::kBasicEvent);
  const BasicEventOrdinal ordinal = nodes_[id].ordinal;
  SAFEOPT_ASSERT(basic_events_[ordinal] == id);
  return ordinal;
}

ConditionOrdinal FaultTree::condition_ordinal(NodeId id) const {
  SAFEOPT_EXPECTS(kind(id) == NodeKind::kCondition);
  const ConditionOrdinal ordinal = nodes_[id].ordinal;
  SAFEOPT_ASSERT(conditions_[ordinal] == id);
  return ordinal;
}

bool FaultTree::evaluate_node(NodeId id, const std::vector<bool>& basic_state,
                              const std::vector<bool>& condition_state,
                              std::vector<signed char>& memo) const {
  if (memo[id] >= 0) return memo[id] != 0;
  const Node& node = nodes_[id];
  bool result = false;
  switch (node.node_kind) {
    case NodeKind::kBasicEvent:
      result = basic_state[node.ordinal];
      break;
    case NodeKind::kCondition:
      result = condition_state[node.ordinal];
      break;
    case NodeKind::kGate: {
      switch (node.gate) {
        case GateType::kAnd: {
          result = true;
          for (const NodeId child : node.children) {
            result = result && evaluate_node(child, basic_state,
                                             condition_state, memo);
          }
          break;
        }
        case GateType::kOr: {
          result = false;
          for (const NodeId child : node.children) {
            result = result || evaluate_node(child, basic_state,
                                             condition_state, memo);
          }
          break;
        }
        case GateType::kKofN: {
          std::uint32_t count = 0;
          for (const NodeId child : node.children) {
            if (evaluate_node(child, basic_state, condition_state, memo)) {
              ++count;
            }
          }
          result = count >= node.k;
          break;
        }
        case GateType::kXor: {
          std::uint32_t count = 0;
          for (const NodeId child : node.children) {
            if (evaluate_node(child, basic_state, condition_state, memo)) {
              ++count;
            }
          }
          result = count == 1;
          break;
        }
        case GateType::kInhibit: {
          const bool cause = evaluate_node(node.children[0], basic_state,
                                           condition_state, memo);
          const bool cond = evaluate_node(node.children[1], basic_state,
                                          condition_state, memo);
          result = cause && cond;
          break;
        }
      }
      break;
    }
  }
  memo[id] = result ? 1 : 0;
  return result;
}

bool FaultTree::evaluate(const std::vector<bool>& basic_state,
                         const std::vector<bool>& condition_state) const {
  SAFEOPT_EXPECTS(top_.has_value());
  SAFEOPT_EXPECTS(basic_state.size() == basic_events_.size());
  SAFEOPT_EXPECTS(condition_state.size() == conditions_.size());
  std::vector<signed char> memo(nodes_.size(), -1);
  return evaluate_node(*top_, basic_state, condition_state, memo);
}

bool FaultTree::evaluate(const std::vector<bool>& basic_state) const {
  SAFEOPT_EXPECTS(conditions_.empty());
  return evaluate(basic_state, {});
}

std::string FaultTree::label(NodeId id) const {
  const std::string& name = nodes_[id].name;
  return name.empty() ? concat("#", std::to_string(id))
                      : concat("'", name, "'");
}

std::vector<std::string> FaultTree::validate() const {
  std::vector<std::string> problems;
  if (!top_.has_value()) {
    problems.emplace_back("no top event set");
    return problems;
  }
  // Reachability from the top event.
  std::vector<bool> reachable(nodes_.size(), false);
  std::vector<NodeId> stack{*top_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (reachable[id]) continue;
    reachable[id] = true;
    if (nodes_[id].node_kind == NodeKind::kGate) {
      for (const NodeId child : nodes_[id].children) stack.push_back(child);
    }
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!reachable[id]) {
      problems.push_back(
          concat("node ", label(id), " is not reachable from the top event"));
    }
  }
  // Conditions may only appear as the second child of INHIBIT gates.
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.node_kind != NodeKind::kGate) continue;
    for (std::size_t c = 0; c < node.children.size(); ++c) {
      const Node& child = nodes_[node.children[c]];
      if (child.node_kind == NodeKind::kCondition &&
          !(node.gate == GateType::kInhibit && c == 1)) {
        problems.push_back(concat("condition ", label(node.children[c]),
                                  " used outside an INHIBIT gate (in gate ",
                                  label(id), ")"));
      }
    }
    if (node.gate == GateType::kInhibit) {
      if (nodes_[node.children[0]].node_kind == NodeKind::kCondition) {
        problems.push_back(concat("INHIBIT gate ", label(id),
                                  " has a condition as its cause"));
      }
    }
  }
  if (nodes_[*top_].node_kind == NodeKind::kCondition) {
    problems.emplace_back("top event is a condition");
  }
  return problems;
}

}  // namespace safeopt::fta
