#include "safeopt/bdd/bdd.h"

#include <algorithm>
#include <unordered_map>

#include "safeopt/support/contracts.h"
#include "safeopt/support/error.h"
#include "safeopt/support/execution.h"
#include "safeopt/support/strings.h"

namespace safeopt::bdd {
namespace {

/// ITE calls between two deadline/cancellation polls. Coarse enough that the
/// poll (an atomic load plus a clock read) is invisible next to ~1k hash
/// probes, fine enough that a runaway construction aborts within
/// milliseconds.
constexpr std::size_t kControlCheckMask = 1023;

/// 64-bit mix (splitmix64 finalizer) for hash combining.
std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Smallest power of two >= n (and >= 1).
std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::size_t BddManager::NodeKeyHash::operator()(
    const NodeKey& k) const noexcept {
  std::uint64_t h = k.var;
  h = mix64(h ^ (static_cast<std::uint64_t>(k.low) << 32 | k.high));
  return static_cast<std::size_t>(h);
}

BddManager::BddManager(std::uint32_t variable_count)
    : BddManager(variable_count, BddOptions{}) {}

BddManager::BddManager(std::uint32_t variable_count, const BddOptions& options)
    : variable_count_(variable_count),
      node_budget_(options.node_budget),
      control_(options.control) {
  unique_table_.assign(
      round_up_pow2(std::max<std::size_t>(options.initial_table_size, 16)),
      kFalse);
  // The table holds half its slots in nodes before it grows; the node
  // vector gets the same room (plus the terminals) up front.
  nodes_.reserve(unique_table_.size() / 2 + 2);
  // Terminals occupy slots 0 (false) and 1 (true); their var field is a
  // sentinel one past the last real variable so top_var comparisons work.
  nodes_.push_back({variable_count_, kFalse, kFalse});
  nodes_.push_back({variable_count_, kTrue, kTrue});
  const std::size_t slots =
      round_up_pow2(std::max<std::size_t>(options.cache_size, 16));
  ite_cache_.assign(slots, IteSlot{});
  ite_mask_ = slots - 1;
  stats_.cache_slots = slots;
  stats_.node_count = nodes_.size();
  stats_.peak_node_count = nodes_.size();
}

BddRef BddManager::make_node(std::uint32_t var, BddRef low, BddRef high) {
  if (low == high) return low;  // reduction rule
  const std::size_t mask = unique_table_.size() - 1;
  std::size_t i = NodeKeyHash{}({var, low, high}) & mask;
  for (; unique_table_[i] != kFalse; i = (i + 1) & mask) {
    const Node& node = nodes_[unique_table_[i]];
    if (node.var == var && node.low == low && node.high == high) {
      return unique_table_[i];
    }
  }
  const auto ref = static_cast<BddRef>(nodes_.size());
  nodes_.push_back({var, low, high});
  unique_table_[i] = ref;
  // At most half full: decision nodes are nodes_.size() - 2.
  if (2 * (nodes_.size() - 2) > unique_table_.size()) grow_unique_table();
  // No GC: nodes are only ever created, so live == peak by construction.
  stats_.node_count = nodes_.size();
  stats_.peak_node_count = nodes_.size();
  // Budget check after the counters: the manager stays consistent (the node
  // exists, statistics() holds), so the caller gets a partial-but-valid
  // picture in the message and can still inspect the manager afterwards.
  if (node_budget_ != 0 && stats_.decision_node_count() > node_budget_) {
    throw Error(
        ErrorCategory::kResourceExhausted,
        concat("BDD node budget exceeded: ",
               std::to_string(stats_.decision_node_count()),
               " decision nodes (budget ", std::to_string(node_budget_),
               ") after ", std::to_string(stats_.ite_calls), " ITE calls"));
  }
  return ref;
}

void BddManager::grow_unique_table() {
  unique_table_.assign(2 * unique_table_.size(), kFalse);
  const std::size_t mask = unique_table_.size() - 1;
  for (auto ref = static_cast<BddRef>(2); ref < nodes_.size(); ++ref) {
    const Node& node = nodes_[ref];
    std::size_t i = NodeKeyHash{}({node.var, node.low, node.high}) & mask;
    while (unique_table_[i] != kFalse) i = (i + 1) & mask;
    unique_table_[i] = ref;
  }
}

BddRef BddManager::variable(std::uint32_t var) {
  SAFEOPT_EXPECTS(var < variable_count_);
  return make_node(var, kFalse, kTrue);
}

const BddStatistics& BddManager::statistics() const noexcept {
  // Documented invariants: terminals are counted (node_count >= 2), and
  // without garbage collection the live node count is the peak node count.
  SAFEOPT_ASSERT(stats_.node_count >= 2);
  SAFEOPT_ASSERT(stats_.node_count == nodes_.size());
  SAFEOPT_ASSERT(stats_.peak_node_count == stats_.node_count);
  return stats_;
}

std::uint32_t BddManager::top_var(BddRef f, BddRef g, BddRef h) const {
  std::uint32_t var = variable_count_;
  for (const BddRef r : {f, g, h}) {
    if (!is_terminal(r)) var = std::min(var, nodes_[r].var);
  }
  return var;
}

BddRef BddManager::cofactor(BddRef f, std::uint32_t var, bool value) const {
  if (is_terminal(f) || nodes_[f].var != var) return f;
  return value ? nodes_[f].high : nodes_[f].low;
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  ++stats_.ite_calls;
  if (control_ != nullptr && (stats_.ite_calls & kControlCheckMask) == 0) {
    control_->check("BDD construction");
  }
  // Terminal short-circuits.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  // Direct-mapped cache probe. A mismatching occupied slot is a miss (the
  // slot will be overwritten below); results are identical at any geometry
  // because ITE is deterministic — the cache only saves recomputation.
  const std::size_t slot_index = static_cast<std::size_t>(
      mix64(mix64(static_cast<std::uint64_t>(f) << 32 | g) ^ h) & ite_mask_);
  IteSlot& slot = ite_cache_[slot_index];
  if (slot.f == f && slot.g == g && slot.h == h) {
    ++stats_.cache_hits;
    return slot.result;
  }

  const std::uint32_t v = top_var(f, g, h);
  SAFEOPT_ASSERT(v < variable_count_);
  const BddRef low =
      ite(cofactor(f, v, false), cofactor(g, v, false), cofactor(h, v, false));
  const BddRef high =
      ite(cofactor(f, v, true), cofactor(g, v, true), cofactor(h, v, true));
  const BddRef result = make_node(v, low, high);
  if (slot.f != IteSlot::kEmpty) ++stats_.cache_evictions;
  slot = IteSlot{f, g, h, result};
  return result;
}

BddRef BddManager::apply_and(BddRef f, BddRef g) { return ite(f, g, kFalse); }
BddRef BddManager::apply_or(BddRef f, BddRef g) { return ite(f, kTrue, g); }
BddRef BddManager::apply_not(BddRef f) { return ite(f, kFalse, kTrue); }
BddRef BddManager::apply_xor(BddRef f, BddRef g) {
  return ite(f, apply_not(g), g);
}

BddRef BddManager::at_least(std::span<const BddRef> items, std::uint32_t k) {
  SAFEOPT_EXPECTS(k >= 1 && k <= items.size());
  // th(i, j): at least j of items[i..] are true.
  // th(i, 0) = 1; th(n, j>0) = 0;
  // th(i, j) = (items[i] AND th(i+1, j-1)) OR th(i+1, j).
  // Row i reads only row i + 1, so two rows serve; j keeps ascending, which
  // fixes the order of the ITE calls.
  std::vector<BddRef> next(k + 1, kFalse);
  std::vector<BddRef> row(k + 1, kFalse);
  next[0] = row[0] = kTrue;
  for (std::size_t i = items.size(); i-- > 0;) {
    for (std::uint32_t j = 1; j <= k; ++j) {
      const BddRef with = apply_and(items[i], next[j - 1]);
      row[j] = apply_or(with, next[j]);
    }
    std::swap(row, next);
  }
  return next[k];
}

bool BddManager::evaluate(BddRef f,
                          const std::vector<bool>& assignment) const {
  SAFEOPT_EXPECTS(assignment.size() == variable_count_);
  while (!is_terminal(f)) {
    const Node& node = nodes_[f];
    f = assignment[node.var] ? node.high : node.low;
  }
  return f == kTrue;
}

double BddManager::probability(
    BddRef f, const std::vector<double>& probabilities) const {
  ProbabilityScratch scratch;
  return probability(f, probabilities, scratch);
}

double BddManager::probability(BddRef f,
                               std::span<const double> probabilities,
                               ProbabilityScratch& scratch) const {
  SAFEOPT_EXPECTS(probabilities.size() == variable_count_);
  // Shannon decomposition, memoized per call (probabilities vary per call).
  scratch.memo.resize(nodes_.size());
  scratch.done.assign(nodes_.size(), 0);
  std::vector<double>& memo = scratch.memo;
  std::vector<unsigned char>& done = scratch.done;
  const auto recurse = [&](auto&& self, BddRef r) -> double {
    if (r == kFalse) return 0.0;
    if (r == kTrue) return 1.0;
    if (done[r]) return memo[r];
    const Node& node = nodes_[r];
    const double p = probabilities[node.var];
    const double result =
        p * self(self, node.high) + (1.0 - p) * self(self, node.low);
    memo[r] = result;
    done[r] = 1;
    return result;
  };
  return recurse(recurse, f);
}

std::size_t BddManager::size(BddRef f) const {
  std::vector<BddRef> stack{f};
  std::unordered_map<BddRef, bool> seen;
  std::size_t count = 0;
  while (!stack.empty()) {
    const BddRef r = stack.back();
    stack.pop_back();
    if (seen[r]) continue;
    seen[r] = true;
    ++count;
    if (!is_terminal(r)) {
      stack.push_back(nodes_[r].low);
      stack.push_back(nodes_[r].high);
    }
  }
  return count;
}

std::uint32_t BddManager::node_var(BddRef f) const {
  SAFEOPT_EXPECTS(f < nodes_.size());
  return nodes_[f].var;
}

BddRef BddManager::node_low(BddRef f) const {
  SAFEOPT_EXPECTS(!is_terminal(f) && f < nodes_.size());
  return nodes_[f].low;
}

BddRef BddManager::node_high(BddRef f) const {
  SAFEOPT_EXPECTS(!is_terminal(f) && f < nodes_.size());
  return nodes_[f].high;
}

// ------------------------------------------------------------- compilation

namespace {

/// Leaf -> BDD-variable maps, numbered by DFS first-visit order from the
/// top (keeps structurally related variables adjacent).
struct VariableOrder {
  std::vector<std::uint32_t> var_of_basic;      // by basic-event ordinal
  std::vector<std::uint32_t> var_of_condition;  // by condition ordinal
  std::uint32_t count = 0;
};

VariableOrder ordered_variables(const fta::GateGraph& graph) {
  VariableOrder order;
  order.var_of_basic.assign(graph.basic_event_count, UINT32_MAX);
  order.var_of_condition.assign(graph.condition_count, UINT32_MAX);
  // First-visit semantics: re-entering a gate through a second parent can
  // only reach leaves that are already numbered, so shared gates are pruned
  // after one expansion. Without this the traversal walks every *path*
  // through the DAG — combinatorial on heavily shared graphs like a
  // normalized k-of-n network.
  std::vector<bool> expanded(graph.nodes.size(), false);
  const auto visit = [&](auto&& self, std::uint32_t id) -> void {
    const fta::GateGraph::Node& node = graph.nodes[id];
    switch (node.kind) {
      case fta::NodeKind::kBasicEvent: {
        auto& slot = order.var_of_basic[node.ordinal];
        if (slot == UINT32_MAX) slot = order.count++;
        break;
      }
      case fta::NodeKind::kCondition: {
        auto& slot = order.var_of_condition[node.ordinal];
        if (slot == UINT32_MAX) slot = order.count++;
        break;
      }
      case fta::NodeKind::kGate: {
        if (expanded[id]) break;
        expanded[id] = true;
        for (const std::uint32_t child : graph.children_of(id)) {
          self(self, child);
        }
        break;
      }
    }
  };
  visit(visit, graph.top);
  // Leaves unreachable from the top still need variables (validate() flags
  // them, but compilation must not crash).
  for (auto& slot : order.var_of_basic) {
    if (slot == UINT32_MAX) slot = order.count++;
  }
  for (auto& slot : order.var_of_condition) {
    if (slot == UINT32_MAX) slot = order.count++;
  }
  return order;
}

/// Exactly-one over already-compiled child functions (the FaultTree XOR
/// semantics; n-ary parity would be wrong for n > 2).
BddRef exactly_one(BddManager& manager, std::span<const BddRef> items) {
  BddRef result = kFalse;
  for (std::size_t i = 0; i < items.size(); ++i) {
    BddRef only_i = items[i];
    for (std::size_t j = 0; j < items.size(); ++j) {
      if (j != i) only_i = manager.apply_and(only_i, manager.apply_not(items[j]));
    }
    result = manager.apply_or(result, only_i);
  }
  return result;
}

}  // namespace

double CompiledFaultTree::probability(
    const fta::QuantificationInput& input) const {
  SAFEOPT_EXPECTS(input.basic_event_probability.size() == basic_event_count);
  SAFEOPT_EXPECTS(input.condition_probability.size() == condition_count);
  std::vector<double> probs(manager.variable_count(), 0.0);
  for (std::uint32_t i = 0; i < basic_event_count; ++i) {
    probs[var_of_basic_event[i]] = input.basic_event_probability[i];
  }
  for (std::uint32_t i = 0; i < condition_count; ++i) {
    probs[var_of_condition[i]] = input.condition_probability[i];
  }
  return manager.probability(root, probs);
}

CompiledFaultTree compile(const fta::GateGraph& graph,
                          const BddOptions& options) {
  SAFEOPT_EXPECTS(graph.top < graph.nodes.size());
  VariableOrder order = ordered_variables(graph);
  CompiledFaultTree compiled{BddManager(order.count, options), kFalse,
                             graph.basic_event_count, graph.condition_count,
                             std::move(order.var_of_basic),
                             std::move(order.var_of_condition)};
  BddManager& manager = compiled.manager;

  // memo[id] is the compiled function of graph node `id`; no BddRef is
  // UINT32_MAX, so that marks "not compiled yet".
  constexpr BddRef kUncompiled = UINT32_MAX;
  std::vector<BddRef> memo(graph.nodes.size(), kUncompiled);
  // The compiled children of every gate on the recursion path, innermost
  // gate last: a gate folds its own run off the top and pops it.
  std::vector<BddRef> operands;
  const auto build = [&](auto&& self, std::uint32_t id) -> BddRef {
    if (memo[id] != kUncompiled) return memo[id];
    const fta::GateGraph::Node& node = graph.nodes[id];
    BddRef result = kFalse;
    switch (node.kind) {
      case fta::NodeKind::kBasicEvent:
        result = manager.variable(compiled.var_of_basic_event[node.ordinal]);
        break;
      case fta::NodeKind::kCondition:
        result = manager.variable(compiled.var_of_condition[node.ordinal]);
        break;
      case fta::NodeKind::kGate: {
        // Per-gate poll: an expired deadline aborts before the next gate's
        // ITE cascade even starts, independent of the in-ITE poll period.
        if (options.control != nullptr) {
          options.control->check("BDD compilation");
        }
        const std::size_t base = operands.size();
        for (const std::uint32_t child : graph.children_of(id)) {
          const BddRef operand = self(self, child);
          operands.push_back(operand);
        }
        const std::span<const BddRef> children(operands.data() + base,
                                               node.child_count);
        // AND/OR chains fold right-to-left: children earlier in the gate
        // also come earlier in the variable order (DFS numbering), so each
        // step prepends *above* the accumulated diagram instead of
        // rewriting its tail — O(|child|) fresh nodes per step where a
        // left fold creates a quadratic trail of dead intermediates (there
        // is no GC; every node ever made stays in the manager). The final
        // diagram is the same either way — ROBDDs are canonical.
        switch (node.gate) {
          case fta::GateType::kAnd:
          case fta::GateType::kInhibit: {
            result = kTrue;
            for (std::size_t i = children.size(); i-- > 0;) {
              result = manager.apply_and(children[i], result);
            }
            break;
          }
          case fta::GateType::kOr: {
            result = kFalse;
            for (std::size_t i = children.size(); i-- > 0;) {
              result = manager.apply_or(children[i], result);
            }
            break;
          }
          case fta::GateType::kKofN:
            result = manager.at_least(children, node.k);
            break;
          case fta::GateType::kXor:
            result = exactly_one(manager, children);
            break;
        }
        operands.resize(base);
        break;
      }
    }
    memo[id] = result;
    return result;
  };
  compiled.root = build(build, graph.top);
  manager.set_control(nullptr);  // the control bounds compilation only
  return compiled;
}

CompiledFaultTree compile(const fta::FaultTree& tree,
                          const BddOptions& options) {
  SAFEOPT_EXPECTS(tree.has_top());
  return compile(tree.graph(), options);
}

fta::CutSetCollection minimal_cut_sets_bdd(const fta::FaultTree& tree) {
  SAFEOPT_EXPECTS(tree.has_top());
  // Coherence check: Rauzy's decomposition below assumes a monotone
  // structure function; XOR gates break that.
  for (fta::NodeId id = 0; id < tree.node_count(); ++id) {
    if (tree.kind(id) == fta::NodeKind::kGate) {
      SAFEOPT_EXPECTS(tree.gate_type(id) != fta::GateType::kXor);
    }
  }
  CompiledFaultTree compiled = compile(tree);
  BddManager& manager = compiled.manager;

  using VarSet = std::vector<std::uint32_t>;  // sorted variable indices
  std::unordered_map<BddRef, std::vector<VarSet>> memo;

  const auto subsumes = [](const VarSet& small, const VarSet& big) {
    return std::includes(big.begin(), big.end(), small.begin(), small.end());
  };

  // Rauzy: MCS(node v) = MCS(low) ∪ { {v} ∪ s : s ∈ MCS(high), not already
  // covered by MCS(low) }.
  const auto decompose = [&](auto&& self, BddRef ref) -> std::vector<VarSet> {
    if (ref == kFalse) return {};
    if (ref == kTrue) return {VarSet{}};
    const auto it = memo.find(ref);
    if (it != memo.end()) return it->second;
    const std::uint32_t v = manager.node_var(ref);
    const std::vector<VarSet> low = self(self, manager.node_low(ref));
    const std::vector<VarSet> high = self(self, manager.node_high(ref));
    std::vector<VarSet> result = low;
    for (const VarSet& h : high) {
      VarSet with_v = h;
      with_v.insert(std::lower_bound(with_v.begin(), with_v.end(), v), v);
      const bool covered =
          std::any_of(low.begin(), low.end(), [&](const VarSet& l) {
            return subsumes(l, with_v);
          });
      if (!covered) result.push_back(std::move(with_v));
    }
    memo.emplace(ref, result);
    return result;
  };

  const std::vector<VarSet> var_sets = decompose(decompose, compiled.root);

  // Map BDD variables back to event / condition ordinals.
  std::vector<std::int64_t> basic_of_var(manager.variable_count(), -1);
  std::vector<std::int64_t> condition_of_var(manager.variable_count(), -1);
  for (std::uint32_t i = 0; i < compiled.basic_event_count; ++i) {
    basic_of_var[compiled.var_of_basic_event[i]] = i;
  }
  for (std::uint32_t i = 0; i < compiled.condition_count; ++i) {
    condition_of_var[compiled.var_of_condition[i]] = i;
  }

  std::vector<fta::CutSet> sets;
  sets.reserve(var_sets.size());
  for (const VarSet& vars : var_sets) {
    fta::CutSet cs;
    for (const std::uint32_t v : vars) {
      if (basic_of_var[v] >= 0) {
        cs.events.push_back(
            static_cast<fta::BasicEventOrdinal>(basic_of_var[v]));
      } else {
        SAFEOPT_ASSERT(condition_of_var[v] >= 0);
        cs.conditions.push_back(
            static_cast<fta::ConditionOrdinal>(condition_of_var[v]));
      }
    }
    std::sort(cs.events.begin(), cs.events.end());
    std::sort(cs.conditions.begin(), cs.conditions.end());
    sets.push_back(std::move(cs));
  }
  fta::CutSetCollection collection(std::move(sets));
  collection.minimize();
  return collection;
}

}  // namespace safeopt::bdd
