#include "safeopt/fta/cut_sets.h"

#include <algorithm>
#include <set>

#include "safeopt/support/contracts.h"
#include "safeopt/support/execution.h"

namespace safeopt::fta {
namespace {

/// Polls an ExecutionControl on every 1024th tick: MOCUS steps are a few
/// set operations each, so a poll (a clock read) per step would show.
class Poller {
 public:
  explicit Poller(const ExecutionControl* control) noexcept
      : control_(control) {}

  void tick() {
    if (control_ != nullptr && (++ticks_ & 1023u) == 0) {
      control_->check("minimal cut set generation");
    }
  }

 private:
  const ExecutionControl* control_;
  std::size_t ticks_ = 0;
};

/// The index of a set that subsumes another one, or sets.size() when every
/// set is minimal. Calls `tick` once per pair compared.
template <typename Tick>
std::size_t first_non_minimal(const std::vector<CutSet>& sets, Tick&& tick) {
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (std::size_t j = 0; j < sets.size(); ++j) {
      tick();
      if (i != j && sets[i].subsumes(sets[j])) return i;
    }
  }
  return sets.size();
}

/// Inserts `value` into the sorted vector `sorted` if not already present.
void insert_sorted_unique(std::vector<NodeId>& sorted, NodeId value) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), value);
  if (it == sorted.end() || *it != value) sorted.insert(it, value);
}

/// Removes `value` from the sorted vector `sorted` (must be present).
void erase_sorted(std::vector<NodeId>& sorted, NodeId value) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), value);
  SAFEOPT_ASSERT(it != sorted.end() && *it == value);
  sorted.erase(it);
}

/// Enumerates all k-subsets of `items`, invoking `emit` with each subset.
template <typename Emit>
void for_each_k_subset(std::span<const NodeId> items, std::uint32_t k,
                       Emit emit) {
  std::vector<NodeId> chosen;
  chosen.reserve(k);
  const auto recurse = [&](auto&& self, std::size_t start) -> void {
    if (chosen.size() == k) {
      emit(std::span<const NodeId>(chosen));
      return;
    }
    const std::size_t still_needed = k - chosen.size();
    for (std::size_t i = start; i + still_needed <= items.size(); ++i) {
      chosen.push_back(items[i]);
      self(self, i + 1);
      chosen.pop_back();
    }
  };
  recurse(recurse, 0);
}

}  // namespace

bool CutSet::subsumes(const CutSet& other) const noexcept {
  return std::includes(other.events.begin(), other.events.end(),
                       events.begin(), events.end()) &&
         std::includes(other.conditions.begin(), other.conditions.end(),
                       conditions.begin(), conditions.end());
}

bool CutSet::less(const CutSet& a, const CutSet& b) noexcept {
  if (a.events.size() != b.events.size()) {
    return a.events.size() < b.events.size();
  }
  if (a.events != b.events) return a.events < b.events;
  return a.conditions < b.conditions;
}

CutSetCollection::CutSetCollection(std::vector<CutSet> sets)
    : sets_(std::move(sets)) {
  std::sort(sets_.begin(), sets_.end(), CutSet::less);
  sets_.erase(std::unique(sets_.begin(), sets_.end()), sets_.end());
}

const CutSet& CutSetCollection::operator[](std::size_t i) const {
  SAFEOPT_EXPECTS(i < sets_.size());
  return sets_[i];
}

std::size_t CutSetCollection::max_order() const noexcept {
  std::size_t max = 0;
  for (const CutSet& cs : sets_) max = std::max(max, cs.order());
  return max;
}

std::size_t CutSetCollection::count_of_order(std::size_t order) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(sets_.begin(), sets_.end(),
                    [order](const CutSet& cs) { return cs.order() == order; }));
}

std::vector<BasicEventOrdinal> CutSetCollection::single_points_of_failure()
    const {
  std::vector<BasicEventOrdinal> out;
  for (const CutSet& cs : sets_) {
    if (cs.is_single_point_of_failure()) out.push_back(cs.events.front());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void CutSetCollection::minimize(const ExecutionControl* control) {
  Poller poller(control);
  std::sort(sets_.begin(), sets_.end(), CutSet::less);
  sets_.erase(std::unique(sets_.begin(), sets_.end()), sets_.end());
  std::vector<CutSet> minimal;
  minimal.reserve(sets_.size());
  for (CutSet& candidate : sets_) {
    poller.tick();
    const bool subsumed = std::any_of(
        minimal.begin(), minimal.end(),
        [&](const CutSet& kept) { return kept.subsumes(candidate); });
    if (!subsumed) minimal.push_back(std::move(candidate));
  }
  sets_ = std::move(minimal);
}

bool CutSetCollection::is_minimal() const noexcept {
  return first_non_minimal(sets_, [] {}) == sets_.size();
}

std::string CutSetCollection::to_string(const FaultTree& tree) const {
  std::string out;
  for (std::size_t i = 0; i < sets_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{";
    const CutSet& cs = sets_[i];
    for (std::size_t e = 0; e < cs.events.size(); ++e) {
      if (e > 0) out += ", ";
      out += tree.node_name(tree.basic_events()[cs.events[e]]);
    }
    if (!cs.conditions.empty()) {
      out += " | ";
      for (std::size_t c = 0; c < cs.conditions.size(); ++c) {
        if (c > 0) out += ", ";
        out += tree.node_name(tree.conditions()[cs.conditions[c]]);
      }
    }
    out += "}";
  }
  return out;
}

CutSetCollection minimal_cut_sets(const FaultTree& tree,
                                  const ExecutionControl* control) {
  SAFEOPT_EXPECTS(tree.has_top());
  Poller poller(control);
  // MOCUS working state: each in-progress cut set is a sorted NodeId vector
  // that may still contain gates. The frontier is deduplicated to avoid
  // re-expanding identical intermediate sets in shared-subtree DAGs.
  std::set<std::vector<NodeId>> frontier;
  std::set<std::vector<NodeId>> expanded;
  frontier.insert({tree.top()});

  while (!frontier.empty()) {
    poller.tick();
    auto working = *frontier.begin();
    frontier.erase(frontier.begin());

    const auto gate_it =
        std::find_if(working.begin(), working.end(), [&](NodeId id) {
          return tree.kind(id) == NodeKind::kGate;
        });
    if (gate_it == working.end()) {
      expanded.insert(std::move(working));
      continue;
    }
    const NodeId gate = *gate_it;
    erase_sorted(working, gate);
    const std::span<const NodeId> children = tree.children(gate);

    switch (tree.gate_type(gate)) {
      case GateType::kAnd:
      case GateType::kInhibit: {
        // INHIBIT == AND(cause, condition): both join the working set; the
        // condition surfaces later in CutSet::conditions.
        for (const NodeId child : children) {
          insert_sorted_unique(working, child);
        }
        frontier.insert(std::move(working));
        break;
      }
      case GateType::kOr:
      case GateType::kXor: {
        // XOR is expanded as OR: the coherent hull, conservative for safety.
        for (const NodeId child : children) {
          auto branch = working;
          insert_sorted_unique(branch, child);
          frontier.insert(std::move(branch));
        }
        break;
      }
      case GateType::kKofN: {
        for_each_k_subset(
            children, tree.vote_threshold(gate),
            [&](std::span<const NodeId> subset) {
              // One vote can emit C(n, k) branches: poll per branch.
              poller.tick();
              auto branch = working;
              for (const NodeId child : subset) {
                insert_sorted_unique(branch, child);
              }
              frontier.insert(std::move(branch));
            });
        break;
      }
    }
  }

  std::vector<CutSet> sets;
  sets.reserve(expanded.size());
  for (const auto& nodes : expanded) {
    CutSet cs;
    for (const NodeId id : nodes) {
      if (tree.kind(id) == NodeKind::kBasicEvent) {
        cs.events.push_back(tree.basic_event_ordinal(id));
      } else {
        SAFEOPT_ASSERT(tree.kind(id) == NodeKind::kCondition);
        cs.conditions.push_back(tree.condition_ordinal(id));
      }
    }
    std::sort(cs.events.begin(), cs.events.end());
    std::sort(cs.conditions.begin(), cs.conditions.end());
    sets.push_back(std::move(cs));
  }

  CutSetCollection collection(std::move(sets));
  collection.minimize(control);
  SAFEOPT_ENSURES(first_non_minimal(collection.sets(), [&poller] {
                    poller.tick();
                  }) == collection.size());
  return collection;
}

CutSetCollection minimal_path_sets(const FaultTree& tree) {
  SAFEOPT_EXPECTS(tree.has_top());
  // Build the dual tree: same leaves, AND <-> OR, k-of-n -> (n−k+1)-of-n.
  // De Morgan: the dual's cut sets are the original's path sets. INHIBIT is
  // an AND of cause and condition, so it dualizes to an OR of the two. The
  // dual is anonymous: only ordinals map its cut sets back.
  FaultTree dual{std::string()};
  std::vector<NodeId> mapped(tree.node_count());
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    switch (tree.kind(id)) {
      case NodeKind::kBasicEvent:
        mapped[id] = dual.add_basic_event({});
        break;
      case NodeKind::kCondition:
        // A condition is an element of the cut sets it constrains, so
        // "prevent the condition" is a legitimate way to break them (shut
        // the process down and the cooling failure is harmless). In the
        // dual it participates like any leaf; the ordinal mapping below
        // routes it back into CutSet::conditions.
        mapped[id] = dual.add_basic_event({});
        break;
      case NodeKind::kGate: {
        SAFEOPT_EXPECTS(tree.gate_type(id) != GateType::kXor);
        std::vector<NodeId> children;
        for (const NodeId child : tree.children(id)) {
          children.push_back(mapped[child]);
        }
        switch (tree.gate_type(id)) {
          case GateType::kAnd:
          case GateType::kInhibit:
            mapped[id] = dual.add_or({}, std::move(children));
            break;
          case GateType::kOr:
            mapped[id] = dual.add_and({}, std::move(children));
            break;
          case GateType::kKofN: {
            const auto n = static_cast<std::uint32_t>(children.size());
            const std::uint32_t k = tree.vote_threshold(id);
            mapped[id] = dual.add_k_of_n({}, n - k + 1, std::move(children));
            break;
          }
          case GateType::kXor:
            SAFEOPT_ASSERT(false);
            break;
        }
        break;
      }
    }
  }
  dual.set_top(mapped[tree.top()]);
  CutSetCollection dual_cuts = minimal_cut_sets(dual);

  // Map the dual's basic-event ordinals back: conditions of the original
  // became trailing pseudo-events in the dual in id order; translate any
  // such ordinal into CutSet::conditions of the original numbering.
  std::vector<bool> is_condition(dual.basic_event_count(), false);
  std::vector<std::uint32_t> original_ordinal(dual.basic_event_count(), 0);
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    if (tree.kind(id) == NodeKind::kBasicEvent) {
      const auto dual_ord = dual.basic_event_ordinal(mapped[id]);
      original_ordinal[dual_ord] = tree.basic_event_ordinal(id);
    } else if (tree.kind(id) == NodeKind::kCondition) {
      const auto dual_ord = dual.basic_event_ordinal(mapped[id]);
      is_condition[dual_ord] = true;
      original_ordinal[dual_ord] = tree.condition_ordinal(id);
    }
  }
  std::vector<CutSet> sets;
  sets.reserve(dual_cuts.size());
  for (const CutSet& dual_set : dual_cuts.sets()) {
    CutSet path;
    for (const BasicEventOrdinal e : dual_set.events) {
      if (is_condition[e]) {
        path.conditions.push_back(original_ordinal[e]);
      } else {
        path.events.push_back(original_ordinal[e]);
      }
    }
    std::sort(path.events.begin(), path.events.end());
    std::sort(path.conditions.begin(), path.conditions.end());
    sets.push_back(std::move(path));
  }
  return CutSetCollection(std::move(sets));
}

CutSetCollection minimal_cut_sets_bruteforce(const FaultTree& tree) {
  SAFEOPT_EXPECTS(tree.has_top());
  const std::size_t n_events = tree.basic_event_count();
  const std::size_t n_conditions = tree.condition_count();
  const std::size_t n_total = n_events + n_conditions;
  SAFEOPT_EXPECTS(n_total <= 24);

  // The coherent hull: XOR read as OR, exactly as MOCUS expands it, so the
  // oracle and MOCUS agree by construction on non-coherent inputs.
  GateGraph hull = tree.graph();
  for (GateGraph::Node& node : hull.nodes) {
    if (node.kind == NodeKind::kGate && node.gate == GateType::kXor) {
      node.gate = GateType::kOr;
    }
  }
  std::vector<signed char> memo(hull.nodes.size());
  const auto evaluate_mask = [&](std::uint64_t mask) {
    std::vector<bool> basic(n_events, false);
    std::vector<bool> cond(n_conditions, false);
    for (std::size_t i = 0; i < n_events; ++i) {
      basic[i] = (mask & (1ULL << i)) != 0;
    }
    for (std::size_t i = 0; i < n_conditions; ++i) {
      cond[i] = (mask & (1ULL << (n_events + i))) != 0;
    }
    return hull.evaluate(basic, cond, memo);
  };

  std::vector<CutSet> minimal;
  const std::uint64_t limit = 1ULL << n_total;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    if (!evaluate_mask(mask)) continue;
    // Coherent structure function: minimal iff flipping any single bit off
    // makes the hazard vanish.
    bool is_minimal = true;
    for (std::size_t bit = 0; bit < n_total && is_minimal; ++bit) {
      if ((mask & (1ULL << bit)) != 0 && evaluate_mask(mask ^ (1ULL << bit))) {
        is_minimal = false;
      }
    }
    if (!is_minimal) continue;
    CutSet cs;
    for (std::size_t i = 0; i < n_events; ++i) {
      if ((mask & (1ULL << i)) != 0) {
        cs.events.push_back(static_cast<BasicEventOrdinal>(i));
      }
    }
    for (std::size_t i = 0; i < n_conditions; ++i) {
      if ((mask & (1ULL << (n_events + i))) != 0) {
        cs.conditions.push_back(static_cast<ConditionOrdinal>(i));
      }
    }
    minimal.push_back(std::move(cs));
  }
  return CutSetCollection(std::move(minimal));
}

}  // namespace safeopt::fta
