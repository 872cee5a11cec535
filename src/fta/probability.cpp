#include "safeopt/fta/probability.h"

#include <algorithm>
#include <cmath>

#include "safeopt/support/contracts.h"

namespace safeopt::fta {
namespace {

bool all_probabilities(const std::vector<double>& values) noexcept {
  return std::all_of(values.begin(), values.end(),
                     [](double p) { return p >= 0.0 && p <= 1.0; });
}

double clamp01(double p) noexcept { return std::clamp(p, 0.0, 1.0); }

}  // namespace

QuantificationInput QuantificationInput::for_tree(const FaultTree& tree,
                                                  double default_event_p) {
  SAFEOPT_EXPECTS(default_event_p >= 0.0 && default_event_p <= 1.0);
  QuantificationInput input;
  input.basic_event_probability.assign(tree.basic_event_count(),
                                       default_event_p);
  input.condition_probability.assign(tree.condition_count(), 1.0);
  return input;
}

void QuantificationInput::set(const FaultTree& tree, std::string_view name,
                              double p) {
  SAFEOPT_EXPECTS(p >= 0.0 && p <= 1.0);
  const auto id = tree.find(name);
  SAFEOPT_EXPECTS(id.has_value());
  switch (tree.kind(*id)) {
    case NodeKind::kBasicEvent:
      basic_event_probability[tree.basic_event_ordinal(*id)] = p;
      break;
    case NodeKind::kCondition:
      condition_probability[tree.condition_ordinal(*id)] = p;
      break;
    case NodeKind::kGate:
      SAFEOPT_EXPECTS(false && "cannot assign a probability to a gate");
  }
}

bool QuantificationInput::is_valid_for(const FaultTree& tree) const noexcept {
  return basic_event_probability.size() == tree.basic_event_count() &&
         condition_probability.size() == tree.condition_count() &&
         all_probabilities(basic_event_probability) &&
         all_probabilities(condition_probability);
}

double cut_set_probability(const CutSet& cut_set,
                           const QuantificationInput& input,
                           ConstraintCombination combination) {
  double constraints = 1.0;
  for (const ConditionOrdinal c : cut_set.conditions) {
    SAFEOPT_EXPECTS(c < input.condition_probability.size());
    switch (combination) {
      case ConstraintCombination::kIndependentProduct:
        constraints *= input.condition_probability[c];
        break;
      case ConstraintCombination::kDependentUpperBound:
        constraints = std::min(constraints, input.condition_probability[c]);
        break;
    }
  }
  double p = constraints;
  for (const BasicEventOrdinal e : cut_set.events) {
    SAFEOPT_EXPECTS(e < input.basic_event_probability.size());
    p *= input.basic_event_probability[e];
  }
  return p;
}

double top_event_probability(const CutSetCollection& mcs,
                             const QuantificationInput& input,
                             ProbabilityMethod method,
                             ConstraintCombination combination) {
  switch (method) {
    case ProbabilityMethod::kRareEvent: {
      double sum = 0.0;
      for (const CutSet& cs : mcs) {
        sum += cut_set_probability(cs, input, combination);
      }
      return clamp01(sum);
    }
    case ProbabilityMethod::kMinCutUpperBound: {
      double survive = 1.0;
      for (const CutSet& cs : mcs) {
        survive *= 1.0 - cut_set_probability(cs, input, combination);
      }
      return clamp01(1.0 - survive);
    }
    case ProbabilityMethod::kInclusionExclusion: {
      SAFEOPT_EXPECTS(mcs.size() <= kInclusionExclusionMaxCutSets);
      // P(∪ CS_i) = Σ_{∅≠S⊆MCS} (−1)^{|S|+1} · P(∩_{i∈S} CS_i); for
      // independent leaves the intersection probability is the product over
      // the union of the involved events/conditions.
      const std::size_t m = mcs.size();
      double total = 0.0;
      for (std::uint64_t subset = 1; subset < (1ULL << m); ++subset) {
        std::vector<BasicEventOrdinal> events;
        std::vector<ConditionOrdinal> conditions;
        int bits = 0;
        for (std::size_t i = 0; i < m; ++i) {
          if ((subset & (1ULL << i)) == 0) continue;
          ++bits;
          events.insert(events.end(), mcs[i].events.begin(),
                        mcs[i].events.end());
          conditions.insert(conditions.end(), mcs[i].conditions.begin(),
                            mcs[i].conditions.end());
        }
        std::sort(events.begin(), events.end());
        events.erase(std::unique(events.begin(), events.end()), events.end());
        std::sort(conditions.begin(), conditions.end());
        conditions.erase(std::unique(conditions.begin(), conditions.end()),
                         conditions.end());
        double p = 1.0;
        for (const BasicEventOrdinal e : events) {
          p *= input.basic_event_probability[e];
        }
        for (const ConditionOrdinal c : conditions) {
          p *= input.condition_probability[c];
        }
        total += (bits % 2 == 1) ? p : -p;
      }
      return clamp01(total);
    }
  }
  SAFEOPT_ASSERT(false);
  return 0.0;
}

double exact_probability_bruteforce(const FaultTree& tree,
                                    const QuantificationInput& input) {
  SAFEOPT_EXPECTS(tree.has_top());
  SAFEOPT_EXPECTS(input.is_valid_for(tree));
  const std::size_t n_events = tree.basic_event_count();
  const std::size_t n_conditions = tree.condition_count();
  const std::size_t n_total = n_events + n_conditions;
  SAFEOPT_EXPECTS(n_total <= 24);

  double total = 0.0;
  std::vector<bool> basic(n_events, false);
  std::vector<bool> cond(n_conditions, false);
  for (std::uint64_t mask = 0; mask < (1ULL << n_total); ++mask) {
    double weight = 1.0;
    for (std::size_t i = 0; i < n_events; ++i) {
      const bool on = (mask & (1ULL << i)) != 0;
      basic[i] = on;
      const double p = input.basic_event_probability[i];
      weight *= on ? p : 1.0 - p;
    }
    for (std::size_t i = 0; i < n_conditions; ++i) {
      const bool on = (mask & (1ULL << (n_events + i))) != 0;
      cond[i] = on;
      const double p = input.condition_probability[i];
      weight *= on ? p : 1.0 - p;
    }
    if (weight == 0.0) continue;
    if (tree.evaluate(basic, cond)) total += weight;
  }
  return clamp01(total);
}

}  // namespace safeopt::fta
