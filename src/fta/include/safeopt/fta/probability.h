// Quantitative FTA (paper §II-C and §II-D.1).
//
// Given per-basic-event probabilities (and per-condition *constraint
// probabilities*), the top-event probability is computed from the minimal cut
// sets. Three methods are provided:
//
//   kRareEvent          — the paper's Eq. 1/2: P(H) = Σ P(MCS), where
//                         P(MCS) = P(Constraints)·∏ P(PF). Overestimates
//                         (first Bonferroni bound) but is the engineering
//                         standard for small probabilities.
//   kMinCutUpperBound   — P(H) ≈ 1 − ∏(1 − P(MCS)); tighter than rare-event,
//                         still an upper bound for coherent trees.
//   kInclusionExclusion — exact for statistically independent leaves; cost is
//                         exponential in the number of cut sets (guarded).
//
// `exact_probability_bruteforce` integrates the structure function over all
// leaf assignments; it is the oracle the test suite checks everything else
// against, and the only method here that is exact for XOR trees.
#ifndef SAFEOPT_FTA_PROBABILITY_H
#define SAFEOPT_FTA_PROBABILITY_H

#include <string_view>
#include <vector>

#include "safeopt/fta/cut_sets.h"
#include "safeopt/fta/fault_tree.h"

namespace safeopt::fta {

/// Probabilities for every leaf of one fault tree.
struct QuantificationInput {
  /// P(PF_i), indexed by BasicEventOrdinal. All values in [0, 1].
  std::vector<double> basic_event_probability;
  /// Constraint probabilities for INHIBIT conditions, indexed by
  /// ConditionOrdinal. Defaulting a condition to 1.0 recovers classical
  /// worst-case quantitative FTA (paper: "If one chooses P(Constraints)=1 ...
  /// one gets the same formula as before").
  std::vector<double> condition_probability;

  /// Builds an input sized for `tree` with every basic event at
  /// `default_event_p` and every condition at 1 (worst case).
  [[nodiscard]] static QuantificationInput for_tree(const FaultTree& tree,
                                                    double default_event_p);

  /// Sets the probability of the leaf named `name`. Precondition: the name
  /// refers to a basic event or condition of `tree`.
  void set(const FaultTree& tree, std::string_view name, double p);

  /// True if sized for `tree` and all probabilities lie in [0, 1].
  [[nodiscard]] bool is_valid_for(const FaultTree& tree) const noexcept;
};

enum class ProbabilityMethod {
  kRareEvent,
  kMinCutUpperBound,
  kInclusionExclusion,
};

/// How multiple INHIBIT constraints on one cut set combine (paper §II-D.1):
/// "An upper bound for the constraint probability is then the product of all
/// conditions' probabilities if statistical independence holds; if not then
/// the maximum is an upper bound for it."
enum class ConstraintCombination {
  /// ∏ P(condition) — exact under independence (the default everywhere).
  kIndependentProduct,
  /// min P(condition) — a valid upper bound under arbitrary dependence
  /// (P(A ∩ B) <= min(P(A), P(B))); use when constraints may be correlated.
  kDependentUpperBound,
};

/// P(MCS) = P(Constraints) · ∏_{PF ∈ MCS} P(PF) — paper Eq. 2, with the
/// constraint factor combined per `combination`.
[[nodiscard]] double cut_set_probability(
    const CutSet& cut_set, const QuantificationInput& input,
    ConstraintCombination combination =
        ConstraintCombination::kIndependentProduct);

/// kInclusionExclusion sums over every non-empty subset of the cut sets
/// (2^m − 1 terms), so it is capped at this many minimal cut sets.
inline constexpr std::size_t kInclusionExclusionMaxCutSets = 25;

/// Top-event probability from minimal cut sets by the chosen method.
/// Results are clamped into [0, 1].
/// Precondition for kInclusionExclusion:
/// mcs.size() <= kInclusionExclusionMaxCutSets.
/// (kInclusionExclusion always combines constraints as independent; the
/// dependent bound is only meaningful for the two bounding methods.)
[[nodiscard]] double top_event_probability(
    const CutSetCollection& mcs, const QuantificationInput& input,
    ProbabilityMethod method = ProbabilityMethod::kRareEvent,
    ConstraintCombination combination =
        ConstraintCombination::kIndependentProduct);

/// Exact P(top) by summing the probability mass of every leaf assignment for
/// which the structure function is true. Exponential: requires
/// basic_event_count() + condition_count() <= 24.
[[nodiscard]] double exact_probability_bruteforce(
    const FaultTree& tree, const QuantificationInput& input);

}  // namespace safeopt::fta

#endif  // SAFEOPT_FTA_PROBABILITY_H
