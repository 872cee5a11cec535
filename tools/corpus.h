// Deterministic scaling corpus for the preprocessing/BDD ablation benches
// (bench/large_trees.cpp) and the `treegen` generator that writes the same
// trees as study documents (examples/corpus/*.ft).
//
// Shape per tier: `clusters` independent clusters, each a small AND/OR
// forest over `cluster_leaves` basic events (occasional shared leaf inside
// a cluster, occasional 2-of-m vote or INHIBIT root), joined by one top
// `vote_k`-of-`clusters` gate. The clusters share no leaves, so each
// cluster root is a Dutuit–Rauzy module: the plain BDD must thread the
// vote count through every one of the ~clusters·cluster_leaves variables
// (≈ leaves · k decision nodes), while the modularized BDD compiles each
// cluster once and votes over `clusters` pseudo-leaves (≈ leaves +
// clusters · k). That gap — an order of magnitude and growing with the
// tier — is exactly what BENCH_large_trees.json gates.
//
// Everything is derived from CorpusSpec::seed via the repo's xoshiro256++,
// so a tier regenerates bit-identically on any machine; CI diffs the
// committed corpus document against a fresh `treegen` run.
#ifndef SAFEOPT_TOOLS_CORPUS_H
#define SAFEOPT_TOOLS_CORPUS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "safeopt/fta/fault_tree.h"
#include "safeopt/fta/probability.h"
#include "safeopt/support/contracts.h"
#include "safeopt/support/strings.h"
#include "safeopt/support/rng.h"

namespace safeopt::corpus {

/// One scaling tier: `clusters * cluster_leaves` basic events under a
/// `vote_k`-of-`clusters` top gate, generated from `seed`.
struct CorpusSpec {
  std::string name;           // tier label: "1k", "10k", "100k"
  std::size_t clusters = 0;
  std::size_t cluster_leaves = 0;
  std::uint32_t vote_k = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] std::size_t events() const noexcept {
    return clusters * cluster_leaves;
  }
};

/// The committed tiers, smallest first. The 1k document ships in
/// examples/corpus/; the larger tiers are regenerated on demand (CI does).
inline std::vector<CorpusSpec> corpus_tiers() {
  return {
      {"1k", 50, 20, 25, 1001},
      {"10k", 100, 100, 50, 1010},
      {"100k", 400, 250, 100, 1100},
  };
}

struct CorpusModel {
  fta::FaultTree tree;
  fta::QuantificationInput input;
};

namespace detail {

inline double uniform(Xoshiro256pp& rng, double lo, double hi) {
  // 53-bit mantissa draw; identical on every platform.
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

/// rng() % n with the tiny modulo bias we can live with in a generator.
inline std::size_t pick(Xoshiro256pp& rng, std::size_t n) {
  SAFEOPT_EXPECTS(n >= 1);
  return static_cast<std::size_t>(rng() % n);
}

}  // namespace detail

/// Builds the tier's fault tree and a matching probability assignment.
/// Deterministic in `spec` alone.
inline CorpusModel make_corpus(const CorpusSpec& spec) {
  SAFEOPT_EXPECTS(spec.clusters >= 2);
  SAFEOPT_EXPECTS(spec.cluster_leaves >= 4);
  SAFEOPT_EXPECTS(spec.vote_k >= 1 && spec.vote_k <= spec.clusters);

  fta::FaultTree tree(concat("corpus_", spec.name));
  Xoshiro256pp rng(spec.seed);
  std::vector<double> event_probability;
  std::vector<double> condition_probability;
  event_probability.reserve(spec.events());

  std::vector<fta::NodeId> cluster_roots;
  cluster_roots.reserve(spec.clusters);
  for (std::size_t c = 0; c < spec.clusters; ++c) {
    // concat instead of operator+: gcc 12's -Wrestrict false positive
    // (PR105651) fires on `const char* + std::string&&` under -O3.
    const std::string prefix = concat("c", std::to_string(c));

    std::vector<fta::NodeId> leaves;
    leaves.reserve(spec.cluster_leaves);
    // Leaf probabilities scale inversely with cluster size so P(cluster)
    // stays mid-range and the top vote is genuinely uncertain — a saturated
    // top event (p -> 1) would make the plain-vs-preprocessed agreement
    // check vacuous.
    const double p_lo = 0.3 / static_cast<double>(spec.cluster_leaves);
    const double p_hi = 1.2 / static_cast<double>(spec.cluster_leaves);
    for (std::size_t e = 0; e < spec.cluster_leaves; ++e) {
      leaves.push_back(
          tree.add_basic_event(concat(prefix, ".e", std::to_string(e))));
      event_probability.push_back(detail::uniform(rng, p_lo, p_hi));
    }

    // Groups of 2..4 consecutive leaves; every fifth group re-uses the last
    // leaf of the previous group, so the cluster is a DAG, not a pure tree
    // (exercises the flatten/merge refcount logic). Sharing is kept
    // *adjacent* on purpose: a leaf referenced across a long variable span
    // would force every BDD — modularized or not — to carry its value
    // through the whole span, drowning the vote-threshold state this corpus
    // is built to measure.
    std::vector<fta::NodeId> groups;
    std::size_t next = 0;
    while (next < leaves.size()) {
      std::size_t take = 2 + detail::pick(rng, 3);
      if (take > leaves.size() - next) take = leaves.size() - next;
      std::vector<fta::NodeId> members(leaves.begin() + next,
                                       leaves.begin() + next + take);
      if (next > 0 && !groups.empty() && detail::pick(rng, 5) == 0) {
        members.push_back(leaves[next - 1]);
      }
      next += take;
      const std::string gate_name =
          concat(prefix, ".g", std::to_string(groups.size()));
      groups.push_back(detail::pick(rng, 2) == 0
                           ? tree.add_and(gate_name, std::move(members))
                           : tree.add_or(gate_name, std::move(members)));
    }

    // Cluster root: mostly OR over the groups, sometimes a 2-of-m vote,
    // sometimes an INHIBIT behind a condition (the paper's constraints).
    const std::size_t flavor = detail::pick(rng, 100);
    if (flavor < 20 && groups.size() >= 3) {
      cluster_roots.push_back(tree.add_k_of_n(prefix, 2, std::move(groups)));
    } else if (flavor < 35) {
      const fta::NodeId cause =
          tree.add_or(concat(prefix, ".cause"), std::move(groups));
      const fta::NodeId condition =
          tree.add_condition(concat(prefix, ".cond"));
      condition_probability.push_back(detail::uniform(rng, 0.5, 0.9));
      cluster_roots.push_back(tree.add_inhibit(prefix, cause, condition));
    } else {
      cluster_roots.push_back(tree.add_or(prefix, std::move(groups)));
    }
  }

  tree.set_top(
      tree.add_k_of_n("top", spec.vote_k, std::move(cluster_roots)));

  fta::QuantificationInput input;
  input.basic_event_probability = std::move(event_probability);
  input.condition_probability = std::move(condition_probability);
  SAFEOPT_ENSURES(input.is_valid_for(tree));
  SAFEOPT_ENSURES(tree.validate().empty());
  return {std::move(tree), std::move(input)};
}

/// The tier whose label is `name`; throws via contract failure if unknown.
inline CorpusSpec tier_by_name(const std::string& name) {
  for (const CorpusSpec& spec : corpus_tiers()) {
    if (spec.name == name) return spec;
  }
  SAFEOPT_EXPECTS(!"unknown corpus tier");
  return {};
}

}  // namespace safeopt::corpus

#endif  // SAFEOPT_TOOLS_CORPUS_H
