// Seeded input generators. Every workload input is a study document in the
// ftio text dialect, made here from the workload seed alone; the library
// sees only the generated text, exactly as the CLI and the service do.
#ifndef PERFBENCH_GENERATE_H
#define PERFBENCH_GENERATE_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// Minimal cut sets of every tree of a generated study, whatever the seed:
/// the group flavours are dealt in fixed proportions (see generate.cpp), so
/// MOCUS work is the same on every seed.
[[nodiscard]] std::size_t study_cut_sets_per_tree();

/// An Elbtunnel-shaped tradeoff study over 4 parameters: a `Risk` hazard
/// whose 128 leaves rise with the parameters (1 - exp(-a*X)) and an
/// `Outage` hazard whose 128 leaves fall (1 - exp(-b/X)), engine fta,
/// formula rare_event, multi-start Nelder-Mead. Deterministic in `seed`.
[[nodiscard]] std::string make_study_document(std::uint64_t seed);

/// The 10k-event scaling-corpus tier (tools/corpus.h) built from `seed`,
/// written as a constant-model document with `engine bdd preprocess =
/// true`, as treegen writes the committed tiers.
[[nodiscard]] std::string make_large_tier_document(std::uint64_t seed);

/// A 1k-event corpus tier built from `seed` whose top vote threshold is
/// lowered until the exact P(top) is at least `min_probability`, written
/// with `engine mc trials = <trials>`. The exact (preprocessed BDD)
/// probability of the chosen tree is returned through `exact`.
[[nodiscard]] std::string make_sampling_tier_document(
    std::uint64_t seed, double min_probability, std::uint64_t trials,
    double* exact);

/// A 64-bit mix of two values (splitmix64 finaliser); derives per-input and
/// per-op seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATE_H
