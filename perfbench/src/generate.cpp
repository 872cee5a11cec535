#include "generate.h"

#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

#include "safeopt/ftio/writer.h"
#include "safeopt/prep/preprocess.h"
#include "safeopt/support/rng.h"
#include "safeopt/support/strings.h"
#include "tools/corpus.h"

namespace perfbench {
namespace {

using safeopt::concat;
using safeopt::format_double;

// The four group flavours of a generated study tree, four leaves each.
// They are dealt in equal shares and only their order is shuffled, so the
// cut-set count (and with it the MOCUS work) does not depend on the seed.
// MOCUS has no size budget yet, so a seed-dependent shape could blow up.
enum class Flavour { kInhibit, kAndOfOrs, kOrOfAnds, kAndOr };
constexpr std::size_t kParameters = 4;
constexpr std::size_t kGroups = 32;  // four leaves each: 128 per tree
constexpr std::array<Flavour, 4> kFlavours = {
    Flavour::kInhibit, Flavour::kAndOfOrs, Flavour::kOrOfAnds,
    Flavour::kAndOr};

std::size_t cut_sets_of(Flavour flavour) {
  switch (flavour) {
    case Flavour::kInhibit: return 1;   // inhibit(and(a,b,c), cond)
    case Flavour::kAndOfOrs: return 4;  // and(or(a,b), or(c,d))
    case Flavour::kOrOfAnds: return 2;  // or(and(a,b), and(c,d))
    case Flavour::kAndOr: return 3;     // and(a, or(b,c,d))
  }
  return 0;
}

// Which way a tree's leaves move with their parameter.
enum class Trend { kRising, kFalling };

std::string leaf_expression(safeopt::Rng& rng, Trend trend) {
  const std::size_t parameter = safeopt::uniform_index(rng, kParameters);
  const std::string x = concat("X", std::to_string(parameter));
  if (trend == Trend::kRising) {
    // Wear-out: longer intervals raise the failure probability.
    return concat("1 - exp(-", format_double(safeopt::uniform(rng, 2e-5, 8e-5)),
                  " * ", x, ")");
  }
  // Nuisance: every maintenance action risks a trip, so longer intervals
  // lower it.
  return concat("1 - exp(-", format_double(safeopt::uniform(rng, 0.01, 0.05)),
                " / ", x, ")");
}

std::string tree_section(safeopt::Rng& rng, const std::string& tree,
                         const char* prefix, Trend trend) {
  std::vector<Flavour> flavours;
  for (std::size_t g = 0; g < kGroups; ++g) {
    flavours.push_back(kFlavours[g % kFlavours.size()]);
  }
  for (std::size_t i = flavours.size(); i > 1; --i) {
    std::swap(flavours[i - 1], flavours[safeopt::uniform_index(rng, i)]);
  }

  std::string gates;
  std::string leaves;
  std::string top = concat(tree, " or");
  for (std::size_t g = 0; g < flavours.size(); ++g) {
    const std::string group = concat(prefix, std::to_string(g));
    const auto leaf = [&](char letter) {
      const std::string name = concat(group, "_", std::string(1, letter));
      leaves += concat(name, " prob = ",
                       leaf_expression(rng, trend), ";\n");
      return name;
    };
    top += concat(" ", group);
    switch (flavours[g]) {
      case Flavour::kInhibit: {
        const std::string a = leaf('a'), b = leaf('b'), c = leaf('c');
        const std::string condition = concat(group, "_cond");
        leaves += concat(condition, " condition prob = ",
                         format_double(safeopt::uniform(rng, 0.2, 0.8)),
                         ";\n");
        gates += concat(group, " inhibit ", group, "_all ", condition, ";\n",
                        group, "_all and ", a, " ", b, " ", c, ";\n");
        break;
      }
      case Flavour::kAndOfOrs: {
        const std::string a = leaf('a'), b = leaf('b'), c = leaf('c'),
                          d = leaf('d');
        gates += concat(group, " and ", group, "_l ", group, "_r;\n", group,
                        "_l or ", a, " ", b, ";\n", group, "_r or ", c, " ",
                        d, ";\n");
        break;
      }
      case Flavour::kOrOfAnds: {
        const std::string a = leaf('a'), b = leaf('b'), c = leaf('c'),
                          d = leaf('d');
        gates += concat(group, " or ", group, "_l ", group, "_r;\n", group,
                        "_l and ", a, " ", b, ";\n", group, "_r and ", c, " ",
                        d, ";\n");
        break;
      }
      case Flavour::kAndOr: {
        const std::string a = leaf('a'), b = leaf('b'), c = leaf('c'),
                          d = leaf('d');
        gates += concat(group, " and ", a, " ", group, "_any;\n", group,
                        "_any or ", b, " ", c, " ", d, ";\n");
        break;
      }
    }
  }
  return concat("tree ", tree, ";\ntoplevel ", tree, ";\n", top, ";\n",
                gates, leaves, "\n");
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t study_cut_sets_per_tree() {
  std::size_t total = 0;
  for (std::size_t g = 0; g < kGroups; ++g) {
    total += cut_sets_of(kFlavours[g % kFlavours.size()]);
  }
  return total;
}

std::string make_study_document(std::uint64_t seed) {
  safeopt::Rng rng(seed);
  std::string out = concat("# perfbench study, seed ", std::to_string(seed),
                           "\n");
  for (std::size_t p = 0; p < kParameters; ++p) {
    out += concat("param X", std::to_string(p),
                  " in [4, 104] unit \"weeks\" desc \"maintenance interval ",
                  std::to_string(p), "\";\n");
  }
  out += "\n";
  out += tree_section(rng, "Risk", "r", Trend::kRising);
  out += tree_section(rng, "Outage", "o", Trend::kFalling);
  // Weights put the optimum inside the box: rare-event risk grows like X^2
  // and outages fall like 1/X^2 (order-2 cut sets of either tree).
  out +=
      "hazard Risk cost = 100000;\n"
      "hazard Outage cost = 700000;\n"
      "solver multi_start starts = 8 inner = nelder_mead;\n"
      "engine fta;\n"
      "formula rare_event;\n";
  return out;
}

namespace {

std::string tier_document(const safeopt::corpus::CorpusSpec& spec,
                          const safeopt::corpus::CorpusModel& model,
                          const std::string& engine_line) {
  return concat("# perfbench corpus tier ", spec.name, ", seed ",
                std::to_string(spec.seed), ", top ",
                std::to_string(spec.vote_k), "-of-",
                std::to_string(spec.clusters), "\n",
                safeopt::ftio::write_fault_tree(model.tree, model.input),
                "hazard ", model.tree.name(), " cost = 1;\n", engine_line);
}

}  // namespace

std::string make_large_tier_document(std::uint64_t seed) {
  safeopt::corpus::CorpusSpec spec = safeopt::corpus::tier_by_name("10k");
  spec.seed = seed;
  return tier_document(spec, safeopt::corpus::make_corpus(spec),
                       "engine bdd preprocess = true;\n");
}

std::string make_sampling_tier_document(std::uint64_t seed,
                                        double min_probability,
                                        std::uint64_t trials, double* exact) {
  safeopt::corpus::CorpusSpec spec = safeopt::corpus::tier_by_name("1k");
  spec.seed = seed;
  // The shipped 1k tier (25-of-50) sits near 1e-5, which a fixed trial
  // budget cannot resolve; take the highest vote threshold whose top is
  // common enough. Every threshold is evaluated, so the set-up work does
  // not depend on where the seed's answer lies.
  const std::uint32_t shipped_k = spec.vote_k;
  std::uint32_t chosen_k = 0;
  for (std::uint32_t k = shipped_k; k >= 1; --k) {
    spec.vote_k = k;
    const safeopt::corpus::CorpusModel model =
        safeopt::corpus::make_corpus(spec);
    const double probability =
        safeopt::prep::quantify_bdd(safeopt::prep::preprocess(model.tree),
                                    model.input)
            .probability;
    if (chosen_k == 0 && probability >= min_probability) {
      chosen_k = k;
      *exact = probability;
    }
  }
  if (chosen_k != 0) {
    spec.vote_k = chosen_k;
    return tier_document(
        spec, safeopt::corpus::make_corpus(spec),
        concat("engine mc trials = ", std::to_string(trials), ";\n"));
  }
  throw std::runtime_error("no vote threshold reaches the target probability");
}

}  // namespace perfbench
