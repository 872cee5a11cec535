// treegen — writes the deterministic scaling-corpus tiers (tools/corpus.h)
// as study documents the CLI and the tests can load.
//
// Usage:
//   treegen --list                      print the known tiers
//   treegen --tier 1k [--out PATH]      write one tier (default: stdout)
//
// The emitted document carries the full tree, every leaf probability, a
// unit-cost hazard and an `engine bdd;` selection (the bdd engine always
// preprocesses and quantifies module by module), so
//   safeopt quantify examples/corpus/corpus_1k.ft
// works out of the box. Output is bit-identical across machines for a
// given tier (seeded xoshiro256++, format_double round-trip) — CI diffs
// the committed 1k document against a fresh run.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "safeopt/ftio/writer.h"
#include "safeopt/support/strings.h"
#include "tools/corpus.h"

namespace {

void print_tiers() {
  std::printf("%-6s %10s %10s %8s %8s\n", "tier", "clusters", "leaves/cl",
              "vote", "events");
  for (const safeopt::corpus::CorpusSpec& spec :
       safeopt::corpus::corpus_tiers()) {
    std::printf("%-6s %10zu %10zu %8u %8zu\n", spec.name.c_str(),
                spec.clusters, spec.cluster_leaves, spec.vote_k,
                spec.events());
  }
}

std::string render(const safeopt::corpus::CorpusSpec& spec) {
  const safeopt::corpus::CorpusModel model = safeopt::corpus::make_corpus(spec);
  std::string out;
  out += safeopt::concat(
      "# corpus_", spec.name,
      " -- deterministic scaling-corpus tier (tools/corpus.h).\n");
  out += safeopt::concat("# ", std::to_string(spec.clusters), " clusters x ",
                         std::to_string(spec.cluster_leaves), " leaves, top ",
                         std::to_string(spec.vote_k), "-of-",
                         std::to_string(spec.clusters), " vote, seed ",
                         std::to_string(spec.seed), ".\n");
  out += safeopt::concat("# Regenerate: treegen --tier ", spec.name,
                         " --out <this file>\n");
  out += safeopt::ftio::write_fault_tree(model.tree, model.input);
  out += safeopt::concat("hazard ", model.tree.name(), " cost = 1;\n");
  // The only engine that survives this scale; MOCUS on a wide vote gate
  // would enumerate C(n, k) cut sets.
  out += "engine bdd;\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tier;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      print_tiers();
      return 0;
    }
    if (std::strcmp(argv[i], "--tier") == 0 && i + 1 < argc) {
      tier = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: treegen --list | --tier NAME [--out PATH]\n");
      return 2;
    }
  }
  if (tier.empty()) {
    std::fprintf(stderr, "usage: treegen --list | --tier NAME [--out PATH]\n");
    return 2;
  }
  bool known = false;
  for (const safeopt::corpus::CorpusSpec& spec :
       safeopt::corpus::corpus_tiers()) {
    known = known || spec.name == tier;
  }
  if (!known) {
    std::fprintf(stderr, "unknown tier \"%s\"; known tiers:\n", tier.c_str());
    print_tiers();
    return 2;
  }

  const std::string document = render(safeopt::corpus::tier_by_name(tier));
  if (out_path.empty()) {
    std::fwrite(document.data(), 1, document.size(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out.write(document.data(),
            static_cast<std::streamsize>(document.size()));
  return out.good() ? 0 : 1;
}
