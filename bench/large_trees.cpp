// Experiment: the preprocessing pipeline + per-module BDD compilation on
// the scaling corpus (tools/corpus.h) — the on/off ablation behind the
// "industrial-scale trees" claim.
//
// For each tier the run quantifies the same tree twice:
//
//   plain  bdd::compile on the raw tree — one monolithic BDD threading the
//          top vote through every variable (skipped above --plain-limit
//          events, where monolithic compilation stops being reasonable);
//   prep   preprocess() (propagate/normalize/flatten/merge/modularize) and
//          CompiledPreprocessedTree — every module compiled once, the top
//          vote taken over module pseudo-variables.
//
// Contracts verified on the way:
//
//   agreement               plain and preprocessed probabilities match to
//                           1e-9 relative (modularization re-associates the
//                           floating-point product, so bitwise equality is
//                           not expected on this path — see prep docs);
//   cache_geometry_invariant the preprocessed probability is *bitwise*
//                           identical when every ITE cache is shrunk to 64
//                           slots (the cache only memoizes);
//   determinism             node counts are seeded-corpus deterministic, so
//                           scripts/compare_bench.py gates them for exact
//                           equality against BENCH_large_trees.json.
//
// Report-only: `parse_ms` times ftio::parse_study on the tier's document
// (write_fault_tree of the tier), the layer in front of the pipeline on the
// exact-quantify path. Three columns count heap allocations through the
// counting global operator new below (this binary only):
// `parse_allocations` of that parse, `prep_allocations` of one preprocess()
// plus CompiledPreprocessedTree construction, and `quantify_allocations` of
// a repeat CompiledPreprocessedTree::probability call.
//
// Usage: bench_large_trees [--json PATH] [--plain-limit EVENTS]
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "safeopt/bdd/bdd.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/ftio/writer.h"
#include "safeopt/prep/preprocess.h"
#include "tools/corpus.h"

namespace {

/// Every successful global operator new of the process, counted.
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Replacements of the global allocation functions (program-wide, so they
// live in exactly this TU of this binary). The aligned and nothrow forms
// keep their library definitions, which this program never reaches for
// the counted phase's element types.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct TierReport {
  std::string name;
  std::size_t events = 0;
  std::size_t modules = 0;
  double probability = 0.0;
  double parse_ms = 0.0;
  double pipeline_ms = 0.0;
  double prep_compile_eval_ms = 0.0;
  std::size_t parse_allocations = 0;
  std::size_t prep_allocations = 0;
  std::size_t quantify_allocations = 0;
  std::size_t prep_decision_nodes = 0;
  std::size_t prep_ite_calls = 0;
  bool plain_measured = false;
  double plain_probability = 0.0;
  double plain_compile_eval_ms = 0.0;
  std::size_t plain_decision_nodes = 0;
  std::size_t plain_ite_calls = 0;
  double node_reduction = 0.0;
  double time_ratio = 0.0;
  double rel_error = 0.0;
  bool agree = true;
  bool cache_geometry_invariant = true;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace safeopt;

  std::string json_path;
  std::size_t plain_limit = 10000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--plain-limit") == 0 && i + 1 < argc) {
      plain_limit = std::strtoull(argv[++i], nullptr, 10);
    }
  }

  // Generous geometry for the monolithic path; the per-module compiler caps
  // each module's cache at its own size anyway, so both paths get the room
  // they can actually use.
  bdd::BddOptions options;
  options.initial_table_size = std::size_t{1} << 16;
  options.cache_size = std::size_t{1} << 20;

  std::printf("=== preprocessing pipeline vs monolithic BDD ===\n\n");
  std::printf("%-6s %8s %8s %12s %12s %9s %9s %9s %9s %9s %9s  %s\n",
              "tier", "events", "modules", "plain nodes", "prep nodes",
              "nodes", "time", "parse ms", "prep al", "parse al", "quant al",
              "P(top)");

  std::vector<TierReport> reports;
  double max_node_reduction = 0.0;
  bool all_agree = true;
  bool all_invariant = true;

  for (const corpus::CorpusSpec& spec : corpus::corpus_tiers()) {
    const corpus::CorpusModel model = corpus::make_corpus(spec);
    TierReport report;
    report.name = spec.name;
    report.events = spec.events();

    const std::string document =
        ftio::write_fault_tree(model.tree, model.input);
    const std::size_t parse_before = g_allocations.load();
    const auto p0 = Clock::now();
    const ftio::StudyDocument parsed = ftio::parse_study(document);
    report.parse_ms = ms_between(p0, Clock::now());
    report.parse_allocations = g_allocations.load() - parse_before;
    if (parsed.trees.size() != 1 ||
        parsed.trees.front().tree.node_count() != model.tree.node_count()) {
      std::fprintf(stderr, "tier %s: the written document did not parse "
                           "back to the tier's tree\n", spec.name.c_str());
      return 1;
    }

    const std::size_t allocations_before = g_allocations.load();
    const auto t0 = Clock::now();
    const prep::PreprocessedTree preprocessed =
        prep::preprocess(model.tree, {});
    const auto t1 = Clock::now();
    prep::CompiledPreprocessedTree compiled(preprocessed, options);
    report.prep_allocations = g_allocations.load() - allocations_before;
    report.probability = compiled.probability(model.input);
    const auto t2 = Clock::now();
    const std::size_t quantify_before = g_allocations.load();
    (void)compiled.probability(model.input);
    report.quantify_allocations = g_allocations.load() - quantify_before;

    report.modules = preprocessed.statistics.modules;
    report.pipeline_ms = ms_between(t0, t1);
    report.prep_compile_eval_ms = ms_between(t1, t2);
    report.prep_decision_nodes = compiled.compile_statistics().decision_nodes;
    report.prep_ite_calls = compiled.compile_statistics().ite_calls;

    // Contract: shrinking every ITE cache 1024x changes nothing but time —
    // the result diagram and the probability are bitwise identical. Checked
    // on the smallest tier only: a starved cache on a wide vote network
    // recomputes instead of memoizing, so the check would dominate the
    // bench's wall clock on the big tiers while proving nothing new.
    if (spec.events() <= 1000) {
      bdd::BddOptions tiny = options;
      tiny.cache_size = std::size_t{1} << 10;
      prep::CompiledPreprocessedTree recompiled(preprocessed, tiny);
      report.cache_geometry_invariant =
          recompiled.probability(model.input) == report.probability;
    }

    if (spec.events() <= plain_limit) {
      const auto t3 = Clock::now();
      bdd::CompiledFaultTree plain = bdd::compile(model.tree, options);
      report.plain_probability = plain.probability(model.input);
      const auto t4 = Clock::now();

      report.plain_measured = true;
      report.plain_compile_eval_ms = ms_between(t3, t4);
      const bdd::BddStatistics& stats = plain.manager.statistics();
      report.plain_decision_nodes = stats.decision_node_count();
      report.plain_ite_calls = static_cast<std::size_t>(stats.ite_calls);
      report.node_reduction =
          static_cast<double>(report.plain_decision_nodes) /
          static_cast<double>(report.prep_decision_nodes);
      report.time_ratio =
          report.plain_compile_eval_ms /
          (report.pipeline_ms + report.prep_compile_eval_ms);
      report.rel_error =
          std::abs(report.plain_probability - report.probability) /
          std::max(report.plain_probability, 1e-300);
      report.agree = report.rel_error < 1e-9;
      max_node_reduction = std::max(max_node_reduction, report.node_reduction);
    }

    all_agree = all_agree && report.agree;
    all_invariant = all_invariant && report.cache_geometry_invariant;

    if (report.plain_measured) {
      std::printf(
          "%-6s %8zu %8zu %12zu %12zu %8.1fx %8.1fx %9.1f %9zu %9zu %9zu  "
          "%.6e\n",
          report.name.c_str(), report.events, report.modules,
          report.plain_decision_nodes, report.prep_decision_nodes,
          report.node_reduction, report.time_ratio, report.parse_ms,
          report.prep_allocations, report.parse_allocations,
          report.quantify_allocations, report.probability);
    } else {
      std::printf(
          "%-6s %8zu %8zu %12s %12zu %9s %9s %9.1f %9zu %9zu %9zu  %.6e\n",
          report.name.c_str(), report.events, report.modules, "(skipped)",
          report.prep_decision_nodes, "-", "-", report.parse_ms,
          report.prep_allocations, report.parse_allocations,
          report.quantify_allocations, report.probability);
    }
    reports.push_back(report);
  }

  std::printf("\ncontracts: agreement %s, cache-geometry invariance %s\n",
              all_agree ? "ok" : "FAIL", all_invariant ? "ok" : "FAIL");
  std::printf("max node reduction: %.1fx\n", max_node_reduction);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"tiers\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const TierReport& r = reports[i];
      out << "    {\"name\": \"" << r.name << "\", \"events\": " << r.events
          << ", \"modules\": " << r.modules << ",\n";
      char buffer[64];
      std::snprintf(buffer, sizeof buffer, "%.17g", r.probability);
      out << "     \"probability\": " << buffer << ",\n";
      out << "     \"parse_ms\": " << r.parse_ms
          << ", \"pipeline_ms\": " << r.pipeline_ms
          << ", \"prep_compile_eval_ms\": " << r.prep_compile_eval_ms
          << ", \"parse_allocations\": " << r.parse_allocations
          << ", \"prep_allocations\": " << r.prep_allocations
          << ", \"quantify_allocations\": " << r.quantify_allocations
          << ",\n     \"prep_decision_nodes\": " << r.prep_decision_nodes
          << ", \"prep_ite_calls\": " << r.prep_ite_calls << ",\n";
      out << "     \"plain_measured\": " << (r.plain_measured ? "true" : "false");
      if (r.plain_measured) {
        std::snprintf(buffer, sizeof buffer, "%.17g", r.plain_probability);
        out << ",\n     \"plain_probability\": " << buffer
            << ", \"plain_compile_eval_ms\": " << r.plain_compile_eval_ms
            << ",\n     \"plain_decision_nodes\": " << r.plain_decision_nodes
            << ", \"plain_ite_calls\": " << r.plain_ite_calls
            << ",\n     \"node_reduction\": " << r.node_reduction
            << ", \"time_ratio\": " << r.time_ratio
            << ", \"rel_error\": " << r.rel_error;
      }
      out << ",\n     \"agree\": " << (r.agree ? "true" : "false")
          << ", \"cache_geometry_invariant\": "
          << (r.cache_geometry_invariant ? "true" : "false") << "}"
          << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"all_agree\": " << (all_agree ? "true" : "false") << ",\n";
    out << "  \"cache_geometry_invariant\": "
        << (all_invariant ? "true" : "false") << ",\n";
    out << "  \"max_node_reduction\": " << max_node_reduction << "\n}\n";
  }

  return (all_agree && all_invariant) ? 0 : 1;
}
