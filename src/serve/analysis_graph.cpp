#include "safeopt/serve/analysis_graph.h"

#include <cstdio>
#include <optional>
#include <stdexcept>

#include "safeopt/core/quantification_engine.h"
#include "safeopt/core/study.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/opt/solver.h"
#include "safeopt/support/error.h"
#include "safeopt/support/strings.h"

namespace safeopt::serve {
namespace {

// FNV-1a 64 over arbitrary request text — key material for the raw-text
// parse key and option fingerprints. Documents themselves are keyed on
// ftio::canonical_hash (semantic identity); this is only for strings that
// are already canonical (option lists render deterministically).
std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char byte : text) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char digits[17];
  std::snprintf(digits, sizeof(digits), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(digits, 16);
}

void append_fingerprint_field(std::string& out, std::string_view name,
                              std::string_view value) {
  out += name;
  out += '=';
  out += std::to_string(value.size());
  out += ':';
  out += value;
  out += ';';
}

void append_optional_fingerprint_field(std::string& out, std::string_view name,
                                       const std::optional<std::string>& value) {
  // "-" vs "+<value>" keeps an absent option distinct from an empty string.
  append_fingerprint_field(out, name,
                           value.has_value() ? concat("+", *value) : "-");
}

bool control_fired(const ExecutionControl* control) {
  return control != nullptr && control->should_abort();
}

/// A quantification outcome is reusable only when nothing request-specific
/// leaked into it: no abort mid-estimate, no degradation note, and the
/// request's own control never fired.
bool reusable(const HazardResults& results, const ExecutionControl* control) {
  if (control_fired(control)) return false;
  for (const auto& [hazard, result] : results) {
    (void)hazard;
    if (result.aborted.value_or(false)) return false;
    if (!result.diagnostics.empty()) return false;
  }
  return true;
}

}  // namespace

std::string option_fingerprint(const AnalysisOptions& options) {
  // Every component is length-prefixed, so option values containing the
  // joining punctuation cannot alias two distinct configurations onto one
  // compile/quantify cache key (["a=1,b=2"] != ["a=1", "b=2"]).
  std::string out;
  append_optional_fingerprint_field(out, "engine", options.engine);
  for (const std::string& option : options.engine_options) {
    append_fingerprint_field(out, "engine_option", option);
  }
  append_optional_fingerprint_field(out, "solver", options.solver);
  for (const std::string& extra : options.extras) {
    append_fingerprint_field(out, "extra", extra);
  }
  append_optional_fingerprint_field(
      out, "seed",
      options.seed.has_value()
          ? std::optional<std::string>(std::to_string(*options.seed))
          : std::nullopt);
  return out;
}

const std::vector<PassDesc>& analysis_passes() {
  static const std::vector<PassDesc> passes = {
      {"parse", "study document + canonical hash", ""},
      {"validate", "structural problem list", "parse"},
      {"compile", "core::Study with compiled leaf tapes and engines", "parse"},
      {"preprocess", "normalized/modularized trees (inside compile's study)",
       "compile"},
      {"mcs", "minimal cut sets (inside compile's study)", "preprocess"},
      {"bdd", "BDD / engine state (inside compile's study)", "mcs"},
      {"quantify", "hazard probabilities + cost at a point", "bdd"},
      {"optimize", "optimum + quantification at the optimum", "quantify"},
  };
  return passes;
}

// ----------------------------------------------------------------- artifacts

struct AnalysisGraph::ParsedArtifact {
  ftio::StudyDocument doc;
  std::string canonical_hex;
  std::size_t text_bytes = 0;
};

struct AnalysisGraph::CompiledArtifact {
  std::shared_ptr<const ParsedArtifact> parsed;  // hazard order, model shape
  core::Study study;  // immutable; its const members are thread-safe
};

struct AnalysisGraph::QuantifyOutcome {
  expr::ParameterAssignment at;
  HazardResults results;
  double cost = 0.0;
  std::string engine_name;
};

struct AnalysisGraph::OptimizeOutcome {
  bool converged = false;
  std::size_t evaluations = 0;
  expr::ParameterAssignment optimum;
  HazardResults results;
  double cost = 0.0;
};

struct AnalysisGraph::ValidateOutcome {
  std::size_t parameters = 0;
  std::size_t trees = 0;
  std::size_t hazards = 0;
  std::vector<std::string> problems;
};

// -------------------------------------------------------------------- passes

AnalysisGraph::AnalysisGraph(std::size_t cache_bytes)
    : cache_(cache_bytes) {}

std::shared_ptr<const AnalysisGraph::ParsedArtifact> AnalysisGraph::parse_pass(
    const std::string& document_text) {
  const std::string key = concat("parse:", hex64(fnv1a(document_text)));
  return cache_.get_as<ParsedArtifact>(key, [&] {
    auto artifact = std::make_shared<ParsedArtifact>();
    artifact->doc = ftio::parse_study(document_text, "request");
    artifact->canonical_hex = ftio::canonical_hash_hex(artifact->doc);
    artifact->text_bytes = document_text.size();
    CacheEntry entry;
    entry.value = artifact;
    entry.bytes = document_text.size() * 4 + 1024;
    return entry;
  });
}

std::shared_ptr<const AnalysisGraph::CompiledArtifact>
AnalysisGraph::compile_pass(
    const std::shared_ptr<const ParsedArtifact>& parsed,
    const AnalysisOptions& options, const ExecutionControl* control,
    std::string* key_fingerprint) {
  const std::string fingerprint =
      concat(parsed->canonical_hex, ":",
             hex64(fnv1a(option_fingerprint(options))));
  if (key_fingerprint != nullptr) *key_fingerprint = fingerprint;
  const std::string key = concat("compile:", fingerprint);
  return cache_.get_as<CompiledArtifact>(key, [&] {
    // Request overrides layer exactly like the CLI's --solver/--extra/
    // --seed/--engine/--engine-opt; the engines are built once, under this
    // request's control.
    auto artifact = std::make_shared<CompiledArtifact>(
        parsed, core::Study::from_document(parsed->doc, options, control));
    CacheEntry entry;
    entry.value = artifact;
    // The compiled tapes + engine state dominate; scale the estimate off
    // the document size (the budget is a shedding threshold, not an
    // accounting ledger).
    entry.bytes = parsed->text_bytes * 16 + 8192;
    // Engines built under a fired control may have degraded to a fallback:
    // such an artifact is this request's alone.
    entry.store = !control_fired(control);
    entry.share = entry.store;
    return entry;
  });
}

// ------------------------------------------------------------------ quantify

void check_constant_model_options(const AnalysisOptions& options) {
  if (!options.at.empty()) {
    throw std::invalid_argument(
        "evaluation point given, but the model declares no free parameters");
  }
  if (options.solver.has_value() || !options.extras.empty() ||
      options.seed.has_value()) {
    throw std::invalid_argument(
        "solver options have no effect when quantifying a constant model "
        "(no free parameters, nothing to optimize)");
  }
}

ConstantQuantification quantify_constant_model(
    const ftio::StudyDocument& doc, const core::StudyOverrides& overrides,
    const ExecutionControl* control) {
  ConstantQuantification out;
  const auto [engine_name, engine_config] =
      core::document_engine_selection(doc, overrides);
  out.engine_name = engine_name;
  for (const ftio::HazardDecl& hazard : doc.hazards) {
    const ftio::TreeModel* model = doc.find_tree(hazard.tree);
    const fta::QuantificationInput input = model->constant_input();
    std::string degradation;
    const auto engine = core::create_engine_with_fallback(
        engine_name, model->tree, engine_config, &degradation, control);
    core::QuantificationResult result = engine->quantify(input, control);
    if (!degradation.empty()) result.diagnostics.push_back(degradation);
    out.results.emplace_back(hazard.tree, std::move(result));
    out.cost += hazard.cost * out.results.back().second.probability;
  }
  return out;
}

std::string AnalysisGraph::quantify(const std::string& document_text,
                                    const AnalysisOptions& options,
                                    const ExecutionControl* control) {
  const auto parsed = parse_pass(document_text);
  const ftio::StudyDocument& doc = parsed->doc;
  if (doc.hazards.empty()) {
    throw std::invalid_argument(
        "document declares no hazards; nothing to quantify");
  }

  if (doc.parameters.empty()) {
    // Constant (parameter-less) model: no compile pass; the engines are
    // built per computation, under this request's control.
    check_constant_model_options(options);
    const std::string key =
        concat("quantify:const:", parsed->canonical_hex, ":",
               hex64(fnv1a(option_fingerprint(options))));
    const auto outcome = cache_.get_as<ConstantQuantification>(key, [&] {
      auto computed = std::make_shared<ConstantQuantification>(
          quantify_constant_model(doc, options, control));
      CacheEntry entry;
      entry.value = computed;
      entry.bytes = 512 + computed->results.size() * 512;
      entry.store = reusable(computed->results, control);
      // An outcome computed under a fired control (aborted mid-estimate) is
      // this request's alone; single-flight waiters must recompute.
      entry.share = !control_fired(control);
      return entry;
    });
    return render_constant_quantify_response(options.model,
                                             outcome->engine_name,
                                             outcome->results, outcome->cost);
  }

  std::string fingerprint;
  const auto compiled = compile_pass(parsed, options, control, &fingerprint);
  const core::Study& study = compiled->study;

  const expr::ParameterAssignment at =
      study.space().evaluation_point(options.at);
  std::string at_fingerprint;
  for (const auto& [name, value] : at.entries()) {
    char number[48];
    std::snprintf(number, sizeof(number), "%.17g", value);
    at_fingerprint += concat(name, "=", number, ";");
  }

  const std::string key =
      concat("quantify:", fingerprint, ":", hex64(fnv1a(at_fingerprint)));
  const auto outcome = cache_.get_as<QuantifyOutcome>(key, [&] {
    auto computed = std::make_shared<QuantifyOutcome>();
    computed->at = at;
    computed->engine_name = study.engine_name();
    computed->cost = study.evaluate_at(at).cost;
    for (const ftio::HazardDecl& hazard : compiled->parsed->doc.hazards) {
      computed->results.emplace_back(hazard.tree,
                                     study.quantify(hazard.tree, at, control));
    }
    CacheEntry entry;
    entry.value = computed;
    entry.bytes = 512 + computed->results.size() * 512;
    entry.store = reusable(computed->results, control);
    entry.share = !control_fired(control);
    return entry;
  });
  return render_quantify_response(options.model, outcome->engine_name,
                                  outcome->at, outcome->results,
                                  outcome->cost);
}

// ------------------------------------------------------------------ optimize

std::string AnalysisGraph::optimize(const std::string& document_text,
                                    const AnalysisOptions& options,
                                    const ExecutionControl* control) {
  const auto parsed = parse_pass(document_text);
  std::string fingerprint;
  const auto compiled = compile_pass(parsed, options, control, &fingerprint);
  const core::Study& study = compiled->study;

  const std::string key = concat("optimize:", fingerprint);
  const auto outcome = cache_.get_as<OptimizeOutcome>(key, [&] {
    const auto result = study.run(control);
    auto computed = std::make_shared<OptimizeOutcome>();
    computed->converged = result.optimization.converged;
    computed->evaluations = result.optimization.evaluations;
    computed->optimum = result.optimal_parameters;
    computed->cost = result.cost;
    for (const ftio::HazardDecl& hazard : compiled->parsed->doc.hazards) {
      computed->results.emplace_back(
          hazard.tree,
          study.quantify(hazard.tree, computed->optimum, control));
    }
    CacheEntry entry;
    entry.value = computed;
    entry.bytes = 1024 + computed->results.size() * 512;
    // Seeded solvers are deterministic, so a clean run is reusable; an
    // aborted one (deadline/cancel returns best-so-far, converged=false)
    // is request-specific and must not be served to others — neither from
    // the cache nor through a single-flight join.
    entry.store =
        reusable(computed->results, control) && !control_fired(control);
    entry.share = !control_fired(control);
    return entry;
  });
  return render_optimize_response(
      options.model, study.solver_name(), study.engine_name(),
      outcome->converged, outcome->evaluations, outcome->optimum,
      outcome->results, outcome->cost);
}

// ------------------------------------------------------------------ validate

std::vector<std::string> validate_problems(
    const ftio::StudyDocument& doc, const core::StudyOverrides& overrides) {
  std::vector<std::string> problems;
  for (const ftio::TreeModel& model : doc.trees) {
    for (const std::string& problem : model.tree.validate()) {
      problems.push_back(concat("tree ", model.tree.name(), ": ", problem));
    }
  }
  if (doc.hazards.empty()) {
    problems.emplace_back(
        "no hazards declared; `safeopt run` needs at least one "
        "\"hazard <tree> cost = <c>;\"");
  }
  try {
    (void)core::document_solver_selection(doc);
    (void)core::document_engine_selection(doc, overrides);
    if (!doc.parameters.empty() && !doc.hazards.empty()) {
      // Solver::validate on the document's box and solver config: what
      // `run` would reject before its first evaluation.
      const core::Study study = core::Study::from_document(doc, overrides);
      opt::SolverRegistry::create(study.solver_name())
          ->validate(study.problem(), study.solver_config());
    } else if (doc.parameters.empty()) {
      AnalysisOptions options;
      static_cast<core::StudyOverrides&>(options) = overrides;
      check_constant_model_options(options);
    }
  } catch (const std::invalid_argument& error) {
    problems.emplace_back(error.what());
  } catch (const Error& error) {
    // The eager engine build exhausted a budget or deadline.
    problems.emplace_back(error.what());
  }
  return problems;
}

std::string AnalysisGraph::validate(const std::string& document_text,
                                    const AnalysisOptions& options) {
  const auto parsed = parse_pass(document_text);
  const std::string key =
      concat("validate:", parsed->canonical_hex, ":",
             hex64(fnv1a(option_fingerprint(options))));
  const auto outcome = cache_.get_as<ValidateOutcome>(key, [&] {
    auto computed = std::make_shared<ValidateOutcome>();
    computed->parameters = parsed->doc.parameters.size();
    computed->trees = parsed->doc.trees.size();
    computed->hazards = parsed->doc.hazards.size();
    computed->problems = validate_problems(parsed->doc, options);
    CacheEntry entry;
    entry.value = computed;
    entry.bytes = 256;
    for (const std::string& problem : computed->problems) {
      entry.bytes += problem.size();
    }
    return entry;
  });
  return render_validate_response(options.model, outcome->parameters,
                                  outcome->trees, outcome->hazards,
                                  outcome->problems);
}

}  // namespace safeopt::serve
