#include "safeopt/core/study.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "safeopt/expr/eval_backend.h"
#include "safeopt/support/strings.h"

namespace safeopt::core {
namespace {

/// A document option that must be numeric (counts, seeds, tolerances).
double require_number(const std::string& key, const ftio::OptionValue& value,
                      const char* where) {
  if (value.kind != ftio::OptionValue::Kind::kNumber) {
    throw std::invalid_argument(concat(where, " option \"", key,
                                       "\" must be numeric, got \"",
                                       value.text, "\""));
  }
  return value.number;
}

/// A numeric option that must be a non-negative integer (count_or-grade).
std::size_t require_count(const std::string& key,
                          const ftio::OptionValue& value, const char* where) {
  const double number = require_number(key, value, where);
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (!(number >= 0.0) || number > kMaxExact || number != std::floor(number)) {
    throw std::invalid_argument(concat(where, " option \"", key,
                                       "\" must be a non-negative integer"));
  }
  return static_cast<std::size_t>(number);
}

/// An unquoted text value that *looks* numeric ("8x", "1_000") is a typo,
/// not a string extra — storing it would make count_or/number_or silently
/// fall back to their defaults (same rule as parse_key_value_argument;
/// quoted strings are explicitly text and exempt).
void reject_numeric_looking_text(const std::string& key,
                                 const ftio::OptionValue& value,
                                 const char* where) {
  if (value.kind == ftio::OptionValue::Kind::kText && !value.quoted &&
      numeric_looking(value.text)) {
    throw std::invalid_argument(
        concat(where, " option \"", key, "\" has a malformed numeric value \"",
               value.text, "\""));
  }
}

/// A flag option: numeric 0/1 or the words true/false.
bool require_flag(const std::string& key, const ftio::OptionValue& value,
                  const char* where) {
  if (value.kind == ftio::OptionValue::Kind::kNumber) {
    if (value.number == 0.0 || value.number == 1.0) return value.number != 0.0;
  } else if (value.text == "true" || value.text == "false") {
    return value.text == "true";
  }
  throw std::invalid_argument(concat(where, " option \"", key,
                                     "\" must be 0/1 or true/false, got \"",
                                     value.kind == ftio::OptionValue::Kind::kText
                                         ? value.text
                                         : format_double(value.number),
                                     "\""));
}

/// The HazardFormula a document's `formula` statement selects.
HazardFormula document_formula(const ftio::StudyDocument& document) {
  return document.formula.value_or("rare_event") == "min_cut_upper_bound"
             ? HazardFormula::kMinCutUpperBound
             : HazardFormula::kRareEvent;
}

/// An enumerated text option; returns the matching index into `values` or
/// throws listing the accepted spellings.
std::size_t require_choice(const std::string& key,
                           const ftio::OptionValue& value,
                           std::initializer_list<std::string_view> values) {
  const std::string& text =
      value.kind == ftio::OptionValue::Kind::kText ? value.text : "";
  std::size_t index = 0;
  std::string listed;
  for (const std::string_view candidate : values) {
    if (text == candidate) return index;
    if (index > 0) {
      listed += index + 1 == values.size() ? " or " : ", ";
    }
    listed += candidate;
    ++index;
  }
  throw std::invalid_argument(
      concat("engine option \"", key, "\" must be ", listed, ", got \"",
             value.kind == ftio::OptionValue::Kind::kText
                 ? value.text
                 : format_double(value.number),
             "\""));
}

/// A count option with a lower bound (batch sizes, cache geometries).
std::size_t require_count_at_least(const std::string& key,
                                   const ftio::OptionValue& value,
                                   std::size_t minimum) {
  const std::size_t count = require_count(key, value, "engine");
  if (count < minimum) {
    throw std::invalid_argument(concat("engine option \"", key,
                                       "\" must be >= ",
                                       std::to_string(minimum)));
  }
  return count;
}

/// One row of the engine option schema: the single source of truth shared
/// by document `engine` sections (apply_engine_option), CLI overrides
/// (set_engine_argument -> apply_engine_option) and the diagnostics both
/// emit. `type` and `doc` feed the uniform error/help text; `set`
/// validates and writes the typed EngineConfig field.
struct EngineOptionSpec {
  std::string_view name;
  std::string_view type;  // "enum" | "count" | "number" | "flag"
  std::string_view doc;
  void (*set)(EngineConfig&, const std::string& key,
              const ftio::OptionValue& value);
};

constexpr EngineOptionSpec kEngineOptionSchema[] = {
    {"method", "enum",
     "cut-set probability method: rare_event | min_cut_upper_bound | "
     "inclusion_exclusion",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       constexpr fta::ProbabilityMethod kMethods[] = {
           fta::ProbabilityMethod::kRareEvent,
           fta::ProbabilityMethod::kMinCutUpperBound,
           fta::ProbabilityMethod::kInclusionExclusion};
       config.method = kMethods[require_choice(
           key, value,
           {"rare_event", "min_cut_upper_bound", "inclusion_exclusion"})];
     }},
    {"combination", "enum",
     "INHIBIT constraint combination: independent_product | "
     "dependent_upper_bound",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       config.combination =
           require_choice(key, value,
                          {"independent_product", "dependent_upper_bound"}) ==
                   0
               ? fta::ConstraintCombination::kIndependentProduct
               : fta::ConstraintCombination::kDependentUpperBound;
     }},
    // `trials` is the fixed-N count for "mc"; for "mc_adaptive" the same
    // field caps the adaptive loop, aliased as `budget` for readability.
    {"trials", "count", "Monte Carlo trials (\"mc\") / trial cap",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       config.mc_trials = static_cast<std::uint64_t>(
           require_count_at_least(key, value, 1));
     }},
    {"budget", "count", "alias of trials for \"mc_adaptive\"",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       config.mc_trials = static_cast<std::uint64_t>(
           require_count_at_least(key, value, 1));
     }},
    {"seed", "count", "Monte Carlo base seed",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       config.seed =
           static_cast<std::uint64_t>(require_count(key, value, "engine"));
     }},
    {"target_halfwidth", "number", "adaptive MC target 95% CI half-width",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       const double target = require_number(key, value, "engine");
       if (!(target > 0.0)) {
         throw std::invalid_argument(
             "engine option \"target_halfwidth\" must be > 0");
       }
       config.target_halfwidth = target;
     }},
    {"relative", "flag", "target half-width is relative to the estimate",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       config.relative = require_flag(key, value, "engine");
     }},
    {"batch", "count", "adaptive MC trials per round",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       config.batch = static_cast<std::uint64_t>(
           require_count_at_least(key, value, 1));
     }},
    {"tilt", "number", "importance-sampling proposal tilt (<= 1 disables)",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       const double tilt = require_number(key, value, "engine");
       if (!(tilt >= 0.0)) {
         throw std::invalid_argument("engine option \"tilt\" must be >= 0");
       }
       config.tilt = tilt;
     }},
    // Kept so documents written when preprocessing was optional still
    // parse: the bdd engine always preprocesses and fta never does.
    {"preprocess", "flag", "no-op, kept for old documents (false is rejected)",
     [](EngineConfig&, const std::string& key,
        const ftio::OptionValue& value) {
       if (!require_flag(key, value, "engine")) {
         throw std::invalid_argument(
             "engine option \"preprocess = false\" is no longer supported: "
             "the unpreprocessed bdd path was removed (bdd always "
             "preprocesses, fta never does)");
       }
     }},
    {"ordering", "enum",
     "bdd: structural variable-ordering heuristic: dfs | weight",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       config.ordering = require_choice(key, value, {"dfs", "weight"}) == 0
                             ? bdd::VariableOrdering::kDfs
                             : bdd::VariableOrdering::kWeight;
     }},
    {"table_size", "count",
     "bdd: per-module cap on the unique-table buckets reserved up front",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       config.bdd_table_size = require_count_at_least(key, value, 1);
     }},
    {"cache_size", "count",
     "bdd: per-module cap on the ITE cache entries (power of two)",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       config.bdd_cache_size = require_count_at_least(key, value, 1);
     }},
    {"deadline_ms", "count",
     "wall-clock deadline in milliseconds (0 = none): bounds bdd "
     "construction and each mc/mc_adaptive quantify call",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       config.deadline_ms =
           static_cast<std::uint64_t>(require_count(key, value, "engine"));
     }},
    {"bdd_node_budget", "count",
     "bdd: decision-node cap over all modules (0 = unlimited); exceeding "
     "it aborts compilation with a resource_exhausted error",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       config.bdd_node_budget = require_count(key, value, "engine");
     }},
    {"fallback", "enum",
     "engine to degrade to when construction exhausts a budget or deadline "
     "(an engine name, or none)",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       if (value.kind != ftio::OptionValue::Kind::kText) {
         throw std::invalid_argument(concat(
             "engine option \"", key, "\" must be an engine name or none"));
       }
       if (value.text == "none") {
         config.fallback.clear();
         return;
       }
       if (!EngineRegistry::contains(value.text)) {
         throw std::invalid_argument(concat(
             "engine option \"", key, "\" names unknown engine \"", value.text,
             "\"; available: ", join(EngineRegistry::available(), ", "),
             ", or none"));
       }
       config.fallback = value.text;
     }},
    {"backend", "enum",
     "compiled-tape evaluation backend (a registered backend name, or auto "
     "for runtime dispatch); unavailable backends degrade with a diagnostic",
     [](EngineConfig& config, const std::string& key,
        const ftio::OptionValue& value) {
       if (value.kind != ftio::OptionValue::Kind::kText) {
         throw std::invalid_argument(concat(
             "engine option \"", key, "\" must be a backend name or auto"));
       }
       if (value.text == "auto") {
         config.backend.clear();
         return;
       }
       // Typos are errors; an *unavailable* registered backend is not — it
       // degrades at resolve time so one document runs on every host.
       if (expr::BackendRegistry::find(value.text) == nullptr) {
         throw std::invalid_argument(concat(
             "engine option \"", key, "\" names unknown backend \"",
             value.text, "\"; registered: ",
             join(expr::BackendRegistry::registered(), ", "), ", or auto"));
       }
       config.backend = value.text;
     }},
};

/// Levenshtein distance, the "did you mean" metric (option names are short,
/// so the quadratic DP is fine).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

/// One `key = value` engine option, the mapping shared by document `engine`
/// sections and the CLI's --engine-opt overrides — a schema lookup, with a
/// uniform "did you mean" diagnostic for unknown names.
void apply_engine_option(EngineConfig& config, const std::string& key,
                         const ftio::OptionValue& value) {
  for (const EngineOptionSpec& spec : kEngineOptionSchema) {
    if (key == spec.name) {
      spec.set(config, key, value);
      return;
    }
  }
  std::string_view nearest;
  std::size_t nearest_distance = key.size();
  std::string supported;
  for (const EngineOptionSpec& spec : kEngineOptionSchema) {
    if (!supported.empty()) supported += ", ";
    supported += spec.name;
    const std::size_t distance = edit_distance(key, spec.name);
    if (distance < nearest_distance) {
      nearest = spec.name;
      nearest_distance = distance;
    }
  }
  throw std::invalid_argument(concat(
      "unknown engine option \"", key, "\"",
      nearest.empty() || nearest_distance > 3
          ? ""
          : concat(" (did you mean \"", nearest, "\"?)"),
      "; supported: ", supported));
}

}  // namespace

std::vector<EngineOptionDoc> engine_option_docs() {
  std::vector<EngineOptionDoc> docs;
  docs.reserve(std::size(kEngineOptionSchema));
  for (const EngineOptionSpec& spec : kEngineOptionSchema) {
    docs.push_back({spec.name, spec.type, spec.doc});
  }
  return docs;
}

std::optional<SolverSelection> document_solver_selection(
    const ftio::StudyDocument& document) {
  if (!document.solver.has_value()) return std::nullopt;
  const ftio::SelectionDecl& selection = *document.solver;
  if (!opt::SolverRegistry::contains(selection.name)) {
    throw std::invalid_argument(
        concat("document selects unknown solver \"", selection.name,
               "\"; available: ",
               join(opt::SolverRegistry::available(), ", ")));
  }
  SolverSelection resolved{selection.name, opt::SolverConfig{}};
  for (const auto& [key, value] : selection.options) {
    if (key == "max_iterations") {
      resolved.config.max_iterations = require_count(key, value, "solver");
    } else if (key == "tolerance") {
      resolved.config.tolerance = require_number(key, value, "solver");
    } else if (key == "max_evaluations") {
      resolved.config.max_evaluations = require_count(key, value, "solver");
    } else if (key == "seed") {
      resolved.config.seed =
          static_cast<std::uint64_t>(require_count(key, value, "solver"));
    } else if (value.kind == ftio::OptionValue::Kind::kNumber) {
      resolved.config.set(key, value.number);
    } else {
      reject_numeric_looking_text(key, value, "solver");
      resolved.config.set(key, value.text);
    }
  }
  return resolved;
}

std::pair<std::string, EngineConfig> document_engine_selection(
    const ftio::StudyDocument& document, const StudyOverrides& overrides) {
  const HazardFormula formula = document_formula(document);
  std::string name = "fta";
  EngineConfig config;
  config.method = formula == HazardFormula::kMinCutUpperBound
                      ? fta::ProbabilityMethod::kMinCutUpperBound
                      : fta::ProbabilityMethod::kRareEvent;
  if (document.engine.has_value()) {
    const ftio::SelectionDecl& selection = *document.engine;
    if (!EngineRegistry::contains(selection.name)) {
      throw std::invalid_argument(
          concat("document selects unknown engine \"", selection.name,
                 "\"; available: ", join(EngineRegistry::available(), ", ")));
    }
    for (const auto& [key, value] : selection.options) {
      apply_engine_option(config, key, value);
    }
    name = selection.name;
  }
  // An engine override keeps the document's engine options (trials, seed,
  // formula-derived method); engine options layer on individual keys.
  if (overrides.engine.has_value()) {
    if (!EngineRegistry::contains(*overrides.engine)) {
      throw std::invalid_argument(
          concat("unknown engine \"", *overrides.engine, "\"; available: ",
                 join(EngineRegistry::available(), ", ")));
    }
    name = *overrides.engine;
  }
  for (const std::string& option : overrides.engine_options) {
    set_engine_argument(config, option);
  }
  return {std::move(name), config};
}

void set_engine_argument(EngineConfig& config,
                         const std::string& key_equals_value) {
  const KeyValueArgument argument =
      parse_key_value_argument(key_equals_value, "engine option");
  const std::string key(argument.key);
  apply_engine_option(config, key,
                      argument.number.has_value()
                          ? ftio::OptionValue::of(*argument.number)
                          : ftio::OptionValue::of(std::string(argument.text)));
}

/// Backing storage for document-loaded studies. The trees are pointer-stable:
/// TreeHazard and the engines hold references into them for the Study's
/// lifetime (including copies, via shared_ptr).
struct Study::OwnedModel {
  std::vector<std::unique_ptr<fta::FaultTree>> trees;
};

Study::Study(CostModel model, ParameterSpace space)
    : optimizer_(std::move(model), std::move(space)) {
  resolve_backend();
}

Study Study::from_document(const ftio::StudyDocument& document,
                           const StudyOverrides& overrides,
                           const ExecutionControl* control) {
  if (document.hazards.empty()) {
    throw std::invalid_argument(
        concat("study document", document.source.empty() ? "" : " ",
               document.source,
               " declares no hazards; add \"hazard <tree> cost = <c>;\""));
  }

  if (document.parameters.empty()) {
    throw std::invalid_argument(
        concat("study document", document.source.empty() ? "" : " ",
               document.source,
               " declares no free parameters; add \"param <name> in "
               "[<lo>, <hi>];\""));
  }
  ParameterSpace space;
  for (const ftio::ParameterDecl& parameter : document.parameters) {
    space.add({parameter.name, parameter.lower, parameter.upper,
               parameter.unit, parameter.description});
  }

  const HazardFormula formula = document_formula(document);

  auto owned = std::make_shared<OwnedModel>();
  std::vector<ParameterizedQuantification> quantifications;
  quantifications.reserve(document.hazards.size());
  CostModel model;
  for (const ftio::HazardDecl& hazard : document.hazards) {
    const ftio::TreeModel* source = document.find_tree(hazard.tree);
    if (source == nullptr) {
      throw std::invalid_argument(
          concat("hazard names unknown tree \"", hazard.tree, "\""));
    }
    if (model.hazards().end() !=
        std::find_if(model.hazards().begin(), model.hazards().end(),
                     [&](const Hazard& h) { return h.name == hazard.tree; })) {
      throw std::invalid_argument(
          concat("duplicate hazard for tree \"", hazard.tree, "\""));
    }
    const fta::FaultTree& tree = *owned->trees.emplace_back(
        std::make_unique<fta::FaultTree>(source->tree));
    ParameterizedQuantification& quantification =
        quantifications.emplace_back(tree);
    for (const ftio::LeafProbability& leaf : source->leaves) {
      if (leaf.is_condition) {
        quantification.set_condition_probability(leaf.name, leaf.probability);
      } else {
        quantification.set_event_probability(leaf.name, leaf.probability);
      }
    }
    model.add_hazard({hazard.tree, quantification.hazard_expression(formula),
                      hazard.cost});
  }

  Study study(std::move(model), std::move(space));
  study.owned_ = owned;
  if (auto selection = document_solver_selection(document)) {
    study.solver(std::move(selection->name), std::move(selection->config));
  }
  if (overrides.solver.has_value() || !overrides.extras.empty() ||
      overrides.seed.has_value()) {
    if (overrides.solver.has_value()) {
      // A fresh solver choice starts from that solver's own defaults, not
      // from another solver's document options.
      if (!opt::SolverRegistry::contains(*overrides.solver)) {
        throw std::invalid_argument(
            concat("unknown solver \"", *overrides.solver, "\"; available: ",
                   join(opt::SolverRegistry::available(), ", ")));
      }
      study.solver_name_ = *overrides.solver;
      study.solver_config_ = opt::SolverConfig{};
    }
    for (const std::string& extra : overrides.extras) {
      study.solver_config_.set_extra_argument(extra);
    }
    if (overrides.seed.has_value()) study.solver_config_.seed = *overrides.seed;
  }
  std::tie(study.engine_name_, study.engine_config_) =
      document_engine_selection(document, overrides);
  study.resolve_backend();
  // Trees attach after the final engine selection, so every engine is
  // built exactly once, under the caller's control.
  for (std::size_t i = 0; i < document.hazards.size(); ++i) {
    study.tree_hazards_.push_back(with_engine(
        {document.hazards[i].tree, owned->trees[i].get(),
         std::make_shared<const LeafTapes>(quantifications[i]), nullptr, {}},
        study.engine_name_, study.engine_config_, control));
  }
  return study;
}

Study Study::from_file(const std::string& path) {
  return from_document(ftio::load_study(path));
}

Study& Study::solver(std::string name, opt::SolverConfig config) {
  solver_name_ = std::move(name);
  solver_config_ = std::move(config);
  return *this;
}

Study& Study::observe(opt::ProgressObserver observer) {
  observer_ = std::move(observer);
  return *this;
}

Study& Study::engine(std::string name, EngineConfig config) {
  // Every engine is built before any is replaced, so a throw leaves the
  // Study as it was.
  std::vector<TreeHazard> rebuilt;
  rebuilt.reserve(tree_hazards_.size());
  for (const TreeHazard& entry : tree_hazards_) {
    rebuilt.push_back(with_engine(entry, name, config, nullptr));
  }
  engine_name_ = std::move(name);
  engine_config_ = std::move(config);
  resolve_backend();
  tree_hazards_ = std::move(rebuilt);
  return *this;
}

Study& Study::hazard_tree(std::string hazard, const fta::FaultTree& tree,
                          const ParameterizedQuantification& quantification) {
  // Validate eagerly — the hazard must exist in the cost model so the
  // engine-quantified probability has an expression-path counterpart.
  (void)model().hazard_by_name(hazard);
  tree_hazards_.push_back(with_engine(
      {std::move(hazard), &tree,
       std::make_shared<const LeafTapes>(quantification), nullptr, {}},
      engine_name_, engine_config_, nullptr));
  return *this;
}

Study::TreeHazard Study::with_engine(TreeHazard entry, std::string_view name,
                                     const EngineConfig& config,
                                     const ExecutionControl* control) {
  // Degradation happens at construction time (budget/deadline blown while
  // compiling), so the downgrade note is kept alongside the engine and
  // replayed into every result it produces.
  entry.degradation.clear();
  entry.engine = create_engine_with_fallback(name, *entry.tree, config,
                                             &entry.degradation, control);
  return entry;
}

void Study::resolve_backend() {
  // Unavailable hardware is a note, not an error (same policy as engine
  // degradation).
  expr::BackendRegistry::Selection selection =
      expr::BackendRegistry::resolve(engine_config_.backend);
  backend_name_ = std::string(selection.backend->name());
  backend_note_ = std::move(selection.diagnostic);
}

SafetyOptimizationResult Study::run(const ExecutionControl* control) const {
  if (control == nullptr && (!observer_ || solver_config_.observer)) {
    return optimizer_.optimize(solver_name_, solver_config_);
  }
  opt::SolverConfig config = solver_config_;
  if (!config.observer) config.observer = observer_;
  if (control != nullptr) config.control = control;
  return optimizer_.optimize(solver_name_, config);
}

SafetyOptimizationResult Study::evaluate_at(
    const expr::ParameterAssignment& configuration) const {
  return optimizer_.evaluate_at(configuration);
}

ComparisonReport Study::compare(
    const expr::ParameterAssignment& baseline,
    const SafetyOptimizationResult& optimal) const {
  return optimizer_.compare(baseline, optimal);
}

QuantificationResult Study::quantify(
    std::string_view hazard, const expr::ParameterAssignment& at,
    const ExecutionControl* control) const {
  for (const TreeHazard& entry : tree_hazards_) {
    if (entry.hazard != hazard) continue;
    QuantificationResult result =
        entry.engine->quantify(entry.leaves->input_at(at), control);
    if (!entry.degradation.empty()) {
      result.diagnostics.push_back(entry.degradation);
    }
    if (!backend_note_.empty()) result.diagnostics.push_back(backend_note_);
    result.backend = backend_name_;
    return result;
  }
  throw std::invalid_argument(
      concat("no fault tree attached for hazard \"", hazard,
             "\"; call Study::hazard_tree first"));
}

}  // namespace safeopt::core
