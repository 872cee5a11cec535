#include "safeopt/core/study.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "safeopt/expr/compiled.h"
#include "safeopt/support/contracts.h"
#include "safeopt/support/options.h"
#include "safeopt/support/strings.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::core {
namespace {

/// The HazardFormula a document's `formula` statement selects.
HazardFormula document_formula(const ftio::StudyDocument& document) {
  return document.formula.value_or("rare_event") == "min_cut_upper_bound"
             ? HazardFormula::kMinCutUpperBound
             : HazardFormula::kRareEvent;
}

/// An enumerated option (a name, as check_option ensured); returns the
/// matching index into `values` or throws listing the accepted spellings.
std::size_t require_choice(std::string_view key,
                           const ftio::OptionValue& value,
                           std::initializer_list<std::string_view> values) {
  std::size_t index = 0;
  std::string listed;
  for (const std::string_view candidate : values) {
    if (value.text == candidate) return index;
    if (index > 0) {
      listed += index + 1 == values.size() ? " or " : ", ";
    }
    listed += candidate;
    ++index;
  }
  throw std::invalid_argument(concat("engine option \"", key, "\" must be ",
                                     listed, ", got \"", value.text, "\""));
}

/// One row of the engine option schema: the single source of truth shared
/// by document `engine` sections (apply_engine_option), CLI overrides
/// (set_engine_argument -> apply_engine_option) and the diagnostics both
/// emit. `option` declares the key, its kind, range and doc, and
/// check_option checks every numeric row against it; `set` writes the
/// checked `number` (or, for an enum row, checks and writes the word) into
/// the typed EngineConfig field.
struct EngineOptionSpec {
  OptionSpec option;
  void (*set)(EngineConfig&, const ftio::OptionValue& value, double number);
};

/// The setter of a plain numeric row: the checked number, converted to the
/// field's type (a flag's 0/1 to false/true).
template <auto Field>
void set_field(EngineConfig& config, const ftio::OptionValue&, double number) {
  using Type = std::remove_reference_t<decltype(config.*Field)>;
  config.*Field = static_cast<Type>(number);
}

constexpr EngineOptionSpec kEngineOptionSchema[] = {
    {{.name = "method", .kind = OptionKind::kEnum,
      .doc = "cut-set probability method: rare_event | min_cut_upper_bound | "
             "inclusion_exclusion"},
     [](EngineConfig& config, const ftio::OptionValue& value, double) {
       constexpr fta::ProbabilityMethod kMethods[] = {
           fta::ProbabilityMethod::kRareEvent,
           fta::ProbabilityMethod::kMinCutUpperBound,
           fta::ProbabilityMethod::kInclusionExclusion};
       config.method = kMethods[require_choice(
           "method", value,
           {"rare_event", "min_cut_upper_bound", "inclusion_exclusion"})];
     }},
    {{.name = "combination", .kind = OptionKind::kEnum,
      .doc = "INHIBIT constraint combination: independent_product | "
             "dependent_upper_bound"},
     [](EngineConfig& config, const ftio::OptionValue& value, double) {
       config.combination =
           require_choice("combination", value,
                          {"independent_product", "dependent_upper_bound"}) ==
                   0
               ? fta::ConstraintCombination::kIndependentProduct
               : fta::ConstraintCombination::kDependentUpperBound;
     }},
    // `trials` is the fixed-N count for "mc"; for "mc_adaptive" the same
    // field caps the adaptive loop, aliased as `budget` for readability.
    {{.name = "trials", .kind = OptionKind::kCount, .min = 1,
      .doc = "Monte Carlo trials (\"mc\") / trial cap"},
     &set_field<&EngineConfig::mc_trials>},
    {{.name = "budget", .kind = OptionKind::kCount, .min = 1,
      .doc = "alias of trials for \"mc_adaptive\""},
     &set_field<&EngineConfig::mc_trials>},
    {{.name = "seed", .kind = OptionKind::kCount, .min = 0,
      .doc = "Monte Carlo base seed"},
     &set_field<&EngineConfig::seed>},
    {{.name = "target_halfwidth", .kind = OptionKind::kNumber, .min = 0,
      .min_exclusive = true,
      .doc = "adaptive MC target 95% CI half-width (< 1 when relative)"},
     &set_field<&EngineConfig::target_halfwidth>},
    {{.name = "relative", .kind = OptionKind::kFlag,
      .doc = "target half-width is relative to the estimate"},
     &set_field<&EngineConfig::relative>},
    {{.name = "batch", .kind = OptionKind::kCount, .min = 1,
      .doc = "adaptive MC trials per round"},
     &set_field<&EngineConfig::batch>},
    {{.name = "tilt", .kind = OptionKind::kNumber, .min = 0,
      .doc = "importance-sampling proposal tilt (<= 1 disables)"},
     &set_field<&EngineConfig::tilt>},
    // Kept so documents written when preprocessing was optional still
    // parse: the bdd engine always preprocesses and fta never does.
    {{.name = "preprocess", .kind = OptionKind::kFlag,
      .doc = "no-op, kept for old documents (false is rejected)"},
     [](EngineConfig&, const ftio::OptionValue&, double number) {
       if (number == 0.0) {
         throw std::invalid_argument(
             "engine option \"preprocess = false\" is no longer supported: "
             "the unpreprocessed bdd path was removed (bdd always "
             "preprocesses, fta never does)");
       }
     }},
    {{.name = "deadline_ms", .kind = OptionKind::kCount, .min = 0,
      .doc = "wall-clock deadline in milliseconds (0 = none): bounds fta "
             "MOCUS, bdd construction and each mc/mc_adaptive quantify "
             "call"},
     &set_field<&EngineConfig::deadline_ms>},
    {{.name = "bdd_node_budget", .kind = OptionKind::kCount, .min = 0,
      .doc = "bdd: decision-node cap over all modules (0 = unlimited); "
             "exceeding it aborts compilation with a resource_exhausted "
             "error"},
     &set_field<&EngineConfig::bdd_node_budget>},
    {{.name = "fallback", .kind = OptionKind::kEnum,
      .doc = "engine to degrade to when construction exhausts a budget or "
             "deadline (an engine name, or none)"},
     [](EngineConfig& config, const ftio::OptionValue& value, double) {
       if (value.text == "none") {
         config.fallback.clear();
         return;
       }
       if (!EngineRegistry::contains(value.text)) {
         throw std::invalid_argument(concat(
             "engine option \"fallback\" names unknown engine \"",
             value.text, "\"; available: ",
             join(EngineRegistry::available(), ", "), ", or none"));
       }
       config.fallback = value.text;
     }},
};

/// One `key = value` engine option, the mapping shared by document `engine`
/// sections and the CLI's --engine-opt overrides — a schema lookup, with a
/// uniform "did you mean" diagnostic for unknown names.
void apply_engine_option(EngineConfig& config, std::string_view key,
                         const ftio::OptionValue& value) {
  for (const EngineOptionSpec& spec : kEngineOptionSchema) {
    if (key == spec.option.name) {
      spec.set(config, value, check_option(spec.option, value, "engine"));
      return;
    }
  }
  throw_unknown_option("engine", key, engine_option_docs());
}

}  // namespace

std::vector<OptionSpec> engine_option_docs() {
  std::vector<OptionSpec> docs;
  docs.reserve(std::size(kEngineOptionSchema));
  for (const EngineOptionSpec& spec : kEngineOptionSchema) {
    docs.push_back(spec.option);
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
    opt::apply_solver_option(resolved.config, key, value);
  }
  opt::SolverRegistry::create(selection.name)->check_options(resolved.config);
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
  // A pair no single row can refuse: the adaptive sampler's stopping rule
  // needs a relative half-width below 100%. Checked whatever the engine
  // name, since a bdd engine may fall back to mc_adaptive.
  if (config.relative && !(config.target_halfwidth < 1.0)) {
    throw std::invalid_argument(concat(
        "engine options \"relative\" and \"target_halfwidth\": a relative "
        "target half-width must be < 1, got ",
        format_double(config.target_halfwidth)));
  }
  return {std::move(name), config};
}

void set_engine_argument(EngineConfig& config,
                         const std::string& key_equals_value) {
  const KeyValueArgument argument =
      parse_key_value_argument(key_equals_value, "engine option");
  apply_engine_option(config, argument.key, option_value(argument));
}

/// Backing storage for document-loaded studies. The trees are pointer-stable:
/// TreeHazard and the engines hold references into them for the Study's
/// lifetime (including copies, via shared_ptr).
struct Study::OwnedModel {
  std::vector<std::unique_ptr<fta::FaultTree>> trees;
};

namespace {

/// The numeric problem over `space`, with the objective on the compiled
/// tape of `cost`.
opt::Problem make_problem(const expr::Expr& cost, const ParameterSpace& space) {
  opt::Problem problem;
  problem.bounds = space.box();
  // The scalar objective runs on the compiled tape — bitwise-identical to
  // cost.evaluate() (see compiled.h) and ~3× faster, so every solver in
  // src/opt gets the compiled path without knowing it exists.
  const auto compiled = std::make_shared<const expr::CompiledExpr>(
      expr::CompiledExpr::compile(cost, space.names()));
  problem.objective = [compiled](std::span<const double> x) {
    return compiled->evaluate(x);
  };
  // Large batches (grid rounds, synchronous DE generations) fan out over
  // the shared pool; each row writes only its own output slot, so results
  // do not depend on the thread count.
  problem.batch_objective = [compiled](std::span<const double> points,
                                       std::span<double> out) {
    constexpr std::size_t kParallelThreshold = 256;
    expr::BatchRequest request{.points = points, .values = out};
    if (out.size() >= kParallelThreshold) {
      request.pool = &ThreadPool::shared();
    }
    compiled->evaluate_batch(request);
  };
  return problem;
}

}  // namespace

Study::Study(CostModel model, ParameterSpace space)
    : model_(std::move(model)), space_(std::move(space)) {
  SAFEOPT_EXPECTS(model_.hazard_count() >= 1);
  SAFEOPT_EXPECTS(space_.size() >= 1);
  // Every parameter the cost expression mentions must be optimizable.
  const expr::Expr cost = model_.cost_expression();
  for (const std::string& name : cost.parameters()) {
    SAFEOPT_EXPECTS(space_.index_of(name).has_value());
  }
  // Compiled here, once, and shared by copies: every run() reuses this tape
  // and nothing is built later.
  problem_ = std::make_shared<const opt::Problem>(make_problem(cost, space_));
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
    model.add_hazard({hazard.tree,
                      quantification.hazard_expression(formula, control),
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
      study.solver_name_ = *overrides.solver;
      study.solver_config_ = opt::SolverConfig{};
    }
    const std::unique_ptr<opt::Solver> solver =
        opt::SolverRegistry::create(study.solver_name_);
    for (const std::string& extra : overrides.extras) {
      opt::apply_solver_argument(study.solver_config_, extra);
    }
    if (overrides.seed.has_value()) study.solver_config_.seed = *overrides.seed;
    solver->check_options(study.solver_config_);
  }
  std::tie(study.engine_name_, study.engine_config_) =
      document_engine_selection(document, overrides);
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

SafetyOptimizationResult Study::run(const ExecutionControl* control) const {
  opt::SolverConfig config = solver_config_;
  if (!config.observer) config.observer = observer_;
  if (control != nullptr) config.control = control;
  // An uninstrumented solve runs on the shared pool (multi_start spreads its
  // starts over it): the compiled tape is thread-safe and the result does
  // not depend on the thread count. Budgeted, observed and controlled
  // solves stay sequential, because with concurrent starts which start a
  // shared budget or an abort cuts short would depend on scheduling.
  if (config.pool == nullptr && !config.instrumented()) {
    config.pool = &ThreadPool::shared();
  }

  SafetyOptimizationResult result;
  result.optimization =
      opt::SolverRegistry::create(solver_name_)->solve(*problem_, config);
  result.optimal_parameters = space_.assignment(result.optimization.argmin);
  result.hazard_probabilities =
      model_.hazard_probabilities(result.optimal_parameters);
  result.cost = result.optimization.value;
  return result;
}

SafetyOptimizationResult Study::evaluate_at(
    const expr::ParameterAssignment& configuration) const {
  SafetyOptimizationResult result;
  result.optimal_parameters = configuration;
  result.hazard_probabilities = model_.hazard_probabilities(configuration);
  result.cost = model_.cost(configuration);
  result.optimization.argmin = space_.values(configuration);
  result.optimization.value = result.cost;
  result.optimization.converged = true;
  result.optimization.message = "direct evaluation";
  return result;
}

ComparisonReport Study::compare(
    const expr::ParameterAssignment& baseline,
    const SafetyOptimizationResult& optimal) const {
  ComparisonReport report;
  report.baseline_cost = model_.cost(baseline);
  report.optimal_cost = optimal.cost;
  report.cost_relative_change =
      report.baseline_cost != 0.0
          ? (report.optimal_cost - report.baseline_cost) / report.baseline_cost
          : 0.0;
  const std::vector<double> base_probs =
      model_.hazard_probabilities(baseline);
  SAFEOPT_ASSERT(base_probs.size() == optimal.hazard_probabilities.size());
  for (std::size_t i = 0; i < base_probs.size(); ++i) {
    HazardComparison hc;
    hc.hazard = model_.hazard(i).name;
    hc.baseline_probability = base_probs[i];
    hc.optimal_probability = optimal.hazard_probabilities[i];
    hc.relative_change =
        hc.baseline_probability != 0.0
            ? (hc.optimal_probability - hc.baseline_probability) /
                  hc.baseline_probability
            : 0.0;
    report.hazards.push_back(std::move(hc));
  }
  return report;
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
    return result;
  }
  throw std::invalid_argument(
      concat("no fault tree attached for hazard \"", hazard,
             "\"; call Study::hazard_tree first"));
}

}  // namespace safeopt::core
