#include "safeopt/core/quantification_engine.h"

#include <utility>

#include "safeopt/bdd/bdd.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/mc/adaptive_monte_carlo.h"
#include "safeopt/prep/preprocess.h"
#include "safeopt/support/contracts.h"
#include "safeopt/support/error.h"
#include "safeopt/support/execution.h"
#include "safeopt/support/registry.h"
#include "safeopt/support/strings.h"

namespace safeopt::core {

namespace {

/// Fills `storage` with a per-operation control — a fresh deadline derived
/// from `deadline_ms` (0 = none), chained to the caller's `control` as
/// parent — and returns it; nullptr when neither applies (so the unbounded
/// path stays poll-free).
const ExecutionControl* activate_control(std::uint64_t deadline_ms,
                                         const ExecutionControl* control,
                                         ExecutionControl& storage) {
  if (deadline_ms == 0 && control == nullptr) return nullptr;
  storage.deadline =
      deadline_ms > 0 ? Deadline::after_ms(deadline_ms) : Deadline::never();
  storage.parent = control;
  return &storage;
}

/// The diagnostics sub-struct engines attach to every result when the
/// pipeline ran.
PreprocessSummary to_summary(const prep::PreprocessStatistics& statistics) {
  PreprocessSummary summary;
  summary.modules = statistics.modules;
  summary.events_before = statistics.events_before;
  summary.events_after = statistics.events_after;
  summary.gates_before = statistics.gates_before;
  summary.gates_after = statistics.gates_after;
  for (const prep::PassStats& pass : statistics.passes) {
    summary.passes.push_back(pass.name);
  }
  return summary;
}

/// "fta": the paper's own engine — minimal cut sets (MOCUS, run once at
/// construction) evaluated by the configured probability method. Exact only
/// for inclusion-exclusion under leaf independence; the two bounding methods
/// overestimate (Eq. 1/2 is the first Bonferroni bound).
class CutSetEngine final : public QuantificationEngine {
 public:
  /// `control` bounds MOCUS, the construction (the factory derives it from
  /// `deadline_ms` and the caller's control).
  CutSetEngine(const fta::FaultTree& tree, const EngineConfig& config,
               const ExecutionControl* control)
      : tree_(tree),
        config_(config),
        mcs_(fta::minimal_cut_sets(tree, control)) {
    // MOCUS happens here; quantify() is per-point arithmetic. Checked here
    // rather than at the first quantify, so `fallback` can take over.
    if (config.method == fta::ProbabilityMethod::kInclusionExclusion &&
        mcs_.size() > fta::kInclusionExclusionMaxCutSets) {
      throw Error(ErrorCategory::kResourceExhausted,
                  concat("inclusion_exclusion handles at most ",
                         std::to_string(fta::kInclusionExclusionMaxCutSets),
                         " minimal cut sets, but the tree has ",
                         std::to_string(mcs_.size())));
    }
  }

  [[nodiscard]] QuantificationResult quantify(
      const fta::QuantificationInput& input,
      const ExecutionControl* /*control*/ = nullptr) const override {
    SAFEOPT_EXPECTS(input.is_valid_for(tree_));
    QuantificationResult result;
    result.probability = fta::top_event_probability(
        mcs_, input, config_.method, config_.combination);
    return result;
  }

 private:
  const fta::FaultTree& tree_;
  EngineConfig config_;
  fta::CutSetCollection mcs_;
};

/// `options` with its cooperative control replaced by `control`.
template <typename Options>
Options with_control(Options options, const ExecutionControl* control) {
  options.control = control;
  return options;
}

/// "bdd": exact Shannon decomposition, compiled once at construction: the
/// prep pipeline splits the tree into independent modules and each module
/// gets its own ROBDD. No approximation and no cut-set blow-up — the oracle
/// the other engines are validated against.
class BddEngine final : public QuantificationEngine {
 public:
  /// `control` bounds construction only (the factory derives it from
  /// `deadline_ms` and the caller's control); bdd::compile detaches it from
  /// the managers it returns. The module knobs are PreprocessOptions's
  /// defaults (EngineConfig::modularize/module_min_leaves).
  BddEngine(const fta::FaultTree& tree, const EngineConfig& config,
            const ExecutionControl* control)
      : BddEngine(tree,
                  prep::preprocess(tree,
                                   with_control(prep::PreprocessOptions{},
                                                control)),
                  config, control) {}

  [[nodiscard]] QuantificationResult quantify(
      const fta::QuantificationInput& input,
      const ExecutionControl* /*control*/ = nullptr) const override {
    SAFEOPT_EXPECTS(input.is_valid_for(tree_));
    QuantificationResult result;
    result.probability = modules_.probability(input);
    result.preprocess = summary_;
    return result;
  }

 private:
  /// The module graphs are needed only while they are compiled.
  BddEngine(const fta::FaultTree& tree,
            const prep::PreprocessedTree& preprocessed,
            const EngineConfig& config, const ExecutionControl* control)
      : tree_(tree),
        modules_(preprocessed, with_control(config.bdd_options(), control)),
        summary_(to_summary(preprocessed.statistics)) {}

  const fta::FaultTree& tree_;
  prep::CompiledPreprocessedTree modules_;
  PreprocessSummary summary_;
};

/// The one Monte Carlo engine class, registered twice. "mc_adaptive":
/// sequential batched sampling to a target CI half-width (Wilson stopping
/// rule), with an importance-sampling mode (tilt > 1) for the rare events
/// crude sampling cannot resolve. "mc": the same sampler with no stopping
/// target and crude sampling — the fixed-budget model-free cross-check.
/// Deterministic and thread-count-invariant for a fixed config seed.
class AdaptiveMonteCarloEngine final : public QuantificationEngine {
 public:
  AdaptiveMonteCarloEngine(const fta::FaultTree& tree,
                           const mc::AdaptiveOptions& options,
                           std::uint64_t deadline_ms)
      : tree_(tree), sampler_(options), deadline_ms_(deadline_ms) {}

  /// The sampling loop is this engine's expensive phase, so `deadline_ms`
  /// is a *per-call* budget: each call derives a fresh deadline (chained to
  /// the call's `control`) and an expired one flags `aborted` on the
  /// partial result rather than throwing.
  [[nodiscard]] QuantificationResult quantify(
      const fta::QuantificationInput& input,
      const ExecutionControl* control = nullptr) const override {
    ExecutionControl storage;
    const mc::AdaptiveResult estimate = sampler_.estimate(
        tree_, input, activate_control(deadline_ms_, control, storage));
    QuantificationResult result;
    result.probability = estimate.estimate;
    result.ci95 = estimate.ci95;
    result.trials = estimate.trials;
    result.ess = estimate.ess;
    if (sampler_.options().target_halfwidth > 0.0) {
      result.converged = estimate.converged;
    }
    result.aborted = estimate.aborted;
    return result;
  }

 private:
  const fta::FaultTree& tree_;
  mc::AdaptiveMonteCarlo sampler_;
  std::uint64_t deadline_ms_ = 0;
};

/// The sampler slice of an EngineConfig.
mc::AdaptiveOptions sampler_options(const EngineConfig& config) {
  SAFEOPT_EXPECTS(config.mc_trials >= 1);
  mc::AdaptiveOptions options;
  options.target_halfwidth = config.target_halfwidth;
  options.relative = config.relative;
  options.batch = config.batch;
  options.max_trials = config.mc_trials;
  options.tilt = config.tilt;
  options.seed = config.seed;
  options.pool = config.pool;
  return options;
}

/// The shared registry scaffolding (support/registry.h), seeded with the
/// built-in engines on first use.
NameRegistry<EngineRegistry::Factory>& registry() {
  static NameRegistry<EngineRegistry::Factory> instance(
      "quantification engine",
      {{"fta",
        [](const fta::FaultTree& tree, const EngineConfig& config,
           const ExecutionControl* control) {
          // MOCUS at construction is the expensive phase, as for "bdd".
          ExecutionControl storage;
          return std::make_unique<CutSetEngine>(
              tree, config,
              activate_control(config.deadline_ms, control, storage));
        }},
       {"bdd",
        [](const fta::FaultTree& tree, const EngineConfig& config,
           const ExecutionControl* control) {
          // Construction is the expensive phase (the whole compilation),
          // so the per-construction deadline starts here.
          ExecutionControl storage;
          return std::make_unique<BddEngine>(
              tree, config,
              activate_control(config.deadline_ms, control, storage));
        }},
       {"mc",
        [](const fta::FaultTree& tree, const EngineConfig& config,
           const ExecutionControl*) {
          mc::AdaptiveOptions options = sampler_options(config);
          options.target_halfwidth = 0.0;  // no stopping target: run to trials
          options.tilt = 0.0;              // crude sampling
          return std::make_unique<AdaptiveMonteCarloEngine>(
              tree, options, config.deadline_ms);
        }},
       {"mc_adaptive",
        [](const fta::FaultTree& tree, const EngineConfig& config,
           const ExecutionControl*) {
          return std::make_unique<AdaptiveMonteCarloEngine>(
              tree, sampler_options(config), config.deadline_ms);
        }}});
  return instance;
}

}  // namespace

bool EngineRegistry::add(std::string name, Factory factory) {
  return registry().add(std::move(name), std::move(factory));
}

std::unique_ptr<QuantificationEngine> EngineRegistry::create(
    std::string_view name, const fta::FaultTree& tree,
    const EngineConfig& config, const ExecutionControl* control) {
  std::unique_ptr<QuantificationEngine> engine =
      registry().find(name)(tree, config, control);
  SAFEOPT_ENSURES(engine != nullptr);
  return engine;
}

bool EngineRegistry::contains(std::string_view name) {
  return registry().contains(name);
}

std::vector<std::string> EngineRegistry::available() {
  return registry().available();
}

std::unique_ptr<QuantificationEngine> create_engine_with_fallback(
    std::string_view name, const fta::FaultTree& tree,
    const EngineConfig& config, std::string* diagnostic,
    const ExecutionControl* control) {
  try {
    return EngineRegistry::create(name, tree, config, control);
  } catch (const Error& error) {
    if (!error.recoverable() || config.fallback.empty() ||
        config.fallback == name) {
      throw;
    }
    // One link only: a failing fallback propagates. The downgrade note
    // leads with the machine-readable category so log scrapers can filter.
    std::unique_ptr<QuantificationEngine> engine =
        EngineRegistry::create(config.fallback, tree, config, control);
    if (diagnostic != nullptr) {
      *diagnostic = concat("engine \"", name, "\" degraded to \"",
                           config.fallback, "\" (",
                           category_name(error.category()), "): ",
                           error.what());
    }
    return engine;
  }
}

}  // namespace safeopt::core
