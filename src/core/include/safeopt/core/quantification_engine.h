// The pluggable quantification seam: one interface over every way this
// library turns leaf probabilities into a top-event probability.
//
// The paper treats quantification as exchangeable machinery — Eq. 1/2 via
// minimal cut sets is "the" formula, but §II-C notes the bounds involved and
// the validation story (BDD Shannon decomposition is exact, Monte Carlo
// sampling checks the independence assumptions). `QuantificationEngine`
// makes that exchangeability a first-class API with one call,
// `quantify(input, control)`: every engine consumes the same numeric
// `fta::QuantificationInput` (produced on the compiled-tape hot path by
// `LeafTapes::input_at`) and reports a `QuantificationResult`, so callers —
// `core::Study`, `safeopt serve`, cross-validation benches — pick a backend
// by name at runtime:
//
//   "fta"         cut-set engine (rare-event / min-cut upper bound /
//                 inclusion-exclusion; importance measures supported)
//   "bdd"         exact Shannon decomposition over the preprocessed tree's
//                 per-module ROBDDs
//   "mc"          fixed-budget Monte Carlo estimation with Wilson intervals:
//                 the mc::AdaptiveMonteCarlo sampler with crude sampling and
//                 no stopping target (runs to `trials`)
//   "mc_adaptive" the same sampler run to a target CI half-width, with
//                 optional importance sampling (per-leaf proposal tilting)
//                 for rare events
//
// `EngineRegistry` is the name -> factory table behind
// `Study::engine("bdd")`; `EngineRegistrar` self-registers user engines
// (see docs/extending.md).
#ifndef SAFEOPT_CORE_QUANTIFICATION_ENGINE_H
#define SAFEOPT_CORE_QUANTIFICATION_ENGINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "safeopt/bdd/bdd.h"
#include "safeopt/fta/fault_tree.h"
#include "safeopt/fta/probability.h"
#include "safeopt/prep/preprocess.h"
#include "safeopt/stats/estimators.h"

namespace safeopt {
class ThreadPool;
class ExecutionControl;  // support/execution.h
}

namespace safeopt::core {

/// What preprocessing did to the tree an engine quantifies — filled by the
/// "bdd" engine, surfaced by `safeopt quantify --json` next to the sampling
/// diagnostics.
struct PreprocessSummary {
  /// Independent modules extracted (each quantified once per input and
  /// substituted as a pseudo-leaf).
  std::size_t modules = 0;
  /// Leaves of the original tree vs. leaves of the final top-level tree
  /// (module pseudo-leaves count as one each).
  std::size_t events_before = 0;
  std::size_t events_after = 0;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  /// Pass names in execution order, e.g. {"propagate", "normalize", ...}.
  std::vector<std::string> passes;
};

/// Outcome of one quantification.
struct QuantificationResult {
  double probability = 0.0;
  /// 95% confidence interval; sampled engines (mc, mc_adaptive) only.
  std::optional<stats::ConfidenceInterval> ci95;
  /// Trials drawn (sampled engines), 0 otherwise.
  std::uint64_t trials = 0;
  /// Effective sample size: `trials` for unweighted sampling, (Σw)²/Σw²
  /// for importance-sampled estimates. Sampled engines only.
  std::optional<double> ess;
  /// Engines with a stopping target only (mc_adaptive): whether the target
  /// precision was reached within the trial budget.
  std::optional<bool> converged;
  /// Engines running the preprocessing pipeline only (bdd): what the pass
  /// pipeline did.
  std::optional<PreprocessSummary> preprocess;
  /// Sampling engines (mc, mc_adaptive), which honour a deadline/
  /// cancellation control: true when the run was cut short — the estimate
  /// then describes the last completed round, with converged = false.
  std::optional<bool> aborted;
  /// Human-readable robustness notes, e.g. the degradation chain's
  /// "engine \"bdd\" degraded to \"mc_adaptive\" ..." record. Empty in the
  /// happy path; surfaced verbatim by `safeopt quantify --json`.
  std::vector<std::string> diagnostics;

  /// CI half-width, the adaptive stopping quantity; 0 without a ci95.
  [[nodiscard]] double halfwidth() const noexcept {
    return ci95.has_value() ? 0.5 * ci95->width() : 0.0;
  }
};

/// Shared engine configuration; each engine reads the fields it understands.
struct EngineConfig {
  /// Cut-set engine: the probability method (rare-event by default — the
  /// paper's Eq. 1/2 — or min-cut upper bound / inclusion-exclusion).
  fta::ProbabilityMethod method = fta::ProbabilityMethod::kRareEvent;
  /// Cut-set engine: how multiple INHIBIT constraints combine.
  fta::ConstraintCombination combination =
      fta::ConstraintCombination::kIndependentProduct;
  /// Monte Carlo engines: trials per quantify() call ("mc"), and the trial
  /// budget cap for "mc_adaptive" (document/CLI option `trials` or
  /// `budget`); base seed for both.
  std::uint64_t mc_trials = 200000;
  std::uint64_t seed = 0x5a4e0u;
  /// Monte Carlo engines: optional worker pool (chunked jump() streams;
  /// result independent of the thread count). Not owned.
  ThreadPool* pool = nullptr;
  /// Adaptive MC engine: target 95% CI half-width — absolute, or relative
  /// to the running estimate when `relative` is set.
  double target_halfwidth = 0.05;
  bool relative = true;
  /// Monte Carlo engines: trials per round (the "mc_adaptive" stopping rule
  /// runs between rounds; a deadline is polled more finely, between chunks).
  std::uint64_t batch = 1 << 16;
  /// Adaptive MC engine: importance-sampling proposal tilt — every leaf
  /// with p < 1/2 is sampled at q = min(1/2, tilt·p) and reweighted by the
  /// exact likelihood ratio. Values <= 1 disable importance sampling.
  double tilt = 0.0;
  /// bdd engine: the module extraction of the preprocessing pass pipeline
  /// it always runs (prep::PreprocessOptions's defaults, not settable).
  static constexpr bool modularize = prep::PreprocessOptions{}.modularize;
  static constexpr std::size_t module_min_leaves =
      prep::PreprocessOptions{}.module_min_leaves;
  /// bdd engine: maximum unique decision nodes, summed over every module's
  /// diagram, before compilation aborts with Error(kResourceExhausted) — the
  /// admission control that keeps a pathological tree from eating the
  /// process. 0 = unlimited (document/CLI option `bdd_node_budget`).
  std::size_t bdd_node_budget = 0;
  /// Wall-clock budget in milliseconds for each expensive engine operation:
  /// compilation at engine construction (bdd: the prep pipeline and the
  /// diagrams; fta: MOCUS) and each quantify() call
  /// (mc/mc_adaptive, which abort with the last completed round's partial
  /// result instead of throwing). 0 = none (document/CLI option
  /// `deadline_ms`). Chained under the caller's
  /// control, which is an argument of the factory and of each quantify().
  std::uint64_t deadline_ms = 0;
  /// Degradation chain: when engine construction fails with a *recoverable*
  /// Error (resource_exhausted / deadline_exceeded),
  /// create_engine_with_fallback (and so Study) retries once with this
  /// engine instead,
  /// recording the downgrade in QuantificationResult::diagnostics. Empty =
  /// fail hard (document/CLI option `fallback`, e.g. `fallback =
  /// mc_adaptive`).
  std::string fallback;

  /// The BddOptions the bdd engine compiles each module with: the default
  /// table and cache geometry (each module's manager is sized to its own
  /// tree within those caps) and `bdd_node_budget`.
  /// BddOptions::control is wired separately by the engine: it points at a
  /// per-construction control derived from `deadline_ms` and the caller's
  /// construction control.
  [[nodiscard]] bdd::BddOptions bdd_options() const noexcept {
    bdd::BddOptions options;
    options.node_budget = bdd_node_budget;
    return options;
  }
};

/// One quantification backend bound to one fault tree. Construction does the
/// per-tree work exactly once (MOCUS, BDD compilation) under the factory's
/// control; quantify() is then a const per-point evaluation sharing that
/// work. Engines are immutable after construction: quantify() is
/// thread-safe, keeps all scratch state per call, and takes the caller's
/// deadline/cancellation control per call. No engine keeps a control
/// pointer after its constructor returns.
class QuantificationEngine {
 public:
  virtual ~QuantificationEngine() = default;

  /// P(top event) under `input`. Precondition: input.is_valid_for(tree),
  /// the tree the engine was created over. `control` (not owned, nullptr =
  /// unbounded) bounds this call only; engines whose quantify() is
  /// per-point arithmetic ignore it.
  [[nodiscard]] virtual QuantificationResult quantify(
      const fta::QuantificationInput& input,
      const ExecutionControl* control = nullptr) const = 0;

 protected:
  QuantificationEngine() = default;
  QuantificationEngine(const QuantificationEngine&) = default;
  QuantificationEngine& operator=(const QuantificationEngine&) = default;
};

/// Process-wide name -> factory table for quantification engines. "fta",
/// "bdd", "mc" and "mc_adaptive" are pre-registered; add() extends it at
/// runtime (last registration wins). All methods are thread-safe. A factory's `control`
/// (nullptr = unbounded) bounds construction only.
class EngineRegistry {
 public:
  using Factory = std::function<std::unique_ptr<QuantificationEngine>(
      const fta::FaultTree& tree, const EngineConfig& config,
      const ExecutionControl* control)>;

  /// Registers `factory` under `name`; returns false when it replaced an
  /// existing registration. Precondition: name non-empty, factory callable.
  static bool add(std::string name, Factory factory);

  /// Creates the named engine over `tree` (which must outlive the engine),
  /// with construction bounded by `control`. Throws std::invalid_argument
  /// listing available() for unknown names.
  [[nodiscard]] static std::unique_ptr<QuantificationEngine> create(
      std::string_view name, const fta::FaultTree& tree,
      const EngineConfig& config = {},
      const ExecutionControl* control = nullptr);

  [[nodiscard]] static bool contains(std::string_view name);

  /// Sorted names of every registered engine.
  [[nodiscard]] static std::vector<std::string> available();
};

/// Self-registration helper for user engines, mirroring SolverRegistrar.
struct EngineRegistrar {
  EngineRegistrar(std::string name, EngineRegistry::Factory factory) {
    EngineRegistry::add(std::move(name), std::move(factory));
  }
};

/// EngineRegistry::create with the degradation chain applied: when building
/// `name` throws a *recoverable* safeopt::Error (resource_exhausted /
/// deadline_exceeded — not cancellation, not invalid input) and
/// config.fallback names a different engine, the fallback engine is built
/// instead (same config) and `*diagnostic` (when non-null) records the
/// downgrade, category first, for QuantificationResult::diagnostics. The
/// chain is one link long on purpose: a fallback that also fails propagates
/// its error. Both constructions run under `control`. Study and the
/// constant-model quantify paths share this.
[[nodiscard]] std::unique_ptr<QuantificationEngine>
create_engine_with_fallback(std::string_view name, const fta::FaultTree& tree,
                            const EngineConfig& config,
                            std::string* diagnostic = nullptr,
                            const ExecutionControl* control = nullptr);

}  // namespace safeopt::core

#endif  // SAFEOPT_CORE_QUANTIFICATION_ENGINE_H
