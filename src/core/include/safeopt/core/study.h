// core::Study — the front door of the library (ROADMAP: "multi-model
// quantification service layer").
//
// The paper's core idea is that safety optimization is a *combination*: any
// fault-tree quantification backend glued to any numeric solver over the
// free parameters X_1..X_l (§III). Study makes the combination explicit and
// swappable at runtime:
//
//   core::Study study(model.cost_model(), model.parameter_space());
//   const auto result = study.solver("multi_start", config)
//                            .observe(progress_callback)
//                            .run();
//
// and, when hazards carry their fault-tree derivations, quantification by
// any registered engine on the compiled-tape hot path:
//
//   study.hazard_tree("HCol", tree, quantification)
//        .engine("bdd");
//   const auto exact = study.quantify("HCol", result.optimal_parameters);
//
// Study owns the cost model, the parameter box and the compiled numeric
// problem, and calls the selected solver itself: repeated run() calls reuse
// one tape, and a solver named the same way gives the same result bit for
// bit whichever front door named it.
//
// Thread safety: a Study is fully built once configured. Constructing it
// compiles the cost tape behind problem(); attaching a tree compiles its
// leaf tapes and builds its engine; engine() rebuilds every engine. Nothing
// is built lazily afterwards, so the const members — run, quantify,
// evaluate_at, compare and the accessors — may be called concurrently on
// one Study. The non-const setters may not run
// concurrently with anything else. Deadlines and cancellation are per call:
// run() and quantify() take the caller's ExecutionControl, and
// from_document() builds the engines under one. Copies share the immutable
// engines. A progress observer set with observe() is called from every
// concurrent run(), so it must tolerate that itself.
#ifndef SAFEOPT_CORE_STUDY_H
#define SAFEOPT_CORE_STUDY_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "safeopt/core/cost_model.h"
#include "safeopt/core/leaf_tapes.h"
#include "safeopt/core/parameter_space.h"
#include "safeopt/core/parameterized_fta.h"
#include "safeopt/core/quantification_engine.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/opt/problem.h"
#include "safeopt/opt/solver.h"

namespace safeopt {
class ExecutionControl;  // support/execution.h
}

namespace safeopt::core {

/// Result of a safety optimization run: the solver outcome plus the
/// safety-level interpretation (per-hazard probabilities at the optimum).
struct SafetyOptimizationResult {
  opt::OptimizationResult optimization;
  expr::ParameterAssignment optimal_parameters;
  std::vector<double> hazard_probabilities;  // hazard order of the CostModel
  double cost = 0.0;                         // == optimization.value
};

/// Per-hazard baseline-vs-optimum comparison; `relative_change` is
/// (optimal − baseline) / baseline (e.g. −0.10 == 10% risk reduction).
struct HazardComparison {
  std::string hazard;
  double baseline_probability = 0.0;
  double optimal_probability = 0.0;
  double relative_change = 0.0;
};

struct ComparisonReport {
  double baseline_cost = 0.0;
  double optimal_cost = 0.0;
  double cost_relative_change = 0.0;
  std::vector<HazardComparison> hazards;
};

/// Caller overrides layered on a document's own selections, with the
/// semantics of the CLI's --solver/--extra/--seed/--engine/--engine-opt and
/// the service's request options: a fresh solver name restarts from that
/// solver's defaults, while extras, the seed and engine options layer on
/// whatever is selected.
struct StudyOverrides {
  std::optional<std::string> solver;
  std::vector<std::string> extras;  // KEY=VALUE solver extras
  std::optional<std::uint64_t> seed;
  std::optional<std::string> engine;
  std::vector<std::string> engine_options;  // KEY=VALUE
};

class Study {
 public:
  /// The cost model's expressions may only mention parameters of `space`
  /// (a contract: violating it aborts). Compiles the cost tape behind
  /// problem().
  Study(CostModel model, ParameterSpace space);

  // ---- declarative construction (ftio grammar v2) --------------------------

  /// Assembles a runnable study from a parsed document: the ParameterSpace
  /// from its `param` declarations, one ParameterizedQuantification per
  /// `hazard` tree, the CostModel from Σ cost_i · P(H_i)(X) with each hazard
  /// probability derived from the tree's minimal cut sets (the document's
  /// `formula`, rare-event by default), and hazard_tree registrations so
  /// quantify() works out of the box. The document's `solver`/`engine`
  /// selections are applied when present (solver options resolve through
  /// opt::apply_solver_option — reserved keys onto the typed SolverConfig
  /// fields, the rest as extras checked against the solver's declared
  /// table; engine options resolve through the typed option schema —
  /// engine_option_docs() lists every key — onto EngineConfig), then
  /// `overrides` layer on top, through the same resolvers.
  /// The engines are built once, with the final selection, under `control`
  /// (not owned; nullptr = unbounded).
  /// The returned Study owns copies of the document's trees — it does not
  /// reference `document` after returning. Throws std::invalid_argument on
  /// semantic problems (no hazards, unknown engine option, ...) and
  /// safeopt::Error when an engine build exhausts a budget or deadline with
  /// no fallback.
  [[nodiscard]] static Study from_document(
      const ftio::StudyDocument& document,
      const StudyOverrides& overrides = {},
      const ExecutionControl* control = nullptr);

  /// load_study(path) + from_document — the whole pipeline from one file.
  /// Throws ftio::ParseError (with the file name) on parse problems.
  [[nodiscard]] static Study from_file(const std::string& path);

  // (See also the free functions document_solver_selection /
  // document_engine_selection below — the same section mappings
  // from_document applies, exposed for validators and engine-only callers.)

  // ---- fluent configuration (each returns *this) ---------------------------

  /// Selects the numeric solver by registry name. Unknown names surface as
  /// std::invalid_argument from run(). Default: "multi_start" (multi-start
  /// Nelder–Mead).
  Study& solver(std::string name, opt::SolverConfig config = {});

  /// Progress observer for run(); overridden by an observer already present
  /// in the solver config.
  Study& observe(opt::ProgressObserver observer);

  /// Selects the quantification engine (by registry name) used by
  /// quantify(). Default: "fta". Rebuilds the engine of every attached
  /// hazard tree.
  Study& engine(std::string name, EngineConfig config = {});

  /// Attaches the fault-tree derivation of the named hazard so engines can
  /// quantify it: compiles its leaf tapes (the compiled hot path every
  /// engine's input comes from) and builds its engine. `tree` is
  /// referenced by the engine, not copied — it must outlive the Study;
  /// `quantification` is read only during this call.
  Study& hazard_tree(std::string hazard, const fta::FaultTree& tree,
                     const ParameterizedQuantification& quantification);

  // ---- execution -----------------------------------------------------------

  /// Minimizes f_cost over the parameter box with the configured solver.
  /// A non-null `control` replaces the solver config's control for this
  /// call (deadline/cancel return the best point so far). A solve with no
  /// observer, budget or control and no pool of its own runs on
  /// ThreadPool::shared(); the result does not depend on its thread count.
  /// Throws std::invalid_argument for unknown solver names and
  /// solver/problem mismatches (e.g. golden_section on a 2-D box).
  [[nodiscard]] SafetyOptimizationResult run(
      const ExecutionControl* control = nullptr) const;

  /// Evaluates cost and hazard probabilities at a configuration (e.g. the
  /// engineers' initial guess).
  [[nodiscard]] SafetyOptimizationResult evaluate_at(
      const expr::ParameterAssignment& configuration) const;

  /// Baseline-vs-optimum comparison (paper §IV-C.2 reporting).
  [[nodiscard]] ComparisonReport compare(
      const expr::ParameterAssignment& baseline,
      const SafetyOptimizationResult& optimal) const;

  /// Quantifies the named hazard at `at` with the configured engine: leaf
  /// probabilities come off the compiled tapes (LeafTapes::input_at), the
  /// engine turns them into a top-event probability under `control` (not
  /// owned; nullptr = unbounded). The hazard must have been attached via
  /// hazard_tree() (throws std::invalid_argument otherwise).
  [[nodiscard]] QuantificationResult quantify(
      std::string_view hazard, const expr::ParameterAssignment& at,
      const ExecutionControl* control = nullptr) const;

  // ---- access --------------------------------------------------------------

  /// The compiled numeric problem (objective + batch path + box), exposed
  /// for benches and custom solvers; one tape per Study, address-stable and
  /// shared by copies. The rvalue overload returns a copy (cheap, it shares
  /// the tape) so a temporary Study cannot hand out a dangling reference.
  [[nodiscard]] const opt::Problem& problem() const& { return *problem_; }
  [[nodiscard]] opt::Problem problem() const&& { return *problem_; }
  [[nodiscard]] const CostModel& model() const noexcept { return model_; }
  [[nodiscard]] const ParameterSpace& space() const noexcept {
    return space_;
  }
  [[nodiscard]] const std::string& solver_name() const noexcept {
    return solver_name_;
  }
  /// The active solver configuration (document selections included) —
  /// callers layering overrides on top (the CLI's --extra/--seed) start
  /// from this instead of silently dropping document options.
  [[nodiscard]] const opt::SolverConfig& solver_config() const noexcept {
    return solver_config_;
  }
  [[nodiscard]] const std::string& engine_name() const noexcept {
    return engine_name_;
  }
  /// The active engine configuration (document options and the formula-
  /// derived cut-set method included).
  [[nodiscard]] const EngineConfig& engine_config() const noexcept {
    return engine_config_;
  }

 private:
  struct TreeHazard {
    std::string hazard;
    const fta::FaultTree* tree = nullptr;
    // Immutable, so copies of the Study share them.
    std::shared_ptr<const LeafTapes> leaves;
    std::shared_ptr<const QuantificationEngine> engine;
    // Non-empty when `engine` is a fallback the configured engine degraded
    // to (budget/deadline blown during construction); appended to every
    // QuantificationResult::diagnostics the engine produces.
    std::string degradation;
  };

  /// Backing storage for document-loaded studies: the fault trees the
  /// TreeHazard entries and engines reference. Shared (and address-stable)
  /// so Study copies stay cheap and valid.
  struct OwnedModel;

  /// `entry` with its engine built for the `name`/`config` selection under
  /// `control`.
  [[nodiscard]] static TreeHazard with_engine(TreeHazard entry,
                                              std::string_view name,
                                              const EngineConfig& config,
                                              const ExecutionControl* control);
  /// Sets backend_name_/backend_note_ from engine_config_.backend.
  void resolve_backend();

  std::shared_ptr<const OwnedModel> owned_;
  CostModel model_;
  ParameterSpace space_;
  std::shared_ptr<const opt::Problem> problem_;  // shared by copies
  std::string solver_name_ = "multi_start";
  opt::SolverConfig solver_config_;
  std::string engine_name_ = "fta";
  EngineConfig engine_config_;
  // The evaluation backend `engine_config_.backend` resolves to, stamped on
  // every result's `backend` field; when the request degraded, the note is
  // replayed into result diagnostics.
  std::string backend_name_;
  std::string backend_note_;
  opt::ProgressObserver observer_;
  std::vector<TreeHazard> tree_hazards_;
};

/// A solver choice read from user input (a document's `solver` section).
struct SolverSelection {
  std::string name;  // registry name
  opt::SolverConfig config;
};

/// The solver selection a document's `solver` section requests: the
/// registry name and its options through opt::apply_solver_option, checked
/// against the solver's declared table (Solver::check_options). nullopt
/// when the document has no solver section.
/// Throws std::invalid_argument on unknown names, unknown keys or values
/// out of range — `safeopt validate` surfaces these without building a
/// Study.
[[nodiscard]] std::optional<SolverSelection> document_solver_selection(
    const ftio::StudyDocument& document);

/// The engine selection a document requests: its `engine` section when
/// present, otherwise the default cut-set engine — either way with the
/// `formula`-derived probability method (overridable by an explicit method
/// option) — with the engine and engine options of `overrides` layered on
/// top. Throws std::invalid_argument on unknown names or malformed options,
/// and on a relative adaptive target half-width of 1 or more.
/// Lets engine-only callers (quantifying a constant model) share
/// from_document's mapping.
[[nodiscard]] std::pair<std::string, EngineConfig> document_engine_selection(
    const ftio::StudyDocument& document, const StudyOverrides& overrides = {});

/// Applies one `KEY=VALUE` engine option onto `config` with exactly the
/// document `engine` section's key mapping — the CLI's `--engine-opt`
/// surface. Both resolve through one typed option schema (see
/// engine_option_docs()), so unknown or mistyped keys fail with a uniform
/// "did you mean" diagnostic. The value is typed by
/// parse_key_value_argument (support/strings.h), the same rule as
/// opt::apply_solver_argument: numbers are numeric, numeric-looking typos
/// ("8x", "+5", "0x10") are rejected, words pass through as text.
/// Throws std::invalid_argument on unknown keys or malformed values.
void set_engine_argument(EngineConfig& config,
                         const std::string& key_equals_value);

/// Every engine option row the schema declares (name, kind, range, doc),
/// in declaration order — the single source of truth behind
/// apply_engine_option / set_engine_argument / `safeopt --engine-opt`
/// diagnostics.
[[nodiscard]] std::vector<OptionSpec> engine_option_docs();

}  // namespace safeopt::core

#endif  // SAFEOPT_CORE_STUDY_H
