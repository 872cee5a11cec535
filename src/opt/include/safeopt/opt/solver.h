// The pluggable solver seam (paper §III-B: "This problem can then be solved
// with different methods").
//
// `Solver` is the one interface every numeric method of src/opt implements:
// a name-keyed, configuration-driven "minimize this problem" that adds the
// pieces a composable optimization *service* needs:
//
//   * one shared `SolverConfig` (budget / tolerance / seed / threads /
//     starting point) plus name-keyed extras for per-solver knobs, so
//     callers can select and tune any method without naming its type;
//   * one declared option table per solver (SolverTraits::options): every
//     extra a config carries is typed and range-checked against it by
//     validate() before the run, so no user value reaches a contract;
//   * a progress observer (iteration, evaluations used, best-so-far) honored
//     uniformly by every solver — instrumentation wraps the problem, so the
//     numeric trajectory is bitwise-unchanged whether or not anyone listens;
//   * an evaluation budget and a cooperative control enforced uniformly
//     (at batch granularity) by one stop point: a refused evaluation
//     unwinds the solver, and solve() returns the best-so-far point;
//   * capability traits (dimension limits) validated before the run,
//     failing fast with std::invalid_argument — e.g. golden_section on a
//     multi-dimensional box;
//   * apply_solver_option / apply_solver_argument, the one resolver every
//     front door (document `solver` sections, `--extra`, request `extras`)
//     feeds, so reserved keys reach the typed fields from every door;
//   * `SolverRegistry`, the name -> factory table behind
//     `core::Study::solver("nelder_mead")`, extensible at runtime via
//     `SolverRegistrar` (see docs/extending.md).
//
// Every solver in src/opt registers itself here; meta-solvers (multi_start)
// are registry consumers that wrap any inner solver by name.
#ifndef SAFEOPT_OPT_SOLVER_H
#define SAFEOPT_OPT_SOLVER_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "safeopt/opt/problem.h"
#include "safeopt/support/options.h"

namespace safeopt {
class ThreadPool;
class ExecutionControl;  // support/execution.h
}

namespace safeopt::opt {

/// One progress report. `best_point` is only valid during the callback.
struct ProgressEvent {
  std::size_t iteration = 0;    // monotone observer-event index (0-based)
  std::size_t evaluations = 0;  // objective evaluations used so far
  double best_value = 0.0;      // best objective value seen so far
  std::span<const double> best_point;
};

/// Called whenever the best-so-far value improves (per evaluation on the
/// scalar path, per batch on the batched path). Invoked under the
/// instrumentation lock: keep it cheap and do not call back into the solver.
/// With a thread pool attached, events from concurrent evaluations arrive in
/// a scheduling-dependent order, but `best_value` is monotone regardless.
using ProgressObserver = std::function<void(const ProgressEvent&)>;

/// The shared configuration every registered solver consumes. Common knobs
/// are public fields; per-solver settings travel as name-keyed extras, each
/// of which must match a row of the solver's declared option table
/// (Solver::validate refuses unknown keys and out-of-range values).
/// Default-constructed, it selects each solver's own defaults, which live in
/// that table.
struct SolverConfig {
  /// Outer-iteration cap of the iterative solvers.
  std::size_t max_iterations = 1000;
  /// Convergence tolerance: each solver declares convergence when its own
  /// scale measure (simplex spread, step length, interval width, ...)
  /// falls below it.
  double tolerance = 1e-10;
  /// Objective-evaluation budget; 0 = unlimited. Enforced uniformly by the
  /// instrumentation layer at batch granularity: a batch that begins under
  /// budget runs to completion, the reported evaluation count never exceeds
  /// the budget, the next request unwinds the solver, and the run returns
  /// the best point seen with converged = false.
  std::size_t max_evaluations = 0;
  /// Seed for stochastic solvers; nullopt keeps the solver's default seed.
  std::optional<std::uint64_t> seed;
  /// Optional worker pool for solvers that parallelize (multi_start runs
  /// its starts on it). Results do not depend on the thread count when the
  /// solve is uninstrumented; with a budget or a control, which start gets
  /// cut short depends on scheduling. core::Study::run attaches
  /// ThreadPool::shared() to uninstrumented solves that name no pool. Not
  /// owned; must outlive the solve call.
  ThreadPool* pool = nullptr;
  /// Starting point; empty = solver default (the box center). When set, it
  /// must match the problem dimension — solve() rejects mismatches even
  /// for solvers without a start-point concept (grid_search,
  /// golden_section, which do not read it): a wrong-sized point is a
  /// caller mistake worth surfacing, not ignoring.
  std::vector<double> initial;
  /// Progress observer; empty = no instrumentation (zero overhead).
  ProgressObserver observer;
  /// Cooperative deadline/cancellation, checked by the instrumentation
  /// layer at evaluation granularity: once the control fires, the next
  /// evaluation request unwinds the solver, and solve() returns the best
  /// point seen with converged = false and a message naming the abort
  /// reason — partial results, never an exception, exactly like budget
  /// exhaustion. Not owned; must outlive the solve call. nullptr (the
  /// default) keeps the uninstrumented fast path bit-identical and
  /// overhead-free.
  const ExecutionControl* control = nullptr;

  /// True when solve() wraps the problem to observe, budget or poll it:
  /// an observer, an evaluation budget or a control is set. Otherwise the
  /// solver runs on the problem untouched.
  [[nodiscard]] bool instrumented() const noexcept {
    return static_cast<bool>(observer) || max_evaluations != 0 ||
           control != nullptr;
  }

  /// Sets a per-solver extra (e.g. "points_per_dimension" for
  /// grid_search). Returns *this for chaining. Checked against the solver's
  /// option table by Solver::validate, not here.
  SolverConfig& set(std::string_view key, double value);
  /// Sets a word-valued extra (e.g. "inner" for multi_start).
  SolverConfig& set(std::string_view key, std::string value);
  SolverConfig& set(std::string_view key, OptionValue value);

  [[nodiscard]] bool has(std::string_view key) const noexcept;
  /// The numeric extra under `key`, or `fallback` when absent or a word.
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const noexcept;
  /// The word extra under `key`, or `fallback` when absent or a number.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;
  /// Every extra, by key.
  [[nodiscard]] const std::map<std::string, OptionValue, std::less<>>&
  extras() const noexcept {
    return extras_;
  }

 private:
  std::map<std::string, OptionValue, std::less<>> extras_;
};

/// The option rows every solver takes besides its own, each mapped onto a
/// typed SolverConfig field: max_iterations, tolerance, max_evaluations and
/// seed.
[[nodiscard]] std::span<const OptionSpec> reserved_solver_options() noexcept;

/// The one resolver behind every front door: applies one user-supplied
/// `key = value` onto `config`. A reserved key is checked against its row
/// and written to its typed field; any other key is stored as an extra,
/// which the selected solver's validate()/check_options() then checks
/// against its table. Throws std::invalid_argument on a bad reserved value.
void apply_solver_option(SolverConfig& config, std::string_view key,
                         const OptionValue& value);

/// A command-line `key=value` (`--extra starts=16`, a request's `extras`),
/// typed by parse_key_value_argument (support/strings.h), the rule
/// `--engine-opt` shares, then applied by apply_solver_option. Throws
/// std::invalid_argument when the argument has no '=', an empty key or
/// value, or a numeric-looking typo ("starts=8x").
void apply_solver_argument(SolverConfig& config,
                           std::string_view key_equals_value);

/// Static capabilities of one solver, validated before every run.
struct SolverTraits {
  /// Smallest supported problem dimension. differential_evolution sets 2:
  /// on an interval its mutant is the forced axis of a + F(b - c), clamped
  /// into the box, and the population collapses onto a bound.
  std::size_t min_dimension = 1;
  /// Largest supported problem dimension; 0 = unlimited. golden_section
  /// sets 1: its bracketing argument only exists on an interval.
  std::size_t max_dimension = 0;
  /// The solver's declared options: every extra of a config must match one
  /// row (kind, range), and run() reads each through the Solver accessors,
  /// which fall back to the row's default.
  std::span<const OptionSpec> options{};
};

/// The polymorphic solver interface. Instances are cheap, stateless
/// configuration-to-run adapters: all run state lives on the stack of
/// solve(), so one instance may be used from several threads.
class Solver {
 public:
  virtual ~Solver() = default;

  /// The registry name ("nelder_mead", "grid_search", ...).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual SolverTraits traits() const noexcept { return {}; }

  /// Runs validate(), instruments the problem when an observer, an
  /// evaluation budget or a control is configured, and runs the numeric
  /// method. Without observer/budget/control the problem is passed through
  /// untouched. An instrumented run that is refused an evaluation (budget
  /// spent, control fired) is unwound here and returns the best point seen
  /// — config.initial or the box center at +inf when nothing was evaluated
  /// — with iterations = 0 and converged = false.
  [[nodiscard]] OptimizationResult solve(const Problem& problem,
                                         const SolverConfig& config = {}) const;

  /// The option half of validate(), which needs no problem: every extra of
  /// `config` must name a row of traits().options and pass check_option.
  /// Throws std::invalid_argument naming the key and its range, or, for an
  /// unknown key, the nearest declared name and the solver's list.
  /// Meta-solvers also check what they wrap (multi_start: its `inner`).
  virtual void check_options(const SolverConfig& config) const;

  /// Everything solve() checks before the first evaluation: the problem
  /// against traits() (e.g. golden_section on a multi-dimensional box or
  /// differential_evolution on an interval), the size of config.initial,
  /// and check_options(). Throws std::invalid_argument with an actionable
  /// message. `safeopt validate` runs it on the document's box and config.
  virtual void validate(const Problem& problem,
                        const SolverConfig& config) const;

 protected:
  Solver() = default;
  Solver(const Solver&) = default;
  Solver& operator=(const Solver&) = default;

  /// Checks every extra of `config` against `rows`; errors name `owner`.
  static void check_extras(std::string_view owner,
                           std::span<const OptionSpec> rows,
                           const SolverConfig& config);

  /// The declared option `key` as run() reads it: the config's value (a
  /// flag as 0 or 1), or the row's default. Values were checked by
  /// validate(); `key` must be a row of traits().options.
  [[nodiscard]] double number(const SolverConfig& config,
                              std::string_view key) const;
  [[nodiscard]] std::size_t count(const SolverConfig& config,
                                  std::string_view key) const;

 private:
  /// The numeric method. `problem` is pre-validated (and instrumented when
  /// the config asks for observation, budgeting or a control). An
  /// instrumented problem stops the run by throwing from an evaluation:
  /// run() must let that propagate, and hold nothing a throw would leak.
  [[nodiscard]] virtual OptimizationResult run(
      const Problem& problem, const SolverConfig& config) const = 0;
};

/// Process-wide name -> factory table. The seven solvers of src/opt are
/// pre-registered; add() extends it at runtime (last registration wins, so
/// applications can override a built-in). All methods are thread-safe.
class SolverRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Solver>()>;

  /// Registers `factory` under `name`; returns false when it replaced an
  /// existing registration. Precondition: name non-empty, factory callable.
  static bool add(std::string name, Factory factory);

  /// Creates the named solver. Throws std::invalid_argument listing
  /// available() when the name is unknown.
  [[nodiscard]] static std::unique_ptr<Solver> create(std::string_view name);

  [[nodiscard]] static bool contains(std::string_view name);

  /// Sorted names of every registered solver.
  [[nodiscard]] static std::vector<std::string> available();
};

/// Self-registration helper for user solvers:
///   const opt::SolverRegistrar reg("my_solver", [] { ... });
/// at namespace scope of the application registers before main() runs.
/// (The built-in solvers are registered eagerly by the registry itself —
/// static initializers in a static library member would be dropped by the
/// linker unless their object file is otherwise referenced.)
struct SolverRegistrar {
  SolverRegistrar(std::string name, SolverRegistry::Factory factory) {
    SolverRegistry::add(std::move(name), std::move(factory));
  }
};

}  // namespace safeopt::opt

#endif  // SAFEOPT_OPT_SOLVER_H
