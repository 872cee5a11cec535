// The pluggable solver seam (paper §III-B: "This problem can then be solved
// with different methods").
//
// `Solver` is the one interface every numeric method of src/opt implements:
// a name-keyed, configuration-driven "minimize this problem" that adds the
// pieces a composable optimization *service* needs:
//
//   * one shared `SolverConfig` (budget / tolerance / seed / threads /
//     starting point) plus name-keyed typed extras for per-solver knobs, so
//     callers can select and tune any method without naming its type;
//   * a progress observer (iteration, evaluations used, best-so-far) honored
//     uniformly by every solver — instrumentation wraps the problem, so the
//     numeric trajectory is bitwise-unchanged whether or not anyone listens;
//   * an evaluation budget enforced uniformly (at batch granularity), with
//     the best-so-far point returned when the budget runs out;
//   * capability traits (dimension limits) validated before the run,
//     failing fast with std::invalid_argument — e.g. golden_section on a
//     multi-dimensional box;
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
/// are public fields; per-solver settings travel as name-keyed typed extras
/// (unknown keys are ignored, so one config can parameterize a whole sweep
/// of solvers). Default-constructed, it selects each solver's own defaults,
/// which live in that solver's run() and nowhere else.
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
  /// the budget, and an exhausted run returns the best point seen with
  /// converged = false.
  std::size_t max_evaluations = 0;
  /// Seed for stochastic solvers; nullopt keeps the solver's default seed.
  std::optional<std::uint64_t> seed;
  /// Optional worker pool for solvers that parallelize (multi_start runs
  /// its starts on it). Results do not depend on the thread count when the
  /// solve is uninstrumented; with a budget or a control, which start gets
  /// cut short depends on scheduling. core::SafetyOptimizer attaches
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
  /// layer at evaluation granularity: once the control fires, further
  /// objective calls report +inf without evaluating, the solver winds down
  /// on its own, and solve() returns the best point seen with
  /// converged = false and a message naming the abort reason — partial
  /// results, never an exception, exactly like budget exhaustion. Not
  /// owned; must outlive the solve call. nullptr (the default) keeps the
  /// uninstrumented fast path bit-identical and overhead-free.
  const ExecutionControl* control = nullptr;

  /// True when solve() wraps the problem to observe, budget or poll it:
  /// an observer, an evaluation budget or a control is set. Otherwise the
  /// solver runs on the problem untouched.
  [[nodiscard]] bool instrumented() const noexcept {
    return static_cast<bool>(observer) || max_evaluations != 0 ||
           control != nullptr;
  }

  /// Sets a numeric per-solver extra (e.g. "points_per_dimension" for
  /// grid_search). Returns *this for chaining.
  SolverConfig& set(std::string_view key, double value);
  /// Sets a string per-solver extra (e.g. "inner" for multi_start).
  SolverConfig& set(std::string_view key, std::string value);
  /// Parses a command-line extra of the form "key=value" (the safeopt CLI's
  /// `--extra starts=16`), typed by parse_key_value_argument (support/
  /// strings.h), the rule `--engine-opt` shares: a number becomes a numeric
  /// extra, text a string extra — matching the two set() overloads, so
  /// count_or/number_or validation applies at consumption ("starts=-3"
  /// stores -3 and count_or("starts") then rejects it with a message naming
  /// the key). Throws std::invalid_argument when the argument has no '=',
  /// an empty key or value, or a numeric-looking typo ("starts=8x").
  SolverConfig& set_extra_argument(std::string_view key_equals_value);

  [[nodiscard]] bool has(std::string_view key) const noexcept;
  /// The numeric extra under `key`, or `fallback` when absent.
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const noexcept;
  /// The numeric extra under `key` as a count (sizes, iterations, starts).
  /// Throws std::invalid_argument — naming the key — when the stored value
  /// is not a finite non-negative integer, so a config-file typo surfaces
  /// as a clear error instead of a double→unsigned cast gone wrong.
  [[nodiscard]] std::size_t count_or(std::string_view key,
                                     std::size_t fallback) const;
  /// The string extra under `key`, or `fallback` when absent.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;

 private:
  std::map<std::string, double, std::less<>> numbers_;
  std::map<std::string, std::string, std::less<>> strings_;
};

/// Static capabilities of one solver, validated before every run.
struct SolverTraits {
  /// Smallest supported problem dimension. differential_evolution sets 2:
  /// on an interval its mutant is the forced axis of a + F(b - c), clamped
  /// into the box, and the population collapses onto a bound.
  std::size_t min_dimension = 1;
  /// Largest supported problem dimension; 0 = unlimited. golden_section
  /// sets 1: its bracketing argument only exists on an interval.
  std::size_t max_dimension = 0;
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

  /// Validates the problem against traits() and the config (throws
  /// std::invalid_argument with an actionable message on mismatch — e.g.
  /// golden_section on a multi-dimensional box or differential_evolution
  /// on an interval), instruments the problem when an observer or
  /// evaluation budget is configured, and runs the numeric method. Without observer/budget/control the problem is passed
  /// through untouched.
  [[nodiscard]] OptimizationResult solve(const Problem& problem,
                                         const SolverConfig& config = {}) const;

  /// The validation half of solve(): throws std::invalid_argument when this
  /// solver cannot run on `problem`. Meta-solvers call it on their inner
  /// solver before fanning out.
  void validate(const Problem& problem) const;

 protected:
  Solver() = default;
  Solver(const Solver&) = default;
  Solver& operator=(const Solver&) = default;

 private:
  /// The numeric method. `problem` is pre-validated (and instrumented when
  /// the config asks for observation or budgeting).
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
