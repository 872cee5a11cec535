#include "safeopt/opt/solver.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "builtin_solvers.h"
#include "safeopt/support/contracts.h"
#include "safeopt/support/execution.h"
#include "safeopt/support/mutex.h"
#include "safeopt/support/registry.h"
#include "safeopt/support/strings.h"
#include "safeopt/support/thread_annotations.h"

namespace safeopt::opt {

// ------------------------------------------------------------ SolverConfig

SolverConfig& SolverConfig::set(std::string_view key, double value) {
  return set(key, OptionValue::of(value));
}

SolverConfig& SolverConfig::set(std::string_view key, std::string value) {
  return set(key, OptionValue::of(std::move(value)));
}

SolverConfig& SolverConfig::set(std::string_view key, OptionValue value) {
  extras_.insert_or_assign(std::string(key), std::move(value));
  return *this;
}

bool SolverConfig::has(std::string_view key) const noexcept {
  return extras_.find(key) != extras_.end();
}

double SolverConfig::number_or(std::string_view key,
                               double fallback) const noexcept {
  const auto it = extras_.find(key);
  return it != extras_.end() && it->second.kind == OptionValue::Kind::kNumber
             ? it->second.number
             : fallback;
}

std::string SolverConfig::string_or(std::string_view key,
                                    std::string_view fallback) const {
  const auto it = extras_.find(key);
  return it != extras_.end() && it->second.kind == OptionValue::Kind::kText
             ? it->second.text
             : std::string(fallback);
}

// ------------------------------------------------------- the option resolver

namespace {

constexpr OptionSpec kReservedOptions[] = {
    {.name = "max_iterations", .kind = OptionKind::kCount, .min = 0,
     .fallback = 1000, .doc = "outer-iteration cap of the iterative solvers"},
    {.name = "tolerance", .kind = OptionKind::kNumber, .fallback = 1e-10,
     .doc = "convergence tolerance on the solver's own scale measure"},
    {.name = "max_evaluations", .kind = OptionKind::kCount, .min = 0,
     .fallback = 0, .doc = "objective-evaluation budget (0 = unlimited)"},
    {.name = "seed", .kind = OptionKind::kCount, .min = 0,
     .fallback_text = "the solver's own",
     .doc = "seed of the stochastic solvers"},
};

}  // namespace

std::span<const OptionSpec> reserved_solver_options() noexcept {
  return kReservedOptions;
}

void apply_solver_option(SolverConfig& config, std::string_view key,
                         const OptionValue& value) {
  const OptionSpec* reserved = find_option(kReservedOptions, key);
  if (reserved == nullptr) {
    config.set(key, value);
    return;
  }
  const double number = check_option(*reserved, value, "solver");
  if (key == "max_iterations") {
    config.max_iterations = static_cast<std::size_t>(number);
  } else if (key == "tolerance") {
    config.tolerance = number;
  } else if (key == "max_evaluations") {
    config.max_evaluations = static_cast<std::size_t>(number);
  } else {
    config.seed = static_cast<std::uint64_t>(number);
  }
}

void apply_solver_argument(SolverConfig& config,
                           std::string_view key_equals_value) {
  const KeyValueArgument argument =
      parse_key_value_argument(key_equals_value, "solver extra");
  apply_solver_option(config, argument.key, option_value(argument));
}

// ---------------------------------------------------------- instrumentation

namespace {

class Instrument;

/// What a refused evaluation throws. Only the solve() that owns `owner`
/// catches it, so an instrumented solve nested inside another one's
/// objective unwinds to its own solve() and no further.
struct Refusal {
  const Instrument* owner;
};

/// Wraps a Problem to count evaluations, track the best point, fire the
/// progress observer, and enforce the evaluation budget. All shared state is
/// guarded by one mutex (multi_start may evaluate from pool workers); the
/// wrapped calls produce exactly the values the original problem produces,
/// so instrumentation never changes a trajectory — it can only cut one short.
/// Once the budget is spent or the control has fired, the next evaluation
/// request throws a Refusal instead of evaluating, which unwinds the solver
/// (through any pool it runs on) back to solve().
class Instrument {
 public:
  explicit Instrument(const SolverConfig& config)
      : budget_(config.max_evaluations),
        observer_(config.observer),
        control_(config.control) {}

  [[nodiscard]] Problem wrap(const Problem& original) {
    Problem wrapped;
    wrapped.bounds = original.bounds;
    wrapped.objective = [this, &original](std::span<const double> x) {
      reserve(1);
      const double value = original.objective(x);
      record(x, value);
      return value;
    };
    // Batch paths are decided at batch granularity: a batch that starts
    // under budget runs to completion (values identical to the unwrapped
    // problem for any thread count), and only the in-budget prefix is
    // counted. A problem without a batch path stays without one, so its
    // batches keep being evaluated (and billed) point by point.
    if (original.has_batch_objective()) {
      wrapped.batch_objective = [this, &original](
                                    std::span<const double> points,
                                    std::span<double> out) {
        reserve(out.size());
        original.evaluate_batch(points, out);
        record_batch(points, out);
      };
    }
    return wrapped;
  }

  /// Applies the instrumented accounting to the solver's raw result.
  [[nodiscard]] OptimizationResult finalize(OptimizationResult result) {
    const MutexLock lock(mutex_);
    if (abort_status_ == ExecutionStatus::kRunning && !exhausted_) {
      return result;
    }
    result.evaluations = evaluations_;
    result.converged = false;
    result.message =
        concat(abort_status_ != ExecutionStatus::kRunning
                   ? status_reason(abort_status_)
                   : std::string_view("evaluation budget exhausted"),
               " after ", std::to_string(evaluations_), " evaluations");
    if (!best_point_.empty()) {
      result.argmin = best_point_;
      result.value = best_value_;
    }
    return result;
  }

 private:
  /// Books `n` evaluations against the budget, or throws a Refusal when
  /// the budget was already spent or the control has fired. A request that
  /// straddles the budget is granted in full but billed only up to it,
  /// keeping the reported count <= budget.
  void reserve(std::size_t n) {
    const MutexLock lock(mutex_);
    // Abort check first: once the control fires, the refusal is sticky (no
    // further status polls).
    if (control_ != nullptr && abort_status_ == ExecutionStatus::kRunning) {
      abort_status_ = control_->status();
    }
    if (abort_status_ != ExecutionStatus::kRunning) throw Refusal{this};
    if (budget_ == 0) {
      evaluations_ += n;
      return;
    }
    if (evaluations_ >= budget_) {
      exhausted_ = true;
      throw Refusal{this};
    }
    if (evaluations_ + n > budget_) {
      // Granted in full, billed up to the budget. A run that finishes using
      // *exactly* the budget is a normal completion — exhausted_ is only
      // set when a request overruns or is refused.
      evaluations_ = budget_;
      exhausted_ = true;
    } else {
      evaluations_ += n;
    }
  }

  void record(std::span<const double> x, double value) {
    const MutexLock lock(mutex_);
    if (!(value < best_value_)) return;
    best_value_ = value;
    best_point_.assign(x.begin(), x.end());
    notify();
  }

  void record_batch(std::span<const double> points,
                    std::span<double> values) {
    if (values.empty()) return;
    const std::size_t dim = points.size() / values.size();
    const MutexLock lock(mutex_);
    bool improved = false;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] < best_value_) {
        best_value_ = values[i];
        best_point_.assign(points.begin() + static_cast<std::ptrdiff_t>(i * dim),
                           points.begin() +
                               static_cast<std::ptrdiff_t>((i + 1) * dim));
        improved = true;
      }
    }
    if (improved) notify();  // one event per improving batch
  }

  void notify() SAFEOPT_REQUIRES(mutex_) {
    if (!observer_) return;
    ProgressEvent event;
    event.iteration = events_++;
    event.evaluations = evaluations_;
    event.best_value = best_value_;
    event.best_point = best_point_;
    observer_(event);
  }

  Mutex mutex_;
  std::size_t budget_;
  const ProgressObserver& observer_;
  const ExecutionControl* control_;
  std::size_t evaluations_ SAFEOPT_GUARDED_BY(mutex_) = 0;
  std::size_t events_ SAFEOPT_GUARDED_BY(mutex_) = 0;
  double best_value_ SAFEOPT_GUARDED_BY(mutex_) =
      std::numeric_limits<double>::infinity();
  std::vector<double> best_point_ SAFEOPT_GUARDED_BY(mutex_);
  bool exhausted_ SAFEOPT_GUARDED_BY(mutex_) = false;
  ExecutionStatus abort_status_ SAFEOPT_GUARDED_BY(mutex_) =
      ExecutionStatus::kRunning;
};

}  // namespace

// ----------------------------------------------------------------- Solver

void Solver::check_extras(std::string_view owner,
                          std::span<const OptionSpec> rows,
                          const SolverConfig& config) {
  for (const auto& [key, value] : config.extras()) {
    const OptionSpec* row = find_option(rows, key);
    if (row == nullptr) {
      // A reserved key here came from a programmatic set(): the resolver
      // routes reserved keys to their fields.
      if (find_option(kReservedOptions, key) != nullptr) {
        throw std::invalid_argument(
            concat(owner, ": \"", key,
                   "\" is a typed SolverConfig field, not an extra"));
      }
      throw_unknown_option(owner, key, rows, kReservedOptions);
    }
    (void)check_option(*row, value, owner);
  }
}

void Solver::check_options(const SolverConfig& config) const {
  check_extras(name(), traits().options, config);
}

void Solver::validate(const Problem& problem,
                      const SolverConfig& config) const {
  if (!problem.objective) {
    throw std::invalid_argument(
        concat(name(), ": the problem has no objective"));
  }
  const std::size_t dim = problem.bounds.dimension();
  if (dim == 0) {
    throw std::invalid_argument(
        concat(name(), ": the problem's bounds are empty (dimension 0)"));
  }
  const SolverTraits t = traits();
  if (dim < t.min_dimension) {
    throw std::invalid_argument(concat(
        name(), " needs at least ", std::to_string(t.min_dimension),
        "-dimensional problems, but the box is ", std::to_string(dim),
        "-dimensional; use golden_section (1-D only) or nelder_mead"));
  }
  if (t.max_dimension != 0 && dim > t.max_dimension) {
    throw std::invalid_argument(concat(
        name(), " handles at most ", std::to_string(t.max_dimension),
        "-dimensional problems, but the box has ", std::to_string(dim),
        " dimensions; pick another solver from SolverRegistry::available()"));
  }
  if (!config.initial.empty() && config.initial.size() != dim) {
    throw std::invalid_argument(concat(
        name(), ": initial point has ", std::to_string(config.initial.size()),
        " coordinates for a ", std::to_string(dim), "-dimensional box"));
  }
  check_options(config);
}

double Solver::number(const SolverConfig& config, std::string_view key) const {
  const OptionSpec* row = find_option(traits().options, key);
  SAFEOPT_EXPECTS(row != nullptr);
  const auto it = config.extras().find(key);
  if (it == config.extras().end()) return row->fallback;
  if (it->second.kind == OptionValue::Kind::kText) {
    return it->second.text == "true" ? 1.0 : 0.0;  // a flag's word
  }
  return it->second.number;
}

std::size_t Solver::count(const SolverConfig& config,
                          std::string_view key) const {
  return static_cast<std::size_t>(number(config, key));
}

OptimizationResult Solver::solve(const Problem& problem,
                                 const SolverConfig& config) const {
  validate(problem, config);
  if (!config.instrumented()) {
    return run(problem, config);  // untouched fast path, bit-identical
  }
  Instrument instrument(config);
  const Problem wrapped = instrument.wrap(problem);
  OptimizationResult result;
  try {
    result = run(wrapped, config);
  } catch (const Refusal& refusal) {
    if (refusal.owner != &instrument) throw;
    // Cut short: finalize() puts in the best point seen, if any; the
    // solver never returned, so no iteration is reported.
    result.argmin =
        config.initial.empty() ? problem.bounds.center() : config.initial;
    result.value = std::numeric_limits<double>::infinity();
  }
  return instrument.finalize(std::move(result));
}

// --------------------------------------------------------- SolverRegistry

namespace {

/// The shared registry scaffolding, seeded with the seven built-in solvers
/// on first use (via named factory functions the linker cannot drop — see
/// builtin_solvers.h).
NameRegistry<SolverRegistry::Factory>& registry() {
  static NameRegistry<SolverRegistry::Factory> instance(
      "solver", {{"coordinate_descent", &builtin::coordinate_descent},
                 {"differential_evolution", &builtin::differential_evolution},
                 {"golden_section", &builtin::golden_section},
                 {"grid_search", &builtin::grid_search},
                 {"hooke_jeeves", &builtin::hooke_jeeves},
                 {"multi_start", &builtin::multi_start},
                 {"nelder_mead", &builtin::nelder_mead}});
  return instance;
}

}  // namespace

bool SolverRegistry::add(std::string name, Factory factory) {
  return registry().add(std::move(name), std::move(factory));
}

std::unique_ptr<Solver> SolverRegistry::create(std::string_view name) {
  std::unique_ptr<Solver> solver = registry().find(name)();
  SAFEOPT_ENSURES(solver != nullptr);
  return solver;
}

bool SolverRegistry::contains(std::string_view name) {
  return registry().contains(name);
}

std::vector<std::string> SolverRegistry::available() {
  return registry().available();
}

}  // namespace safeopt::opt
