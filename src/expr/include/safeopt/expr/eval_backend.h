// The hardware backend seam of the batch evaluator.
//
// Every batch above expr — opt::Problem batch closures (grid rounds, DE
// populations, tabulated surfaces) and environment sweeps — funnels
// through CompiledExpr::evaluate_batch(BatchRequest); scalar evaluation
// (the solvers' per-point objective, the leaf tapes every quantification
// reads) runs no backend. This header is the seam those batches cross:
// an `EvalBackend` is one implementation of the lane-block kernels (the
// per-instruction loops over L points), and the `BackendRegistry` is the
// name -> backend table that runtime dispatch picks from. Two backends are
// built in:
//
//   "generic"  the portable lane-blocked interpreter (compiled.cpp) — the
//              bitwise oracle every other backend is tested against
//   "avx2"     explicit 256-bit intrinsic kernels (backend_avx2.cpp)
//
// Any backend besides the "generic" oracle is kept only while it is the
// fastest on at least one of bench_compiled_eval's two tapes: the Fig. 5
// surface and a study document's cost tape at scattered points.
//
// The backend is a property of the process, not of a study or a result.
// Dispatch picks the highest-priority backend whose `available()` CPUID
// probe passes; `SAFEOPT_BACKEND` or the `--backend` CLI flag (a
// process-wide override) pin a specific one, and an explicit
// BatchRequest::backend pointer pins one for a single batch (tests,
// benches). A requested backend that is unknown or unavailable on this CPU
// *degrades* to the best available backend with a recorded diagnostic —
// never a crash, and dispatch never selects an unavailable backend. The
// CLI and `safeopt serve` print that diagnostic once at startup;
// `safeopt backends` and serve's `/v1/stats` report the pick.
//
// The contract a backend must keep (docs/extending.md "Adding an
// evaluation backend"): for every supported lane width, every batch split
// and every thread count, its results are bitwise-identical to "generic" —
// which is itself bitwise-identical to the scalar Expr::evaluate(). The
// practical rules: IEEE-exact ops (+,-,*,/,sqrt, the operand-swapped
// min/max) may vectorize freely; transcendentals and distribution calls
// stay scalar calls to the exact same functions; the per-site argument
// memo only ever replays bit-identical stored results; and the kernel TU
// is compiled with -ffp-contract=off so no a*b+c is contracted to an FMA.
#ifndef SAFEOPT_EXPR_EVAL_BACKEND_H
#define SAFEOPT_EXPR_EVAL_BACKEND_H

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "safeopt/expr/compiled.h"

namespace safeopt::expr {

/// One implementation of the lane-block kernels. Stateless and thread-safe:
/// all per-call state lives in the caller's LaneScratch, so one registered
/// instance serves every thread. Backends are registered once and live for
/// the process (BackendRegistry never destroys a handed-out backend).
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  /// Registry key and the name surfaced in diagnostics ("generic", ...).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Can this backend run on this machine? (CPUID probe via
  /// expr::cpu_features() — the registry consults this before every
  /// dispatch, so an unavailable backend is never selected.)
  [[nodiscard]] virtual bool available() const noexcept = 0;

  /// Dispatch rank among available backends; highest wins ("generic" is 0).
  [[nodiscard]] virtual int priority() const noexcept = 0;

  /// The lane width evaluate_batch uses when BatchRequest::lane_width == 0.
  [[nodiscard]] virtual std::size_t default_lane_width() const noexcept = 0;

  /// Block widths the kernels accept. Width 1 (the scalar reference loop)
  /// is handled by CompiledExpr itself and is identical on every backend.
  [[nodiscard]] virtual bool supports_lane_width(
      std::size_t width) const noexcept = 0;

  /// Evaluates one block of exactly `width` rows (a supported width).
  /// `points` holds `width` row-major parameter vectors of length `dim`,
  /// `out` receives `width` values; `scratch` was sized by
  /// CompiledExpr::bind_lanes(scratch, width).
  virtual void run_block(const CompiledExpr& expr, const double* points,
                         std::size_t dim, std::size_t width, double* out,
                         CompiledExpr::LaneScratch& scratch) const = 0;
};

/// Process-wide name -> backend table plus the runtime dispatch policy.
/// "generic" is always registered; "avx2" is registered whenever its kernel
/// TU was compiled in (its `available()` probe still gates dispatch at
/// runtime). All methods are thread-safe.
class BackendRegistry {
 public:
  /// The outcome of resolving a backend request.
  struct Selection {
    /// The backend evaluation will run on; always available(), never null.
    const EvalBackend* backend = nullptr;
    /// What was asked for (explicit name, process override, or
    /// SAFEOPT_BACKEND), empty for pure runtime dispatch.
    std::string requested;
    /// Non-empty when the request degraded: the human-readable record of
    /// why (unknown name / unavailable on this CPU) and what was used
    /// instead. Callers surface it next to their other diagnostics.
    std::string diagnostic;
  };

  /// Registers `backend` under backend->name(); returns false when it
  /// replaced an existing registration (the replaced backend stays alive —
  /// outstanding pointers keep working — but is no longer selectable).
  static bool add(std::unique_ptr<EvalBackend> backend);

  /// The named backend, or nullptr when unknown. The pointer stays valid
  /// for the process lifetime.
  [[nodiscard]] static const EvalBackend* find(std::string_view name);

  /// Registration-ordered names of every registered backend (available on
  /// this CPU or not — pair with find()->available() for the distinction).
  [[nodiscard]] static std::vector<std::string> registered();

  /// The bitwise oracle; always registered and always available.
  [[nodiscard]] static const EvalBackend& generic();

  /// What runtime dispatch selects right now: the process override
  /// (set_override), else SAFEOPT_BACKEND, else the highest-priority
  /// available backend. Never returns an unavailable backend.
  [[nodiscard]] static const EvalBackend& active();

  /// Resolves `requested` ("" = dispatch) with graceful degradation; see
  /// Selection. This is the one place override/env/dispatch policy lives.
  [[nodiscard]] static Selection resolve(std::string_view requested);

  /// Process-wide override, layered above SAFEOPT_BACKEND (the CLI's
  /// --backend flag). Empty clears it. Unknown/unavailable names degrade
  /// at resolve() time with a diagnostic rather than failing here.
  static void set_override(std::string name);
  [[nodiscard]] static std::string override_name();

  /// Re-reads SAFEOPT_BACKEND (captured once at first use). Test hook.
  static void refresh_environment();
};

}  // namespace safeopt::expr

#endif  // SAFEOPT_EXPR_EVAL_BACKEND_H
