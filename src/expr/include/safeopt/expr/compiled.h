// Compiled evaluation of expression DAGs.
//
// Expr::evaluate() walks the shared-pointer DAG with one virtual dispatch,
// one ParameterAssignment binary search per parameter mention, and repeated
// recomputation of structurally identical subtrees. That is fine for a
// report; it is not fine for optimizers that call the cost function tens of
// thousands of times per solve.
//
// CompiledExpr flattens the DAG once into a postorder instruction tape:
//   * common subexpressions are shared (structural hashing — two calls to
//     ElbtunnelModel::p_overtime1() build distinct nodes but compile to one
//     tape slot, so the expensive truncated-normal survival runs once),
//   * constant subtrees are folded at compile time,
//   * parameters become slot loads from a flat vector (no name lookups),
//   * evaluation is a tight loop over plain structs — no virtual calls.
//
// The tape supports two access patterns:
//   value     — evaluate(parameters)
//   batch     — evaluate_batch(BatchRequest): many parameter vectors in one
//               call. The request names everything about the evaluation in
//               one struct — points, values, lane width, thread pool, and
//               the hardware backend — so every caller, from opt::Problem to
//               the sweep tables to `safeopt serve`, hops backends through
//               a single call shape. Batches run on lane-blocked
//               structure-of-arrays kernels: L points advance through every
//               instruction together, so interpreter dispatch amortizes
//               L-fold. *Which* kernel runs is an expr::EvalBackend picked
//               from the BackendRegistry ("generic" is the portable
//               interpreter; "avx2" is an explicit intrinsic kernel),
//               selected at runtime by CPUID dispatch unless the
//               request, the SAFEOPT_BACKEND env var, or the --backend CLI
//               override pins one. The scalar loop remains the tail
//               handler, the lane_width == 1 path, and the bitwise-identity
//               oracle on every backend.
//
// The tape computes values only. The one derivative in the library, the
// §IV-C.2 sensitivity, is forward-mode Dual arithmetic on the tree
// (Expr::evaluate_dual, expr/dual.h).
//
// Evaluation is bitwise-identical to Expr::evaluate(): the tape performs the
// same floating-point operations on the same values (sharing only removes
// *re*-computation, immediate fusion only changes where an operand is loaded
// from, and the algebraic identities x+0 / x−0 / x·1 / x/1 / x^1 are exact
// in IEEE arithmetic), which is what lets optimizers switch paths without
// perturbing results. That identity extends across the backend seam: every
// registered backend must produce results bitwise-identical to "generic"
// for every lane width, batch split, and thread count (see
// eval_backend.h). The single caveat: an identity can surface a −0.0
// where the tree produced +0.0 (−0.0 + 0 rounds to +0.0); the two compare
// equal, so optima remain ==-comparable. Opaque function1 nodes are assumed
// pure (same input, same output) — the same contract the tree walk's
// memo-free recursion already implies for shared subtrees.
#ifndef SAFEOPT_EXPR_COMPILED_H
#define SAFEOPT_EXPR_COMPILED_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "safeopt/expr/expr.h"

namespace safeopt {
class ThreadPool;
}

namespace safeopt::expr {

class EvalBackend;

/// One batched evaluation, described in full. The single argument of
/// CompiledExpr::evaluate_batch — aggregate-initialize the fields you need
/// and leave the rest defaulted:
///
///   compiled.evaluate_batch({.points = points, .values = out});
///   compiled.evaluate_batch({.points = points, .values = out,
///                            .pool = &pool});
struct BatchRequest {
  /// Row-major parameter vectors, one row of length parameter_order().size()
  /// per output value: points.size() == values.size() * dim.
  std::span<const double> points;
  /// One output value per row; its size is the row count.
  std::span<double> values;
  /// Points per lane block. 0 = the backend's default width; 1 = the scalar
  /// reference loop (the bitwise oracle, identical on every backend); any
  /// other value must satisfy backend->supports_lane_width(). Results are
  /// bitwise-identical for every choice.
  std::size_t lane_width = 0;
  /// Fan rows out over this pool (nullptr = evaluate on this thread). Each
  /// row depends only on itself, so results are bitwise-independent of the
  /// thread count.
  ThreadPool* pool = nullptr;
  /// Evaluate on this specific backend (nullptr = BackendRegistry::active(),
  /// the runtime CPUID dispatch honoring SAFEOPT_BACKEND / --backend).
  const EvalBackend* backend = nullptr;
};

class CompiledExpr {
 public:
  /// Reusable per-thread evaluation state: the value slots plus a
  /// last-argument memo for the expensive distribution instructions (cdf /
  /// survival). Sweep- and grid-shaped workloads repeat arguments along
  /// axes, and a memo hit replays the bitwise-identical previous result, so
  /// caching never perturbs values. A Workspace binds to the CompiledExpr it
  /// first evaluates; handing it to a different one resets it.
  class Workspace {
   public:
    Workspace() = default;

   private:
    friend class CompiledExpr;
    // Identity of the bound tape — a process-unique compilation serial, not
    // an address (a recompiled CompiledExpr at a reused address must not
    // look bound, or stale undersized buffers would be reused).
    std::uint64_t bound_id = 0;
    std::vector<double> slots;
    std::vector<double> memo_arg;
    std::vector<double> memo_val;
  };

  /// Compiles `source` with the parameter slots ordered alphabetically
  /// (== the iteration order of source.parameters()).
  [[nodiscard]] static CompiledExpr compile(const Expr& source);

  /// Compiles with an explicit slot order — the order optimizer vectors use.
  /// Every parameter the expression mentions must appear in
  /// `parameter_order`; extra names are allowed (their slots are ignored).
  [[nodiscard]] static CompiledExpr compile(
      const Expr& source, std::vector<std::string> parameter_order);

  /// The names bound to evaluation slots, in slot order.
  [[nodiscard]] const std::vector<std::string>& parameter_order()
      const noexcept {
    return parameter_order_;
  }
  /// Number of tape instructions (== value slots used by one evaluation).
  [[nodiscard]] std::size_t tape_size() const noexcept { return tape_.size(); }

  /// Evaluates at one point. Precondition: parameters.size() ==
  /// parameter_order().size(). Thread-safe: concurrent calls on the same
  /// CompiledExpr are fine (scratch is per-call / per-thread).
  [[nodiscard]] double evaluate(std::span<const double> parameters) const;

  /// Same, with caller-owned state: the workspace's memo carries over
  /// between calls, which is the fast path for sweeps that hold some
  /// parameters fixed. One workspace per thread.
  [[nodiscard]] double evaluate(std::span<const double> parameters,
                                Workspace& workspace) const;

  /// Name-based convenience; every parameter slot must be bound in `env`.
  [[nodiscard]] double evaluate(const ParameterAssignment& env) const;

  /// Default lane width of the generic SoA kernel (points per instruction).
  static constexpr std::size_t kDefaultLaneWidth = 8;

  /// Evaluates `request.values.size()` rows in one call on the lane-block
  /// kernels of the requested backend. See BatchRequest for the full shape;
  /// every row is bitwise-identical to a per-row evaluate() call for every
  /// backend, lane width, batch split, and thread count.
  void evaluate_batch(const BatchRequest& request) const;

  /// Human-readable tape listing, one instruction per line (debugging aid).
  [[nodiscard]] std::string disassemble() const;

  // ------------------------------------------------------------------ SPI
  // The backend service-provider interface: everything an EvalBackend's
  // kernels need to interpret the tape. Stable for in-tree backends and the
  // docs/extending.md recipe; ordinary callers never touch it.

  enum class OpCode : std::uint8_t {
    kConst,     // imm
    kParam,     // parameter slot a
    kAdd, kSub, kMul, kDiv, kMin, kMax,  // value slots a, b
    // Immediate-fused binaries: one operand was a compile-time constant.
    // Same floating-point operation, one slot load and one instruction less.
    kAddImm,    // slot a + imm
    kSubImm,    // slot a - imm
    kRsubImm,   // imm - slot a
    kMulImm,    // slot a * imm
    kDivImm,    // slot a / imm
    kRdivImm,   // imm / slot a
    kNeg, kExp, kLog, kSqrt,             // value slot a
    kPow,       // value slot a, exponent imm
    kCdf,       // value slot a, distribution table index b
    kSurvival,  // value slot a, distribution table index b
    kCall,      // value slot a, function table index b
  };

  struct Instruction {
    OpCode op;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;  // memo index (kCdf / kSurvival only)
    double imm = 0.0;
  };

  /// Per-call state of the lane kernels: the SoA value slab
  /// (tape_size() × L doubles, slot-major so each instruction's lanes are
  /// contiguous) plus the distribution-argument memo tables. Where the
  /// scalar Workspace memo remembers only the *last* argument of each cdf /
  /// survival site, the lane kernels keep a small direct-mapped table per
  /// site (kMemoEntries (argument, result) pairs hashed on the argument's
  /// bit pattern). Grid- and sweep-shaped batches revisit the same argument
  /// values row after row, and a table hit replays the bitwise-identical
  /// stored result — so the memo, like the scalar one, can never perturb a
  /// value, only skip recomputing it.
  struct LaneScratch {
    std::vector<double> slab;
    std::vector<double> memo_arg;
    std::vector<double> memo_val;
  };
  static constexpr std::size_t kMemoEntries = 2048;  // per cdf/survival site

  /// The instruction tape, postorder; the final instruction is the root.
  [[nodiscard]] std::span<const Instruction> tape() const noexcept {
    return tape_;
  }
  /// Number of cdf/survival memo sites on the tape.
  [[nodiscard]] std::uint32_t memo_count() const noexcept {
    return memo_count_;
  }
  /// The distribution behind a kCdf/kSurvival instruction's `b` index.
  [[nodiscard]] const stats::Distribution& distribution_at(
      std::uint32_t index) const noexcept {
    return *distributions_[index];
  }
  /// Invokes the opaque function behind a kCall instruction's `b` index
  /// (backends keep kCall loops scalar so the callback sees the exact
  /// per-row invocation pattern of evaluate()).
  [[nodiscard]] double apply_call(std::uint32_t index, double x) const;

  /// Sizes `scratch` for this tape (cold memo) and L lanes.
  void bind_lanes(LaneScratch& scratch, std::size_t lanes) const;

  /// The "generic" kernel, callable from any backend: the portable
  /// lane-block sweep (width ∈ {4, 8, 16}). A custom backend can delegate
  /// entire blocks here for tape features it does not accelerate.
  void run_generic_block(const double* points, std::size_t dim,
                         std::size_t width, double* out,
                         LaneScratch& scratch) const;

 private:
  class Builder;

  CompiledExpr() = default;

  /// Executes the tape over `slots` (length >= tape_size()) and returns the
  /// final slot's value. `memo_arg` / `memo_val` (length memo_count_, NaN
  /// args == empty) cache the last (argument, result) pair of each cdf /
  /// survival instruction.
  double run(std::span<const double> parameters, double* slots,
             double* memo_arg, double* memo_val) const;

  /// Points `workspace`'s buffers at this tape, resetting stale state.
  void bind(Workspace& workspace) const;

  /// Evaluates one block of exactly L rows through the SoA kernel;
  /// `points` holds L row-major parameter vectors, `out` L values.
  template <std::size_t L>
  void run_lane_block(const double* points, std::size_t dim, double* out,
                      LaneScratch& scratch) const;

  // Scalar op semantics shared by run() and compile-time constant folding,
  // so folding is guaranteed bit-identical to deferred evaluation.
  static double apply_binary(OpCode op, double x, double y);
  static double apply_unary(OpCode op, double x, double imm);

  /// Mark-and-sweep from `root`: drops instructions whose value cannot reach
  /// the root (constants orphaned by immediate fusion, mostly) and compacts
  /// slot numbering so the root ends up in the final slot.
  void eliminate_dead_code(std::uint32_t root);

  std::vector<std::string> parameter_order_;
  std::vector<Instruction> tape_;
  std::uint32_t memo_count_ = 0;
  std::uint64_t id_ = 0;  // process-unique per compile(); copies share it
  std::vector<std::shared_ptr<const stats::Distribution>> distributions_;
  // FunctionNode handles (opaque std::function payloads), kept alive here.
  std::vector<std::shared_ptr<const detail::Node>> calls_;
};

}  // namespace safeopt::expr

#endif  // SAFEOPT_EXPR_COMPILED_H
