#include "safeopt/expr/compiled.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <typeinfo>
#include <unordered_map>
#include <utility>

#include "node.h"
#include "safeopt/expr/eval_backend.h"
#include "safeopt/support/contracts.h"
#include "safeopt/support/strings.h"
#include "safeopt/support/thread_pool.h"

namespace safeopt::expr {

namespace {

// Scratch buffers reused across evaluations. Per-thread so concurrent
// evaluation of the same CompiledExpr (the batch path) needs no locking.
thread_local std::vector<double> t_slots;
thread_local std::vector<double> t_memo_arg;
thread_local std::vector<double> t_memo_val;

double* scratch(std::vector<double>& buffer, std::size_t size) {
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}

// Direct-mapped memo index for a distribution argument: multiplicative hash
// on the bit pattern, top bits as the table slot. kMemoMask must track
// CompiledExpr::kMemoEntries (static_assert at the use site).
constexpr std::size_t kMemoMask = 2047;
inline std::size_t memo_index(double x) noexcept {
  const std::uint64_t bits =
      std::bit_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(bits >> 53) & kMemoMask;
}

/// Applies a deterministic unary function across L lanes. When every lane
/// holds the same bit pattern (the slow-axis subexpressions of grid-shaped
/// blocks), one evaluation is broadcast — identical to per-lane calls
/// because f is a pure function of the argument bits.
template <std::size_t L, typename F>
inline void map_lanes_uniform(const double* a, double* lane, F&& f) {
  const std::uint64_t first = std::bit_cast<std::uint64_t>(a[0]);
  bool uniform = true;
  for (std::size_t l = 1; l < L; ++l) {
    uniform &= std::bit_cast<std::uint64_t>(a[l]) == first;
  }
  if (uniform) {
    const double v = f(a[0]);
    for (std::size_t l = 0; l < L; ++l) lane[l] = v;
    return;
  }
  for (std::size_t l = 0; l < L; ++l) lane[l] = f(a[l]);
}

}  // namespace

// ----------------------------------------------------------------- Builder

/// Flattens the node DAG into the tape. Three layers of sharing:
///   1. node identity — a subtree reached through two shared_ptr paths is
///      emitted once (memo on the node address);
///   2. structural identity — distinct nodes computing the same operation on
///      the same slots collapse into one instruction (hash on the
///      instruction tuple), which is what dedupes model code that rebuilds
///      the same subexpression twice;
///   3. constant folding — operations whose operands are constants are
///      evaluated now with the exact scalar code run() would use, so folding
///      never changes results.
class CompiledExpr::Builder {
 public:
  Builder(CompiledExpr& out,
          const std::vector<std::string>& parameter_order) {
    out_ = &out;
    for (std::size_t i = 0; i < parameter_order.size(); ++i) {
      parameter_slots_.emplace(parameter_order[i],
                               static_cast<std::uint32_t>(i));
    }
  }

  std::uint32_t emit_node(const std::shared_ptr<const detail::Node>& node) {
    const auto memo = node_slots_.find(node.get());
    if (memo != node_slots_.end()) return memo->second;
    const std::uint32_t slot = emit_uncached(node);
    node_slots_.emplace(node.get(), slot);
    return slot;
  }

 private:
  using OpCode = CompiledExpr::OpCode;
  using Instruction = CompiledExpr::Instruction;

  std::uint32_t emit_uncached(
      const std::shared_ptr<const detail::Node>& handle) {
    using detail::NodeKind;
    const detail::Node& node = *handle;
    switch (node.kind()) {
      case NodeKind::kConst:
        return emit_constant(
            static_cast<const detail::ConstNode&>(node).constant());
      case NodeKind::kParam: {
        const auto& param = static_cast<const detail::ParamNode&>(node);
        const auto it = parameter_slots_.find(param.name());
        SAFEOPT_EXPECTS(it != parameter_slots_.end());
        return emit({OpCode::kParam, it->second, 0, 0, 0.0});
      }
      case NodeKind::kBinary: {
        const auto& binary = static_cast<const detail::BinaryNode&>(node);
        const std::uint32_t a = emit_node(binary.lhs());
        const std::uint32_t b = emit_node(binary.rhs());
        OpCode op = OpCode::kAdd;
        switch (binary.op()) {
          case detail::BinaryOp::kAdd: op = OpCode::kAdd; break;
          case detail::BinaryOp::kSub: op = OpCode::kSub; break;
          case detail::BinaryOp::kMul: op = OpCode::kMul; break;
          case detail::BinaryOp::kDiv: op = OpCode::kDiv; break;
          case detail::BinaryOp::kMin: op = OpCode::kMin; break;
          case detail::BinaryOp::kMax: op = OpCode::kMax; break;
        }
        return emit_binary(op, a, b);
      }
      case NodeKind::kUnary: {
        const auto& unary = static_cast<const detail::UnaryNode&>(node);
        const std::uint32_t a = emit_node(unary.operand());
        OpCode op = OpCode::kNeg;
        switch (unary.op()) {
          case detail::UnaryOp::kNeg: op = OpCode::kNeg; break;
          case detail::UnaryOp::kExp: op = OpCode::kExp; break;
          case detail::UnaryOp::kLog: op = OpCode::kLog; break;
          case detail::UnaryOp::kSqrt: op = OpCode::kSqrt; break;
        }
        if (is_constant(a)) {
          return emit_constant(
              CompiledExpr::apply_unary(op, constant_of(a), 0.0));
        }
        return emit({op, a, 0, 0, 0.0});
      }
      case NodeKind::kPow: {
        const auto& pow_node = static_cast<const detail::PowNode&>(node);
        const std::uint32_t a = emit_node(pow_node.operand());
        if (is_constant(a)) {
          return emit_constant(CompiledExpr::apply_unary(
              OpCode::kPow, constant_of(a), pow_node.exponent()));
        }
        // pow(x, 1) == x bitwise for every x (IEC 60559), including NaN.
        if (pow_node.exponent() == 1.0) return a;
        return emit({OpCode::kPow, a, 0, 0, pow_node.exponent()});
      }
      case NodeKind::kCdf: {
        const auto& cdf = static_cast<const detail::CdfNode&>(node);
        const std::uint32_t a = emit_node(cdf.operand());
        const std::uint32_t dist = distribution_index(cdf.distribution());
        const OpCode op =
            cdf.is_survival() ? OpCode::kSurvival : OpCode::kCdf;
        if (is_constant(a)) {
          const double x = constant_of(a);
          return emit_constant(cdf.is_survival()
                                   ? cdf.distribution()->survival(x)
                                   : cdf.distribution()->cdf(x));
        }
        return emit({op, a, dist, 0, 0.0});
      }
      case NodeKind::kFunction: {
        const auto& call = static_cast<const detail::FunctionNode&>(node);
        const std::uint32_t a = emit_node(call.operand());
        // Opaque std::functions cannot be compared, so kCall instructions
        // are shared by node identity only (the memo in emit_node) and
        // never folded.
        const auto index = static_cast<std::uint32_t>(out_->calls_.size());
        out_->calls_.push_back(handle);
        const auto slot = static_cast<std::uint32_t>(out_->tape_.size());
        out_->tape_.push_back({OpCode::kCall, a, index, 0, 0.0});
        return slot;
      }
    }
    SAFEOPT_ASSERT(false);
    return 0;
  }

  [[nodiscard]] bool is_constant(std::uint32_t slot) const {
    return out_->tape_[slot].op == OpCode::kConst;
  }
  [[nodiscard]] double constant_of(std::uint32_t slot) const {
    return out_->tape_[slot].imm;
  }

  std::uint32_t emit_constant(double value) {
    return emit({OpCode::kConst, 0, 0, 0, value});
  }

  /// Binary emission with three strength levels, all value-preserving:
  /// full fold (both operands constant), exact algebraic identity (x+0,
  /// x−0, x·1, 1·x, x/1 — see the header caveat on −0.0), and immediate
  /// fusion (one constant operand moves into the instruction).
  std::uint32_t emit_binary(OpCode op, std::uint32_t a, std::uint32_t b) {
    const bool ca = is_constant(a);
    const bool cb = is_constant(b);
    if (ca && cb) {
      return emit_constant(
          CompiledExpr::apply_binary(op, constant_of(a), constant_of(b)));
    }
    const auto is_pos_zero = [](double c) {
      return std::bit_cast<std::uint64_t>(c) == 0;
    };
    if (cb) {
      const double c = constant_of(b);
      if ((op == OpCode::kAdd || op == OpCode::kSub) && is_pos_zero(c)) {
        return a;
      }
      if ((op == OpCode::kMul || op == OpCode::kDiv) && c == 1.0) return a;
      switch (op) {
        case OpCode::kAdd: return emit({OpCode::kAddImm, a, 0, 0, c});
        case OpCode::kSub: return emit({OpCode::kSubImm, a, 0, 0, c});
        case OpCode::kMul: return emit({OpCode::kMulImm, a, 0, 0, c});
        case OpCode::kDiv: return emit({OpCode::kDivImm, a, 0, 0, c});
        default: break;  // min/max stay slot-based (tie rules are positional)
      }
    } else if (ca) {
      const double c = constant_of(a);
      if (op == OpCode::kAdd && is_pos_zero(c)) return b;
      if (op == OpCode::kMul && c == 1.0) return b;
      switch (op) {
        case OpCode::kAdd: return emit({OpCode::kAddImm, b, 0, 0, c});
        case OpCode::kSub: return emit({OpCode::kRsubImm, b, 0, 0, c});
        case OpCode::kMul: return emit({OpCode::kMulImm, b, 0, 0, c});
        case OpCode::kDiv: return emit({OpCode::kRdivImm, b, 0, 0, c});
        default: break;
      }
    }
    return emit({op, a, b, 0, 0.0});
  }

  /// Structurally deduplicating emit: an identical (op, a, b, imm) tuple
  /// reuses its existing slot. The memo index `c` is assigned on first
  /// emission and shared by deduplicated uses.
  std::uint32_t emit(Instruction instruction) {
    const Key key{static_cast<std::uint8_t>(instruction.op), instruction.a,
                  instruction.b, std::bit_cast<std::uint64_t>(instruction.imm)};
    const auto it = structural_.find(key);
    if (it != structural_.end()) return it->second;
    if (instruction.op == OpCode::kCdf ||
        instruction.op == OpCode::kSurvival) {
      instruction.c = out_->memo_count_++;
    }
    const auto slot = static_cast<std::uint32_t>(out_->tape_.size());
    out_->tape_.push_back(instruction);
    structural_.emplace(key, slot);
    return slot;
  }

  /// Index into the distribution table, deduplicated first by object
  /// identity and then by canonical (type, name) — name() embeds the
  /// distribution's parameters, so two independently constructed
  /// TruncatedNormal(4, 2) instances share one table entry and their cdf
  /// applications become CSE-able.
  std::uint32_t distribution_index(
      const std::shared_ptr<const stats::Distribution>& dist) {
    const auto by_ptr = distributions_by_ptr_.find(dist.get());
    if (by_ptr != distributions_by_ptr_.end()) return by_ptr->second;
    std::string canonical = typeid(*dist).name();
    canonical += '|';
    canonical += dist->name();
    const auto by_name = distributions_by_name_.find(canonical);
    if (by_name != distributions_by_name_.end()) {
      distributions_by_ptr_.emplace(dist.get(), by_name->second);
      return by_name->second;
    }
    const auto index = static_cast<std::uint32_t>(out_->distributions_.size());
    out_->distributions_.push_back(dist);
    distributions_by_ptr_.emplace(dist.get(), index);
    distributions_by_name_.emplace(std::move(canonical), index);
    return index;
  }

  CompiledExpr* out_ = nullptr;
  std::unordered_map<std::string, std::uint32_t> parameter_slots_;
  std::unordered_map<const detail::Node*, std::uint32_t> node_slots_;

  struct Key {
    std::uint8_t op;
    std::uint32_t a;
    std::uint32_t b;
    std::uint64_t imm_bits;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      std::uint64_t h = key.op;
      h = h * 0x9e3779b97f4a7c15ULL + key.a;
      h = h * 0x9e3779b97f4a7c15ULL + key.b;
      h = h * 0x9e3779b97f4a7c15ULL + key.imm_bits;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  std::unordered_map<Key, std::uint32_t, KeyHash> structural_;
  std::unordered_map<const stats::Distribution*, std::uint32_t>
      distributions_by_ptr_;
  std::unordered_map<std::string, std::uint32_t> distributions_by_name_;
};

// ------------------------------------------------------------- CompiledExpr

CompiledExpr CompiledExpr::compile(const Expr& source) {
  const std::set<std::string> mentioned = source.parameters();
  return compile(source,
                 std::vector<std::string>(mentioned.begin(), mentioned.end()));
}

CompiledExpr CompiledExpr::compile(const Expr& source,
                                   std::vector<std::string> parameter_order) {
  CompiledExpr compiled;
  static std::atomic<std::uint64_t> next_id{1};
  compiled.id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  compiled.parameter_order_ = std::move(parameter_order);
  Builder builder(compiled, compiled.parameter_order_);
  const std::uint32_t root = builder.emit_node(source.node());
  compiled.eliminate_dead_code(root);
  SAFEOPT_ENSURES(!compiled.tape_.empty());
  return compiled;
}

void CompiledExpr::eliminate_dead_code(std::uint32_t root) {
  // Slot operand count; kParam's `a` and the table indices in `b` are not
  // slot references.
  const auto slot_operands = [](OpCode op) -> int {
    switch (op) {
      case OpCode::kConst:
      case OpCode::kParam:
        return 0;
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kMin:
      case OpCode::kMax:
        return 2;
      default:
        return 1;
    }
  };

  std::vector<bool> live(tape_.size(), false);
  live[root] = true;
  for (std::size_t i = root + 1; i-- > 0;) {
    if (!live[i]) continue;
    const Instruction& ins = tape_[i];
    const int operands = slot_operands(ins.op);
    if (operands >= 1) live[ins.a] = true;
    if (operands >= 2) live[ins.b] = true;
  }

  std::vector<std::uint32_t> remap(tape_.size(), 0);
  std::vector<Instruction> compacted;
  compacted.reserve(tape_.size());
  std::uint32_t memo_count = 0;
  for (std::size_t i = 0; i <= root; ++i) {
    if (!live[i]) continue;
    Instruction ins = tape_[i];
    const int operands = slot_operands(ins.op);
    if (operands >= 1) ins.a = remap[ins.a];
    if (operands >= 2) ins.b = remap[ins.b];
    if (ins.op == OpCode::kCdf || ins.op == OpCode::kSurvival) {
      ins.c = memo_count++;
    }
    remap[i] = static_cast<std::uint32_t>(compacted.size());
    compacted.push_back(ins);
  }
  tape_ = std::move(compacted);
  memo_count_ = memo_count;
  // Postorder emission puts every operand before its consumer, so the root
  // compacts to the final slot — which is what run() returns.
  SAFEOPT_ENSURES(!tape_.empty());
}

// Tapes at or below this size evaluate on a stack buffer; a thread_local
// heap scratch (with its per-access TLS guard) only backs the rare giants.
constexpr std::size_t kStackSlots = 256;

void CompiledExpr::bind(Workspace& workspace) const {
  if (workspace.bound_id == id_) return;
  workspace.bound_id = id_;
  workspace.slots.assign(tape_.size(), 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  workspace.memo_arg.assign(memo_count_, nan);
  workspace.memo_val.assign(memo_count_, nan);
}

double CompiledExpr::evaluate(std::span<const double> parameters) const {
  SAFEOPT_EXPECTS(parameters.size() == parameter_order_.size());
  if (tape_.size() <= kStackSlots && memo_count_ <= kStackSlots) {
    double slots[kStackSlots];
    double memo_arg[kStackSlots];
    double memo_val[kStackSlots];
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::uint32_t m = 0; m < memo_count_; ++m) memo_arg[m] = nan;
    return run(parameters, slots, memo_arg, memo_val);
  }
  // Giant tapes reuse the per-thread heap scratch; the memo is cold per
  // call (it cannot be trusted across calls without a Workspace binding).
  double* slots = scratch(t_slots, tape_.size());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double* memo_arg = scratch(t_memo_arg, memo_count_);
  double* memo_val = scratch(t_memo_val, memo_count_);
  std::fill(memo_arg, memo_arg + memo_count_, nan);
  return run(parameters, slots, memo_arg, memo_val);
}

double CompiledExpr::evaluate(std::span<const double> parameters,
                              Workspace& workspace) const {
  SAFEOPT_EXPECTS(parameters.size() == parameter_order_.size());
  bind(workspace);
  return run(parameters, workspace.slots.data(), workspace.memo_arg.data(),
             workspace.memo_val.data());
}

double CompiledExpr::evaluate(const ParameterAssignment& env) const {
  std::vector<double> parameters(parameter_order_.size());
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    parameters[i] = env.get(parameter_order_[i]);
  }
  return evaluate(parameters);
}

void CompiledExpr::bind_lanes(LaneScratch& scratch, std::size_t lanes) const {
  static_assert(kMemoEntries == kMemoMask + 1);
  scratch.slab.assign(tape_.size() * lanes, 0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::size_t memo_size =
      static_cast<std::size_t>(memo_count_) * kMemoEntries;
  scratch.memo_arg.assign(memo_size, nan);
  scratch.memo_val.assign(memo_size, nan);
}

template <std::size_t L>
void CompiledExpr::run_lane_block(const double* points, std::size_t dim,
                                  double* out, LaneScratch& scratch) const {
  const Instruction* const tape = tape_.data();
  const std::size_t n = tape_.size();
  double* const slab = scratch.slab.data();
  // For kConst/kParam `a` is an immediate/parameter index, not a slot;
  // clamping keeps the (unused) operand pointers inside the slab so the
  // unconditional setup below is never out-of-bounds pointer arithmetic.
  const auto slot_of = [n](std::uint32_t s) {
    return std::min<std::size_t>(s, n - 1);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Instruction& ins = tape[i];
    double* const lane = slab + i * L;
    const double* const a = slab + slot_of(ins.a) * L;
    const double* const b = slab + slot_of(ins.b) * L;
    switch (ins.op) {
      case OpCode::kConst:
        for (std::size_t l = 0; l < L; ++l) lane[l] = ins.imm;
        break;
      case OpCode::kParam:
        for (std::size_t l = 0; l < L; ++l) lane[l] = points[l * dim + ins.a];
        break;
      case OpCode::kAdd:
        for (std::size_t l = 0; l < L; ++l) lane[l] = a[l] + b[l];
        break;
      case OpCode::kSub:
        for (std::size_t l = 0; l < L; ++l) lane[l] = a[l] - b[l];
        break;
      case OpCode::kMul:
        for (std::size_t l = 0; l < L; ++l) lane[l] = a[l] * b[l];
        break;
      case OpCode::kDiv:
        for (std::size_t l = 0; l < L; ++l) lane[l] = a[l] / b[l];
        break;
      case OpCode::kMin:
        for (std::size_t l = 0; l < L; ++l) lane[l] = std::min(a[l], b[l]);
        break;
      case OpCode::kMax:
        for (std::size_t l = 0; l < L; ++l) lane[l] = std::max(a[l], b[l]);
        break;
      case OpCode::kAddImm:
        for (std::size_t l = 0; l < L; ++l) lane[l] = a[l] + ins.imm;
        break;
      case OpCode::kSubImm:
        for (std::size_t l = 0; l < L; ++l) lane[l] = a[l] - ins.imm;
        break;
      case OpCode::kRsubImm:
        for (std::size_t l = 0; l < L; ++l) lane[l] = ins.imm - a[l];
        break;
      case OpCode::kMulImm:
        for (std::size_t l = 0; l < L; ++l) lane[l] = a[l] * ins.imm;
        break;
      case OpCode::kDivImm:
        for (std::size_t l = 0; l < L; ++l) lane[l] = a[l] / ins.imm;
        break;
      case OpCode::kRdivImm:
        for (std::size_t l = 0; l < L; ++l) lane[l] = ins.imm / a[l];
        break;
      case OpCode::kNeg:
        for (std::size_t l = 0; l < L; ++l) lane[l] = -a[l];
        break;
      case OpCode::kSqrt:
        for (std::size_t l = 0; l < L; ++l) lane[l] = std::sqrt(a[l]);
        break;
      case OpCode::kExp:
        map_lanes_uniform<L>(a, lane, [](double x) { return std::exp(x); });
        break;
      case OpCode::kLog:
        map_lanes_uniform<L>(a, lane, [](double x) { return std::log(x); });
        break;
      case OpCode::kPow:
        map_lanes_uniform<L>(a, lane, [imm = ins.imm](double x) {
          return std::pow(x, imm);
        });
        break;
      case OpCode::kCdf:
      case OpCode::kSurvival: {
        const stats::Distribution& dist = *distributions_[ins.b];
        const bool survival = ins.op == OpCode::kSurvival;
        double* const site_arg =
            scratch.memo_arg.data() +
            static_cast<std::size_t>(ins.c) * kMemoEntries;
        double* const site_val =
            scratch.memo_val.data() +
            static_cast<std::size_t>(ins.c) * kMemoEntries;
        for (std::size_t l = 0; l < L; ++l) {
          const double x = a[l];
          const std::size_t slot = memo_index(x);
          // A hit replays the bit-identical stored result of this exact
          // argument (NaN sentinels never compare equal, so cold slots and
          // NaN arguments always recompute).
          if (site_arg[slot] == x) {
            lane[l] = site_val[slot];
            continue;
          }
          const double v = survival ? dist.survival(x) : dist.cdf(x);
          site_arg[slot] = x;
          site_val[slot] = v;
          lane[l] = v;
        }
        break;
      }
      case OpCode::kCall: {
        // No uniform-lane broadcast here: opaque callbacks are assumed pure
        // for value purposes, but broadcasting would also change how often
        // they are *invoked* versus the scalar loop — keep the per-row call
        // pattern identical instead.
        const auto& fn =
            static_cast<const detail::FunctionNode*>(calls_[ins.b].get())
                ->fn();
        for (std::size_t l = 0; l < L; ++l) lane[l] = fn(a[l]);
        break;
      }
    }
  }
  const double* const root = slab + (n - 1) * L;
  for (std::size_t l = 0; l < L; ++l) out[l] = root[l];
}

void CompiledExpr::evaluate_batch(const BatchRequest& request) const {
  const std::size_t dim = parameter_order_.size();
  const std::size_t rows = request.values.size();
  SAFEOPT_EXPECTS(request.points.size() == rows * dim);
  const EvalBackend& backend =
      request.backend != nullptr ? *request.backend : BackendRegistry::active();
  const std::size_t width = request.lane_width == 0
                                ? backend.default_lane_width()
                                : request.lane_width;
  SAFEOPT_EXPECTS(width == 1 || backend.supports_lane_width(width));

  if (request.pool != nullptr) {
    // Grain keeps per-task work above scheduling noise for tiny tapes and
    // leaves every chunk at least one full lane block. Chunks re-enter with
    // the resolved backend and width pinned, so the split only changes
    // which rows land in lane blocks versus the scalar tail — paths that
    // are bitwise-identical per row by contract.
    const std::size_t grain = std::max<std::size_t>(
        width, 256 / std::max<std::size_t>(1, tape_.size()));
    request.pool->parallel_for(
        rows,
        [&](std::size_t begin, std::size_t end) {
          const std::size_t count = end - begin;
          BatchRequest chunk;
          chunk.points = request.points.subspan(begin * dim, count * dim);
          chunk.values = request.values.subspan(begin, count);
          chunk.lane_width = width;
          chunk.backend = &backend;
          evaluate_batch(chunk);
        },
        grain);
    return;
  }

  const std::size_t blocks = width > 1 ? rows / width : 0;
  if (blocks == 0 || width == 1) {
    // The scalar reference path — also taken for sub-block batches
    // (finite-difference stencils, tiny populations) that would pay the
    // slab/memo setup without ever running a lane kernel. Values carry a
    // Workspace (the last-argument memo) across rows, exactly the pre-lane
    // batch loop; this is the oracle every backend is tested against.
    Workspace workspace;
    bind(workspace);
    for (std::size_t row = 0; row < rows; ++row) {
      request.values[row] =
          run(request.points.subspan(row * dim, dim), workspace.slots.data(),
              workspace.memo_arg.data(), workspace.memo_val.data());
    }
    return;
  }

  LaneScratch scratch;
  bind_lanes(scratch, width);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    backend.run_block(*this, request.points.data() + blk * width * dim, dim,
                      width, request.values.data() + blk * width, scratch);
  }
  // Scalar tail: the reference loop, bitwise-identical per row.
  for (std::size_t row = blocks * width; row < rows; ++row) {
    request.values[row] = evaluate(request.points.subspan(row * dim, dim));
  }
}

void CompiledExpr::run_generic_block(const double* points, std::size_t dim,
                                     std::size_t width, double* out,
                                     LaneScratch& scratch) const {
  switch (width) {
    case 4: run_lane_block<4>(points, dim, out, scratch); break;
    case 8: run_lane_block<8>(points, dim, out, scratch); break;
    case 16: run_lane_block<16>(points, dim, out, scratch); break;
    default: SAFEOPT_EXPECTS(false);
  }
}

double CompiledExpr::run(std::span<const double> parameters, double* slots,
                         double* memo_arg, double* memo_val) const {
  const Instruction* const tape = tape_.data();
  const std::size_t n = tape_.size();
#if defined(__GNUC__) || defined(__clang__)
  // Direct-threaded dispatch: each handler jumps straight to the next
  // opcode's label, giving the branch predictor one indirect-jump site per
  // opcode instead of one shared switch. Label order must match OpCode.
  // Computed goto is a deliberate GNU extension (both compilers support
  // it); the pragma keeps -Wpedantic builds -Werror-clean.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
#if defined(__clang__)
#pragma GCC diagnostic ignored "-Wgnu-label-as-value"
#endif
  static const void* const kDispatch[] = {
      &&op_const,   &&op_param,   &&op_add,    &&op_sub,   &&op_mul,
      &&op_div,     &&op_min,     &&op_max,    &&op_addi,  &&op_subi,
      &&op_rsubi,   &&op_muli,    &&op_divi,   &&op_rdivi, &&op_neg,
      &&op_exp,     &&op_log,     &&op_sqrt,   &&op_pow,   &&op_cdf,
      &&op_survival, &&op_call,
  };
  std::size_t i = 0;
#define SAFEOPT_TAPE_NEXT()                                       \
  do {                                                            \
    if (++i == n) return slots[n - 1];                            \
    goto* kDispatch[static_cast<std::size_t>(tape[i].op)];        \
  } while (false)
  goto* kDispatch[static_cast<std::size_t>(tape[0].op)];
op_const:
  slots[i] = tape[i].imm;
  SAFEOPT_TAPE_NEXT();
op_param:
  slots[i] = parameters[tape[i].a];
  SAFEOPT_TAPE_NEXT();
op_add:
  slots[i] = slots[tape[i].a] + slots[tape[i].b];
  SAFEOPT_TAPE_NEXT();
op_sub:
  slots[i] = slots[tape[i].a] - slots[tape[i].b];
  SAFEOPT_TAPE_NEXT();
op_mul:
  slots[i] = slots[tape[i].a] * slots[tape[i].b];
  SAFEOPT_TAPE_NEXT();
op_div:
  slots[i] = slots[tape[i].a] / slots[tape[i].b];
  SAFEOPT_TAPE_NEXT();
op_min:
  slots[i] = std::min(slots[tape[i].a], slots[tape[i].b]);
  SAFEOPT_TAPE_NEXT();
op_max:
  slots[i] = std::max(slots[tape[i].a], slots[tape[i].b]);
  SAFEOPT_TAPE_NEXT();
op_addi:
  slots[i] = slots[tape[i].a] + tape[i].imm;
  SAFEOPT_TAPE_NEXT();
op_subi:
  slots[i] = slots[tape[i].a] - tape[i].imm;
  SAFEOPT_TAPE_NEXT();
op_rsubi:
  slots[i] = tape[i].imm - slots[tape[i].a];
  SAFEOPT_TAPE_NEXT();
op_muli:
  slots[i] = slots[tape[i].a] * tape[i].imm;
  SAFEOPT_TAPE_NEXT();
op_divi:
  slots[i] = slots[tape[i].a] / tape[i].imm;
  SAFEOPT_TAPE_NEXT();
op_rdivi:
  slots[i] = tape[i].imm / slots[tape[i].a];
  SAFEOPT_TAPE_NEXT();
op_neg:
  slots[i] = -slots[tape[i].a];
  SAFEOPT_TAPE_NEXT();
op_exp:
  slots[i] = std::exp(slots[tape[i].a]);
  SAFEOPT_TAPE_NEXT();
op_log:
  slots[i] = std::log(slots[tape[i].a]);
  SAFEOPT_TAPE_NEXT();
op_sqrt:
  slots[i] = std::sqrt(slots[tape[i].a]);
  SAFEOPT_TAPE_NEXT();
op_pow:
  slots[i] = std::pow(slots[tape[i].a], tape[i].imm);
  SAFEOPT_TAPE_NEXT();
op_cdf: {
  const double x = slots[tape[i].a];
  const std::uint32_t m = tape[i].c;
  // Last-argument memo: a hit replays the previous result bit-for-bit (the
  // cdf is a pure function of x), so caching cannot perturb values. NaN
  // sentinels never match (NaN != NaN), so a cold memo is just a miss.
  slots[i] = memo_arg[m] == x
                 ? memo_val[m]
                 : (memo_arg[m] = x,
                    memo_val[m] = distributions_[tape[i].b]->cdf(x));
  SAFEOPT_TAPE_NEXT();
}
op_survival: {
  const double x = slots[tape[i].a];
  const std::uint32_t m = tape[i].c;
  slots[i] = memo_arg[m] == x
                 ? memo_val[m]
                 : (memo_arg[m] = x,
                    memo_val[m] = distributions_[tape[i].b]->survival(x));
  SAFEOPT_TAPE_NEXT();
}
op_call:
  slots[i] = static_cast<const detail::FunctionNode*>(calls_[tape[i].b].get())
                 ->fn()(slots[tape[i].a]);
  SAFEOPT_TAPE_NEXT();
#undef SAFEOPT_TAPE_NEXT
#pragma GCC diagnostic pop
#else
  for (std::size_t i = 0; i < n; ++i) {
    const Instruction& ins = tape[i];
    double v = 0.0;
    switch (ins.op) {
      case OpCode::kConst: v = ins.imm; break;
      case OpCode::kParam: v = parameters[ins.a]; break;
      case OpCode::kAdd: v = slots[ins.a] + slots[ins.b]; break;
      case OpCode::kSub: v = slots[ins.a] - slots[ins.b]; break;
      case OpCode::kMul: v = slots[ins.a] * slots[ins.b]; break;
      case OpCode::kDiv: v = slots[ins.a] / slots[ins.b]; break;
      case OpCode::kMin: v = std::min(slots[ins.a], slots[ins.b]); break;
      case OpCode::kMax: v = std::max(slots[ins.a], slots[ins.b]); break;
      case OpCode::kAddImm: v = slots[ins.a] + ins.imm; break;
      case OpCode::kSubImm: v = slots[ins.a] - ins.imm; break;
      case OpCode::kRsubImm: v = ins.imm - slots[ins.a]; break;
      case OpCode::kMulImm: v = slots[ins.a] * ins.imm; break;
      case OpCode::kDivImm: v = slots[ins.a] / ins.imm; break;
      case OpCode::kRdivImm: v = ins.imm / slots[ins.a]; break;
      case OpCode::kNeg: v = -slots[ins.a]; break;
      case OpCode::kExp: v = std::exp(slots[ins.a]); break;
      case OpCode::kLog: v = std::log(slots[ins.a]); break;
      case OpCode::kSqrt: v = std::sqrt(slots[ins.a]); break;
      case OpCode::kPow: v = std::pow(slots[ins.a], ins.imm); break;
      case OpCode::kCdf: {
        const double x = slots[ins.a];
        v = memo_arg[ins.c] == x
                ? memo_val[ins.c]
                : (memo_arg[ins.c] = x,
                   memo_val[ins.c] = distributions_[ins.b]->cdf(x));
        break;
      }
      case OpCode::kSurvival: {
        const double x = slots[ins.a];
        v = memo_arg[ins.c] == x
                ? memo_val[ins.c]
                : (memo_arg[ins.c] = x,
                   memo_val[ins.c] = distributions_[ins.b]->survival(x));
        break;
      }
      case OpCode::kCall:
        v = static_cast<const detail::FunctionNode*>(calls_[ins.b].get())
                ->fn()(slots[ins.a]);
        break;
    }
    slots[i] = v;
  }
  return slots[n - 1];
#endif
}

double CompiledExpr::apply_call(std::uint32_t index, double x) const {
  return static_cast<const detail::FunctionNode*>(calls_[index].get())->fn()(
      x);
}

double CompiledExpr::apply_binary(OpCode op, double x, double y) {
  switch (op) {
    case OpCode::kAdd: return x + y;
    case OpCode::kSub: return x - y;
    case OpCode::kMul: return x * y;
    case OpCode::kDiv: return x / y;
    case OpCode::kMin: return std::min(x, y);
    case OpCode::kMax: return std::max(x, y);
    default: break;
  }
  SAFEOPT_ASSERT(false);
  return 0.0;
}

double CompiledExpr::apply_unary(OpCode op, double x, double imm) {
  switch (op) {
    case OpCode::kNeg: return -x;
    case OpCode::kExp: return std::exp(x);
    case OpCode::kLog: return std::log(x);
    case OpCode::kSqrt: return std::sqrt(x);
    case OpCode::kPow: return std::pow(x, imm);
    default: break;
  }
  SAFEOPT_ASSERT(false);
  return 0.0;
}

std::string CompiledExpr::disassemble() const {
  std::string out;
  for (std::size_t i = 0; i < tape_.size(); ++i) {
    const Instruction& ins = tape_[i];
    out += concat("%", std::to_string(i), " = ");
    const auto slot = [](std::uint32_t s) {
      return concat("%", std::to_string(s));
    };
    switch (ins.op) {
      case OpCode::kConst: out += concat("const ", format_double(ins.imm)); break;
      case OpCode::kParam:
        out += concat("param ", parameter_order_[ins.a]);
        break;
      case OpCode::kAdd: out += concat("add ", slot(ins.a), " ", slot(ins.b)); break;
      case OpCode::kSub: out += concat("sub ", slot(ins.a), " ", slot(ins.b)); break;
      case OpCode::kMul: out += concat("mul ", slot(ins.a), " ", slot(ins.b)); break;
      case OpCode::kDiv: out += concat("div ", slot(ins.a), " ", slot(ins.b)); break;
      case OpCode::kMin: out += concat("min ", slot(ins.a), " ", slot(ins.b)); break;
      case OpCode::kMax: out += concat("max ", slot(ins.a), " ", slot(ins.b)); break;
      case OpCode::kAddImm:
        out += concat("add ", slot(ins.a), " ", format_double(ins.imm));
        break;
      case OpCode::kSubImm:
        out += concat("sub ", slot(ins.a), " ", format_double(ins.imm));
        break;
      case OpCode::kRsubImm:
        out += concat("rsub ", format_double(ins.imm), " ", slot(ins.a));
        break;
      case OpCode::kMulImm:
        out += concat("mul ", slot(ins.a), " ", format_double(ins.imm));
        break;
      case OpCode::kDivImm:
        out += concat("div ", slot(ins.a), " ", format_double(ins.imm));
        break;
      case OpCode::kRdivImm:
        out += concat("rdiv ", format_double(ins.imm), " ", slot(ins.a));
        break;
      case OpCode::kNeg: out += concat("neg ", slot(ins.a)); break;
      case OpCode::kExp: out += concat("exp ", slot(ins.a)); break;
      case OpCode::kLog: out += concat("log ", slot(ins.a)); break;
      case OpCode::kSqrt: out += concat("sqrt ", slot(ins.a)); break;
      case OpCode::kPow:
        out += concat("pow ", slot(ins.a), " ", format_double(ins.imm));
        break;
      case OpCode::kCdf:
        out += concat("cdf[", distributions_[ins.b]->name(), "] ",
                      slot(ins.a));
        break;
      case OpCode::kSurvival:
        out += concat("survival[", distributions_[ins.b]->name(), "] ",
                      slot(ins.a));
        break;
      case OpCode::kCall:
        out += concat(
            static_cast<const detail::FunctionNode*>(calls_[ins.b].get())
                ->name(),
            " ", slot(ins.a));
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace safeopt::expr
