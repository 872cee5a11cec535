// The "avx2" evaluation backend: explicit 256-bit kernels for the lane
// loops. Compiled with -mavx2 -ffp-contract=off (see CMakeLists.txt); on
// targets where that is not possible the factory returns nullptr and the
// backend is simply not registered.
//
// Bitwise contract (eval_backend.h): every result must equal the "generic"
// interpreter bit-for-bit. The kernel therefore only vectorizes operations
// that are IEEE-exact per lane:
//   * +, -, *, /, sqrt — correctly rounded in SIMD, identical to scalar;
//   * min/max — VMINPD/VMAXPD return the *second* source on NaN and on
//     ±0 ties, so min(a,b) is computed as _mm256_min_pd(b, a): "b < a ? b
//     : a, else a" is exactly std::min(a, b) including NaN propagation
//     and the positional tie rule (likewise max);
//   * neg — a sign-bit XOR, the same bit flip as scalar negation.
// Everything else — exp/log/pow (with the uniform-lane broadcast), the
// cdf/survival argument memo, opaque kCall functions — runs the exact
// scalar call sequence of the generic kernel. -ffp-contract=off keeps the
// compiler from fusing any a*b+c into an FMA behind our back.
//
// Everything here has internal linkage (anonymous namespace): an inline
// helper compiled with -mavx2 must never be merged by the linker over a
// baseline-ISA instantiation from another TU, or the generic path could
// fault on machines without AVX2.
#include "backend_factories.h"
#include "safeopt/expr/cpu_features.h"
#include "safeopt/expr/eval_backend.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace safeopt::expr {

namespace {

// Direct-mapped memo index for a distribution argument — the same
// multiplicative hash as the generic kernel (any hash preserves the
// bitwise contract, since hits only replay stored bits; matching the
// generic one keeps hit behavior comparable across backends).
constexpr std::size_t kMemoMask = CompiledExpr::kMemoEntries - 1;
inline std::size_t memo_index(double x) noexcept {
  const std::uint64_t bits =
      std::bit_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(bits >> 53) & kMemoMask;
}

/// Uniform-lane broadcast of a pure unary function, mirroring the generic
/// kernel: one call when every lane holds the same bit pattern, else one
/// call per lane.
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

template <std::size_t L>
void forward_block(const CompiledExpr& expr, const double* points,
                   std::size_t dim, double* out,
                   CompiledExpr::LaneScratch& scratch) {
  static_assert(L % 4 == 0);
  using OpCode = CompiledExpr::OpCode;
  const std::span<const CompiledExpr::Instruction> tape = expr.tape();
  const std::size_t n = tape.size();
  double* const slab = scratch.slab.data();
  // Same clamp as the generic kernel: kConst/kParam carry an immediate /
  // parameter index in `a`, and clamping keeps the (unused) operand
  // pointers inside the slab.
  const auto slot_of = [n](std::uint32_t s) {
    return std::min<std::size_t>(s, n - 1);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const CompiledExpr::Instruction& ins = tape[i];
    double* const lane = slab + i * L;
    const double* const a = slab + slot_of(ins.a) * L;
    const double* const b = slab + slot_of(ins.b) * L;
    switch (ins.op) {
      case OpCode::kConst: {
        const __m256d v = _mm256_set1_pd(ins.imm);
        for (std::size_t l = 0; l < L; l += 4) _mm256_storeu_pd(lane + l, v);
        break;
      }
      case OpCode::kParam:
        for (std::size_t l = 0; l < L; ++l) lane[l] = points[l * dim + ins.a];
        break;
      case OpCode::kAdd:
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l, _mm256_add_pd(_mm256_loadu_pd(a + l),
                                                   _mm256_loadu_pd(b + l)));
        }
        break;
      case OpCode::kSub:
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l, _mm256_sub_pd(_mm256_loadu_pd(a + l),
                                                   _mm256_loadu_pd(b + l)));
        }
        break;
      case OpCode::kMul:
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l, _mm256_mul_pd(_mm256_loadu_pd(a + l),
                                                   _mm256_loadu_pd(b + l)));
        }
        break;
      case OpCode::kDiv:
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l, _mm256_div_pd(_mm256_loadu_pd(a + l),
                                                   _mm256_loadu_pd(b + l)));
        }
        break;
      case OpCode::kMin:
        // Operand order swapped: VMINPD(b, a) = "b < a ? b : a, NaN/tie ->
        // a" == std::min(a, b) bit-for-bit (see header comment).
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l, _mm256_min_pd(_mm256_loadu_pd(b + l),
                                                   _mm256_loadu_pd(a + l)));
        }
        break;
      case OpCode::kMax:
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l, _mm256_max_pd(_mm256_loadu_pd(b + l),
                                                   _mm256_loadu_pd(a + l)));
        }
        break;
      case OpCode::kAddImm: {
        const __m256d imm = _mm256_set1_pd(ins.imm);
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l,
                           _mm256_add_pd(_mm256_loadu_pd(a + l), imm));
        }
        break;
      }
      case OpCode::kSubImm: {
        const __m256d imm = _mm256_set1_pd(ins.imm);
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l,
                           _mm256_sub_pd(_mm256_loadu_pd(a + l), imm));
        }
        break;
      }
      case OpCode::kRsubImm: {
        const __m256d imm = _mm256_set1_pd(ins.imm);
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l,
                           _mm256_sub_pd(imm, _mm256_loadu_pd(a + l)));
        }
        break;
      }
      case OpCode::kMulImm: {
        const __m256d imm = _mm256_set1_pd(ins.imm);
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l,
                           _mm256_mul_pd(_mm256_loadu_pd(a + l), imm));
        }
        break;
      }
      case OpCode::kDivImm: {
        const __m256d imm = _mm256_set1_pd(ins.imm);
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l,
                           _mm256_div_pd(_mm256_loadu_pd(a + l), imm));
        }
        break;
      }
      case OpCode::kRdivImm: {
        const __m256d imm = _mm256_set1_pd(ins.imm);
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l,
                           _mm256_div_pd(imm, _mm256_loadu_pd(a + l)));
        }
        break;
      }
      case OpCode::kNeg: {
        const __m256d sign = _mm256_set1_pd(-0.0);
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l,
                           _mm256_xor_pd(_mm256_loadu_pd(a + l), sign));
        }
        break;
      }
      case OpCode::kSqrt:
        for (std::size_t l = 0; l < L; l += 4) {
          _mm256_storeu_pd(lane + l, _mm256_sqrt_pd(_mm256_loadu_pd(a + l)));
        }
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
        const stats::Distribution& dist = expr.distribution_at(ins.b);
        const bool survival = ins.op == OpCode::kSurvival;
        double* const site_arg =
            scratch.memo_arg.data() +
            static_cast<std::size_t>(ins.c) * CompiledExpr::kMemoEntries;
        double* const site_val =
            scratch.memo_val.data() +
            static_cast<std::size_t>(ins.c) * CompiledExpr::kMemoEntries;
        for (std::size_t l = 0; l < L; ++l) {
          const double x = a[l];
          const std::size_t slot = memo_index(x);
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
      case OpCode::kCall:
        for (std::size_t l = 0; l < L; ++l) {
          lane[l] = expr.apply_call(ins.b, a[l]);
        }
        break;
    }
  }
  const double* const root = slab + (n - 1) * L;
  for (std::size_t l = 0; l < L; ++l) out[l] = root[l];
}

class Avx2Backend final : public EvalBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "avx2";
  }
  [[nodiscard]] bool available() const noexcept override {
    return cpu_features().avx2;
  }
  [[nodiscard]] int priority() const noexcept override { return 1; }
  // Wider default blocks than the generic kernel: the per-instruction
  // switch dispatch amortizes over 16 rows, the main lever on top of the
  // 4-wide arithmetic.
  [[nodiscard]] std::size_t default_lane_width() const noexcept override {
    return 16;
  }
  [[nodiscard]] bool supports_lane_width(
      std::size_t width) const noexcept override {
    return width == 4 || width == 8 || width == 16;
  }

  void run_block(const CompiledExpr& expr, const double* points,
                 std::size_t dim, std::size_t width, double* out,
                 CompiledExpr::LaneScratch& scratch) const override {
    switch (width) {
      case 4: forward_block<4>(expr, points, dim, out, scratch); break;
      case 8: forward_block<8>(expr, points, dim, out, scratch); break;
      default: forward_block<16>(expr, points, dim, out, scratch); break;
    }
  }
};

}  // namespace

namespace detail {

std::unique_ptr<EvalBackend> make_avx2_backend() {
  return std::make_unique<Avx2Backend>();
}

}  // namespace detail

}  // namespace safeopt::expr

#else  // !defined(__AVX2__)

namespace safeopt::expr::detail {

std::unique_ptr<EvalBackend> make_avx2_backend() { return nullptr; }

}  // namespace safeopt::expr::detail

#endif
