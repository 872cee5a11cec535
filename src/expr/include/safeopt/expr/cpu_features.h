// Runtime CPU feature probe backing backend dispatch.
//
// This is deliberately the *only* doorway to `__builtin_cpu_supports`: the
// detection lives in one TU (src/expr/cpu_features.cpp, enforced by the
// safeopt-lint `cpu-detect` rule), every backend's `available()` reads the
// cached result, and non-x86 / non-GNU builds get all-false answers instead
// of ifdef soup at each call site.
#ifndef SAFEOPT_EXPR_CPU_FEATURES_H
#define SAFEOPT_EXPR_CPU_FEATURES_H

namespace safeopt::expr {

/// The instruction-set extensions the built-in backends care about, probed
/// once per process. All false on non-x86-64 targets. The AVX-512 fields
/// back no backend; they describe the host in benchmark reports.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512dq = false;
  bool avx512vl = false;
};

[[nodiscard]] const CpuFeatures& cpu_features() noexcept;

}  // namespace safeopt::expr

#endif  // SAFEOPT_EXPR_CPU_FEATURES_H
