// Internal: factory functions for the built-in evaluation backends. The
// registry calls these exactly once at first use — explicit factories, not
// static registrar objects, so static archives cannot drop them (see the
// ROADMAP architecture notes). The intrinsic factory returns nullptr when
// its kernel TU was compiled without AVX2 support.
#ifndef SAFEOPT_EXPR_BACKEND_FACTORIES_H
#define SAFEOPT_EXPR_BACKEND_FACTORIES_H

#include <memory>

#include "safeopt/expr/eval_backend.h"

namespace safeopt::expr::detail {

std::unique_ptr<EvalBackend> make_generic_backend();
std::unique_ptr<EvalBackend> make_avx2_backend();

}  // namespace safeopt::expr::detail

#endif  // SAFEOPT_EXPR_BACKEND_FACTORIES_H
