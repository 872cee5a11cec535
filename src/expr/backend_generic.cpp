// The "generic" evaluation backend: the portable lane-blocked interpreter
// living in compiled.cpp, wrapped in the EvalBackend interface. This is the
// bitwise oracle — every other backend must match it bit-for-bit — and the
// floor runtime dispatch can always fall back to.
#include "backend_factories.h"
#include "safeopt/expr/eval_backend.h"

namespace safeopt::expr {

namespace {

class GenericBackend final : public EvalBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "generic";
  }
  [[nodiscard]] bool available() const noexcept override { return true; }
  [[nodiscard]] int priority() const noexcept override { return 0; }
  [[nodiscard]] std::size_t default_lane_width() const noexcept override {
    return CompiledExpr::kDefaultLaneWidth;
  }
  [[nodiscard]] bool supports_lane_width(
      std::size_t width) const noexcept override {
    return width == 4 || width == 8 || width == 16;
  }

  void run_block(const CompiledExpr& expr, const double* points,
                 std::size_t dim, std::size_t width, double* out,
                 CompiledExpr::LaneScratch& scratch) const override {
    expr.run_generic_block(points, dim, width, out, scratch);
  }
};

}  // namespace

namespace detail {

std::unique_ptr<EvalBackend> make_generic_backend() {
  return std::make_unique<GenericBackend>();
}

}  // namespace detail

}  // namespace safeopt::expr
