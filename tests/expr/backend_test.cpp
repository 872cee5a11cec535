// The per-backend contract suite for the evaluation-backend registry
// (eval_backend.h): every registered hardware backend must reproduce the
// scalar oracle bit for bit at every lane width it supports — whole
// batches and misaligned splits, serial and pooled — and
// the runtime dispatch policy must never select an unavailable backend,
// degrading explicit requests (BatchRequest pin, process override,
// SAFEOPT_BACKEND) to the best available kernel with a diagnostic instead
// of crashing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "safeopt/expr/compiled.h"
#include "safeopt/expr/eval_backend.h"
#include "safeopt/expr/expr.h"
#include "safeopt/support/rng.h"
#include "safeopt/support/thread_pool.h"
#include "testutil/random_expr.h"

namespace safeopt::expr {
namespace {

std::vector<double> random_points(Rng& rng, std::size_t rows,
                                  std::size_t dim) {
  std::vector<double> points(rows * dim);
  for (double& v : points) v = uniform(rng, 0.25, 4.0);
  return points;
}

std::vector<const EvalBackend*> available_backends() {
  std::vector<const EvalBackend*> backends;
  for (const std::string& name : BackendRegistry::registered()) {
    const EvalBackend* backend = BackendRegistry::find(name);
    if (backend != nullptr && backend->available()) {
      backends.push_back(backend);
    }
  }
  return backends;
}

/// Restores the override + SAFEOPT_BACKEND environment layers on scope
/// exit, so dispatch-policy tests cannot leak into the parity tests (the
/// whole suite shares one process-wide registry).
class DispatchStateGuard {
 public:
  DispatchStateGuard() : override_(BackendRegistry::override_name()) {
    const char* env = std::getenv("SAFEOPT_BACKEND");
    if (env != nullptr) env_ = env;
  }
  ~DispatchStateGuard() {
    BackendRegistry::set_override(override_);
    if (env_.has_value()) {
      ::setenv("SAFEOPT_BACKEND", env_->c_str(), 1);
    } else {
      ::unsetenv("SAFEOPT_BACKEND");
    }
    BackendRegistry::refresh_environment();
  }

 private:
  std::string override_;
  std::optional<std::string> env_;
};

// ---------------------------------------------------------------- parity

// The tentpole contract: per backend × lane width, batch values are
// bitwise-identical to the scalar interpreter on random expression DAGs.
TEST(BackendParityTest, EveryBackendMatchesScalarOracleBitwise) {
  const std::vector<std::string> params = {"a", "b", "c"};
  const std::vector<const EvalBackend*> backends = available_backends();
  ASSERT_FALSE(backends.empty());
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed * 40961 + 13);
    const Expr e = testutil::random_expr(rng, params, 5);
    const CompiledExpr compiled = CompiledExpr::compile(e, params);
    for (const std::size_t rows : {1u, 5u, 8u, 16u, 33u}) {
      const std::vector<double> points =
          random_points(rng, rows, params.size());
      std::vector<double> scalar(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        scalar[r] = compiled.evaluate(
            std::span<const double>(points).subspan(r * params.size(),
                                                    params.size()));
      }
      for (const EvalBackend* backend : backends) {
        for (const std::size_t width : {4u, 8u, 16u}) {
          if (!backend->supports_lane_width(width)) continue;
          std::vector<double> batch(rows);
          compiled.evaluate_batch({.points = points, .values = batch,
                                   .lane_width = width, .backend = backend});
          EXPECT_EQ(scalar, batch)
              << "backend " << backend->name() << " seed " << seed
              << " rows " << rows << " width " << width;
        }
        // The backend's own default width, the one dispatch would use.
        std::vector<double> batch(rows);
        compiled.evaluate_batch(
            {.points = points, .values = batch, .backend = backend});
        EXPECT_EQ(scalar, batch)
            << "backend " << backend->name() << " seed " << seed << " rows "
            << rows << " default width";
      }
    }
  }
}

// Split- and thread-invariance per backend: block boundaries and pool fan-
// out must not change a single bit relative to one serial whole-batch run.
TEST(BackendParityTest, SplitsAndPoolsAreInvariantPerBackend) {
  const std::vector<std::string> params = {"a", "b"};
  Rng rng(4242);
  const Expr e = testutil::random_expr(rng, params, 6);
  const CompiledExpr compiled = CompiledExpr::compile(e, params);
  const std::size_t rows = 120;
  const std::vector<double> points = random_points(rng, rows, 2);
  for (const EvalBackend* backend : available_backends()) {
    std::vector<double> whole(rows);
    compiled.evaluate_batch(
        {.points = points, .values = whole, .backend = backend});
    for (const std::size_t split : {1u, 7u, 16u, 50u}) {
      std::vector<double> pieces(rows);
      for (std::size_t begin = 0; begin < rows; begin += split) {
        const std::size_t count = std::min(split, rows - begin);
        compiled.evaluate_batch(
            {.points =
                 std::span<const double>(points).subspan(begin * 2, count * 2),
             .values = std::span<double>(pieces).subspan(begin, count),
             .backend = backend});
      }
      EXPECT_EQ(whole, pieces)
          << "backend " << backend->name() << " split " << split;
    }
    for (const std::size_t threads : {2u, 5u}) {
      ThreadPool pool(threads);
      std::vector<double> pooled(rows);
      compiled.evaluate_batch({.points = points, .values = pooled,
                               .pool = &pool, .backend = backend});
      EXPECT_EQ(whole, pooled)
          << "backend " << backend->name() << " threads " << threads;
    }
  }
}

// -------------------------------------------------------------- dispatch

TEST(BackendRegistryTest, GenericIsRegisteredAvailableAndOracle) {
  const EvalBackend* generic = BackendRegistry::find("generic");
  ASSERT_NE(generic, nullptr);
  EXPECT_TRUE(generic->available());
  EXPECT_EQ(generic->priority(), 0);
  EXPECT_EQ(&BackendRegistry::generic(), generic);
}

TEST(BackendRegistryTest, ActiveIsTheBestAvailableBackend) {
  const DispatchStateGuard guard;
  BackendRegistry::set_override("");
  ::unsetenv("SAFEOPT_BACKEND");
  BackendRegistry::refresh_environment();
  const EvalBackend& active = BackendRegistry::active();
  EXPECT_TRUE(active.available());
  for (const EvalBackend* backend : available_backends()) {
    EXPECT_LE(backend->priority(), active.priority())
        << backend->name() << " outranks the dispatch pick";
  }
}

TEST(BackendRegistryTest, UnknownRequestDegradesWithDiagnostic) {
  const BackendRegistry::Selection selection =
      BackendRegistry::resolve("no-such-backend");
  ASSERT_NE(selection.backend, nullptr);
  EXPECT_TRUE(selection.backend->available());
  EXPECT_EQ(selection.requested, "no-such-backend");
  EXPECT_NE(selection.diagnostic.find("not registered"), std::string::npos)
      << selection.diagnostic;
  EXPECT_NE(selection.diagnostic.find("no-such-backend"), std::string::npos);
}

// The graceful-degradation contract: a registered backend whose hardware
// probe says "no" is never selected — not even when it outranks everything
// — and the resolution says why. This is the scenario of SAFEOPT_BACKEND
// naming a registered backend the host CPU lacks (avx2 on a pre-AVX2
// machine), simulated with a backend that is unavailable everywhere so the
// test runs on any machine.
class UnavailableBackend final : public EvalBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "test-unavailable";
  }
  [[nodiscard]] bool available() const noexcept override { return false; }
  [[nodiscard]] int priority() const noexcept override { return 1000; }
  [[nodiscard]] std::size_t default_lane_width() const noexcept override {
    return 8;
  }
  [[nodiscard]] bool supports_lane_width(
      std::size_t width) const noexcept override {
    return width == 8;
  }
  void run_block(const CompiledExpr&, const double*, std::size_t, std::size_t,
                 double*, CompiledExpr::LaneScratch&) const override {
    FAIL() << "dispatch selected an unavailable backend";
  }
};

TEST(BackendRegistryTest, UnavailableBackendIsNeverSelected) {
  const DispatchStateGuard guard;
  BackendRegistry::set_override("");
  ::unsetenv("SAFEOPT_BACKEND");
  BackendRegistry::refresh_environment();
  BackendRegistry::add(std::make_unique<UnavailableBackend>());
  ASSERT_NE(BackendRegistry::find("test-unavailable"), nullptr);

  // Highest priority of the whole registry, yet dispatch skips it.
  EXPECT_NE(BackendRegistry::active().name(), "test-unavailable");

  // An explicit request degrades to the best available pick + diagnostic.
  const BackendRegistry::Selection requested =
      BackendRegistry::resolve("test-unavailable");
  ASSERT_NE(requested.backend, nullptr);
  EXPECT_TRUE(requested.backend->available());
  EXPECT_NE(requested.backend->name(), "test-unavailable");
  EXPECT_NE(requested.diagnostic.find("not available"), std::string::npos)
      << requested.diagnostic;

  // So does the environment layer — and evaluation still works end to end.
  ::setenv("SAFEOPT_BACKEND", "test-unavailable", 1);
  BackendRegistry::refresh_environment();
  const BackendRegistry::Selection via_env = BackendRegistry::resolve({});
  EXPECT_TRUE(via_env.backend->available());
  EXPECT_NE(via_env.diagnostic.find("SAFEOPT_BACKEND"), std::string::npos)
      << via_env.diagnostic;

  const CompiledExpr compiled = CompiledExpr::compile(
      parameter("a") * 2.0 + parameter("b"), {"a", "b"});
  const std::vector<double> points = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  std::vector<double> out(3);
  compiled.evaluate_batch({.points = points, .values = out});
  EXPECT_EQ(out, (std::vector<double>{4.0, 10.0, 16.0}));
}

// "avx512" is no longer a backend (it never beat avx2 in
// bench_compiled_eval). A process-wide request for it — the --backend
// override layer or SAFEOPT_BACKEND — degrades to the dispatch pick with a
// "not registered" diagnostic, like any unknown name.
TEST(BackendRegistryTest, RemovedAvx512NameDegradesFromEveryProcessLayer) {
  const DispatchStateGuard guard;
  BackendRegistry::set_override("");
  ::unsetenv("SAFEOPT_BACKEND");
  BackendRegistry::refresh_environment();
  EXPECT_EQ(BackendRegistry::find("avx512"), nullptr);
  const EvalBackend* best = &BackendRegistry::active();

  BackendRegistry::set_override("avx512");
  const BackendRegistry::Selection via_override = BackendRegistry::resolve({});
  EXPECT_EQ(via_override.backend, best);
  EXPECT_EQ(via_override.requested, "avx512");
  EXPECT_NE(via_override.diagnostic.find(
                "backend override \"avx512\" is not registered"),
            std::string::npos)
      << via_override.diagnostic;

  BackendRegistry::set_override("");
  ::setenv("SAFEOPT_BACKEND", "avx512", 1);
  BackendRegistry::refresh_environment();
  const BackendRegistry::Selection via_env = BackendRegistry::resolve({});
  EXPECT_EQ(via_env.backend, best);
  EXPECT_NE(
      via_env.diagnostic.find("SAFEOPT_BACKEND \"avx512\" is not registered"),
      std::string::npos)
      << via_env.diagnostic;
}

TEST(BackendRegistryTest, OverrideLayerBeatsEnvironmentLayer) {
  const DispatchStateGuard guard;
  ::setenv("SAFEOPT_BACKEND", "no-such-backend", 1);
  BackendRegistry::refresh_environment();
  BackendRegistry::set_override("generic");
  const BackendRegistry::Selection selection = BackendRegistry::resolve({});
  EXPECT_EQ(selection.backend, &BackendRegistry::generic());
  EXPECT_TRUE(selection.diagnostic.empty()) << selection.diagnostic;

  // Clearing the override re-exposes the (broken) environment layer, which
  // degrades with a diagnostic naming its source.
  BackendRegistry::set_override("");
  const BackendRegistry::Selection env_layer = BackendRegistry::resolve({});
  EXPECT_TRUE(env_layer.backend->available());
  EXPECT_NE(env_layer.diagnostic.find("SAFEOPT_BACKEND"), std::string::npos)
      << env_layer.diagnostic;
}

}  // namespace
}  // namespace safeopt::expr
