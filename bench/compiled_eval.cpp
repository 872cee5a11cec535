// Experiment: compiled-tape evaluation vs the recursive expression walk on
// the paper's Fig. 5 cost surface f_cost(T1, T2).
//
// Evaluation strategies over the same grid workload:
//   tree    — the pre-compilation objective path: build a
//             ParameterAssignment, walk the Expr DAG (what every optimizer
//             called before this subsystem existed);
//   tape    — CompiledExpr::evaluate, one point at a time;
//   lane L  — CompiledExpr::evaluate_batch at lane width L ∈ {1, 4, 8} on
//             the "generic" backend. L = 1 is the single-lane reference
//             loop (the PR 1 batch path); L = 4/8 run the SoA lane kernel;
//   backend B — evaluate_batch pinned to each registered backend
//             (generic, and avx2 where the CPU supports it) at its default
//             lane width, same grid;
//   batch N — the lane kernel fanned out over a ThreadPool.
//
// Besides timing, the run *verifies* the architectural contracts: every
// strategy must produce bitwise-identical surfaces (lane-count and
// thread-count invariance), and grid_search / differential_evolution must
// return bitwise-identical optima on the tree and compiled paths.
//
// The backends are also ranked on a real study tape: the --model document's
// cost tape evaluated at scattered points in its parameter box, where the
// per-site memo and the uniform-lane broadcast rarely hit (the Fig. 5 grid
// is a smooth sweep where they often do). The row is report-only
// (backend_<name>_study_ns_per_eval) and each backend must match the
// scalar tape bitwise there too.
//
// Besides the evaluation strategies, the run times the declarative
// pipeline's load-to-first-eval latency: ftio::load_study on the shipped
// elbtunnel document + core::Study::from_document (MOCUS, expression
// assembly) + the first compiled-problem evaluation. compare_bench.py
// tracks the metric (report-only) so document-parser regressions show up
// next to the kernel numbers.
//
// Usage: bench_compiled_eval [--repeats N] [--grid N] [--json PATH]
//                            [--model PATH]
//   --repeats  timing repetitions per strategy (default 5; CI smoke uses 1)
//   --grid     points per grid axis (default 301)
//   --json     write machine-readable results to PATH
//   --model    study document for the load benchmark and the study-tape
//              backend row
//              (default examples/models/elbtunnel.ft, as in CI's repo-root
//              working directory)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "safeopt/core/study.h"
#include "safeopt/elbtunnel/elbtunnel_model.h"
#include "safeopt/expr/compiled.h"
#include "safeopt/expr/eval_backend.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/opt/solver.h"
#include "safeopt/support/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Best-of-N wall time for `body` in seconds.
template <typename F>
double best_time(int repeats, F&& body) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    body();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace safeopt;

  int repeats = 5;
  std::size_t grid = 301;
  std::string json_path;
  std::string model_path = "examples/models/elbtunnel.ft";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
      grid = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
      model_path = argv[++i];
    }
  }
  repeats = std::max(repeats, 1);
  grid = std::max<std::size_t>(grid, 2);

  const elbtunnel::ElbtunnelModel model;
  const core::Study tunnel = model.study();
  const expr::Expr cost = model.cost_model().cost_expression();
  const core::ParameterSpace space = model.parameter_space();
  const auto compiled = expr::CompiledExpr::compile(cost, space.names());

  std::printf("=== compiled expression tape vs recursive walk ===\n\n");
  std::printf("tape: %zu instructions\n%s\n", compiled.tape_size(),
              compiled.disassemble().c_str());

  // The Fig. 5 grid workload: T1 × T2 over the figure box, T1 fastest.
  const std::size_t rows = grid * grid;
  std::vector<double> points(rows * 2);
  {
    std::size_t k = 0;
    for (std::size_t j = 0; j < grid; ++j) {
      for (std::size_t i = 0; i < grid; ++i) {
        points[2 * k] =
            15.0 + 5.0 * static_cast<double>(i) / static_cast<double>(grid - 1);
        points[2 * k + 1] =
            15.0 + 3.0 * static_cast<double>(j) / static_cast<double>(grid - 1);
        ++k;
      }
    }
  }

  // --- strategy 1: recursive tree walk (the pre-compilation objective) ----
  std::vector<double> tree_values(rows);
  const double tree_s = best_time(repeats, [&] {
    std::vector<double> x(2);
    for (std::size_t r = 0; r < rows; ++r) {
      x[0] = points[2 * r];
      x[1] = points[2 * r + 1];
      tree_values[r] = cost.evaluate(space.assignment(x));
    }
  });

  // --- strategy 2: compiled tape, scalar calls ---------------------------
  std::vector<double> tape_values(rows);
  const double tape_s = best_time(repeats, [&] {
    for (std::size_t r = 0; r < rows; ++r) {
      tape_values[r] =
          compiled.evaluate(std::span<const double>(&points[2 * r], 2));
    }
  });

  // --- strategies 3-5: batch at lane widths 1 (reference), 4, 8 ----------
  // Pinned to the "generic" backend so the lane metrics track the portable
  // kernel across machines regardless of what runtime dispatch would pick.
  const expr::EvalBackend& generic = expr::BackendRegistry::generic();
  std::vector<double> lane1_values(rows);
  const double lane1_s = best_time(repeats, [&] {
    compiled.evaluate_batch({.points = points, .values = lane1_values,
                             .lane_width = 1, .backend = &generic});
  });
  std::vector<double> lane4_values(rows);
  const double lane4_s = best_time(repeats, [&] {
    compiled.evaluate_batch({.points = points, .values = lane4_values,
                             .lane_width = 4, .backend = &generic});
  });
  std::vector<double> lane8_values(rows);
  const double lane8_s = best_time(repeats, [&] {
    compiled.evaluate_batch({.points = points, .values = lane8_values,
                             .lane_width = 8, .backend = &generic});
  });

  // --- hardware backends, each at its own default lane width -------------
  // Each registered backend runs the same surface exactly as runtime
  // dispatch would run it (lane_width 0 = the backend's default: generic
  // blocks 8 rows, avx2 16), and every one must reproduce the
  // tree walk bit for bit (the backend contract). Unavailable backends
  // (e.g. avx2 on a host without AVX2) are reported and skipped.
  struct BackendRun {
    std::string name;
    bool available = false;
    double ns_per_eval = 0.0;
    double study_ns_per_eval = 0.0;  // 0 = no study tape (model not found)
    bool identical = true;
  };
  std::vector<BackendRun> backend_runs;
  for (const std::string& name : expr::BackendRegistry::registered()) {
    BackendRun run;
    run.name = name;
    const expr::EvalBackend* backend = expr::BackendRegistry::find(name);
    run.available = backend != nullptr && backend->available();
    if (run.available) {
      std::vector<double> values(rows);
      const double s = best_time(repeats, [&] {
        compiled.evaluate_batch(
            {.points = points, .values = values, .backend = backend});
      });
      run.ns_per_eval = 1e9 * s / static_cast<double>(rows);
      run.identical = values == tree_values;
    }
    backend_runs.push_back(std::move(run));
  }
  const std::string active_backend{expr::BackendRegistry::active().name()};

  // --- strategy 6: lane kernel over the thread pool ----------------------
  ThreadPool& pool = ThreadPool::shared();
  std::vector<double> parallel_values(rows);
  const double batchn_s = best_time(repeats, [&] {
    compiled.evaluate_batch(
        {.points = points, .values = parallel_values, .pool = &pool});
  });

  // Lane-count invariance: every width must reproduce the scalar surface
  // bit for bit; thread-count invariance: so must the pooled run.
  const bool lanes_invariant = tree_values == lane1_values &&
                               tree_values == lane4_values &&
                               tree_values == lane8_values;
  const bool surfaces_identical = lanes_invariant &&
                                  tree_values == tape_values &&
                                  tree_values == parallel_values;

  const auto per_eval = [rows](double s) {
    return 1e9 * s / static_cast<double>(rows);
  };
  const double tree_ns = per_eval(tree_s);
  const double tape_ns = per_eval(tape_s);
  const double lane1_ns = per_eval(lane1_s);
  const double lane4_ns = per_eval(lane4_s);
  const double lane8_ns = per_eval(lane8_s);
  const double batchn_ns = per_eval(batchn_s);

  std::printf("grid workload: %zu points (%zu x %zu), best of %d\n", rows,
              grid, grid, repeats);
  std::printf("  tree walk          : %8.1f ns/eval   1.00x\n", tree_ns);
  std::printf("  compiled tape      : %8.1f ns/eval   %.2fx\n", tape_ns,
              tree_ns / tape_ns);
  std::printf("  batch, 1 lane      : %8.1f ns/eval   %.2fx\n", lane1_ns,
              tree_ns / lane1_ns);
  std::printf("  batch, 4 lanes     : %8.1f ns/eval   %.2fx\n", lane4_ns,
              tree_ns / lane4_ns);
  std::printf("  batch, 8 lanes     : %8.1f ns/eval   %.2fx\n", lane8_ns,
              tree_ns / lane8_ns);
  for (const BackendRun& run : backend_runs) {
    if (!run.available) {
      std::printf("  backend %-10s : not available on this cpu\n",
                  run.name.c_str());
      continue;
    }
    std::printf("  backend %-10s : %8.1f ns/eval   %.2fx%s%s\n",
                run.name.c_str(), run.ns_per_eval,
                tree_ns / run.ns_per_eval,
                run.name == active_backend ? "   (active)" : "",
                run.identical ? "" : "   NOT BITWISE-IDENTICAL — BUG");
  }
  std::printf("  batch, %2zu threads  : %8.1f ns/eval   %.2fx\n",
              pool.thread_count(), batchn_ns, tree_ns / batchn_ns);
  std::printf("  surfaces bitwise-identical (lane/thread invariant): %s\n\n",
              surfaces_identical ? "yes" : "NO — BUG");

  // --- identical optima through the solvers ------------------------------
  opt::Problem tree_problem;
  tree_problem.bounds = space.box();
  tree_problem.objective = [&space, &cost](std::span<const double> x) {
    return cost.evaluate(space.assignment(x));
  };
  const opt::Problem compiled_problem = tunnel.problem();

  const auto grid_search = opt::SolverRegistry::create("grid_search");
  const auto grid_tree = grid_search->solve(tree_problem);
  const auto grid_compiled = grid_search->solve(compiled_problem);
  const bool grid_identical = grid_tree.value == grid_compiled.value &&
                              grid_tree.argmin == grid_compiled.argmin;

  const auto de = opt::SolverRegistry::create("differential_evolution");
  opt::SolverConfig de_config;
  de_config.set("generations", 100.0);
  const auto de_tree = de->solve(tree_problem, de_config);
  const auto de_compiled = de->solve(compiled_problem, de_config);
  const bool de_identical = de_tree.value == de_compiled.value &&
                            de_tree.argmin == de_compiled.argmin;

  std::printf("grid_search optimum (tree)     T1=%.6f T2=%.6f cost=%.10g\n",
              grid_tree.argmin[0], grid_tree.argmin[1], grid_tree.value);
  std::printf("grid_search optimum (compiled) T1=%.6f T2=%.6f cost=%.10g\n",
              grid_compiled.argmin[0], grid_compiled.argmin[1],
              grid_compiled.value);
  std::printf("  bitwise-identical: %s\n", grid_identical ? "yes" : "NO");
  std::printf("DE optimum          (tree)     T1=%.6f T2=%.6f cost=%.10g\n",
              de_tree.argmin[0], de_tree.argmin[1], de_tree.value);
  std::printf("DE optimum          (compiled) T1=%.6f T2=%.6f cost=%.10g\n",
              de_compiled.argmin[0], de_compiled.argmin[1], de_compiled.value);
  std::printf("  bitwise-identical: %s\n", de_identical ? "yes" : "NO");
  std::printf("paper optimum:                 T1=19       T2=15.6\n");

  const bool lane_fast_enough = lane1_ns / lane8_ns >= 2.0;
  std::printf("\n8-lane kernel speedup over single-lane batch >= 2x: %s "
              "(%.2fx)\n",
              lane_fast_enough ? "yes" : "NO", lane1_ns / lane8_ns);

  // --- declarative pipeline: document load -> first compiled eval --------
  // CI runs from the repo root; a build-directory invocation finds the
  // model one level up. 0 in the JSON means "skipped" (compare_bench.py
  // ignores non-positive raw metrics), so the kernel gates still run
  // anywhere.
  double load_ns = 0.0;
  if (!std::ifstream(model_path).good() &&
      std::ifstream("../" + model_path).good()) {
    model_path = "../" + model_path;
  }
  if (std::ifstream(model_path).good()) {
    double first_eval_value = 0.0;
    const double load_s = best_time(repeats, [&] {
      const ftio::StudyDocument doc = ftio::load_study(model_path);
      const core::Study study = core::Study::from_document(doc);
      const opt::Problem& problem = study.problem();
      const std::vector<double> center = problem.bounds.center();
      first_eval_value = problem.objective(center);
    });
    load_ns = 1e9 * load_s;
    std::printf("\nload-to-first-eval (%s): %.1f us  (parse + Study compile "
                "+ 1 eval, cost %.6g)\n",
                model_path.c_str(), load_ns / 1e3, first_eval_value);

    // --- study tape: every backend on the document's cost tape ----------
    // Uniform points in the document's box from a fixed-seed generator
    // (the raw 64-bit draws are specified by the standard, so every host
    // times the same points). The reference is the scalar tape.
    const core::Study study = core::Study::from_document(
        ftio::load_study(model_path));
    const core::ParameterSpace study_space = study.space();
    const auto study_tape = expr::CompiledExpr::compile(
        study.model().cost_expression(), study_space.names());
    const opt::Box study_box = study_space.box();
    const std::size_t dim = study_box.dimension();
    constexpr std::size_t kStudyPoints = 16384;
    std::vector<double> study_points(kStudyPoints * dim);
    std::mt19937_64 rng(20040628);
    for (std::size_t k = 0; k < study_points.size(); ++k) {
      const std::size_t i = k % dim;
      const double u = static_cast<double>(rng() >> 11) * 0x1p-53;
      study_points[k] =
          study_box.lower[i] + u * (study_box.upper[i] - study_box.lower[i]);
    }
    std::vector<double> study_reference(kStudyPoints);
    for (std::size_t r = 0; r < kStudyPoints; ++r) {
      study_reference[r] = study_tape.evaluate(
          std::span<const double>(&study_points[r * dim], dim));
    }
    std::printf("\nstudy tape (%s, %zu instructions): %zu scattered "
                "points, best of %d\n",
                model_path.c_str(), study_tape.tape_size(), kStudyPoints,
                repeats);
    for (BackendRun& run : backend_runs) {
      if (!run.available) continue;
      const expr::EvalBackend* backend = expr::BackendRegistry::find(run.name);
      std::vector<double> values(kStudyPoints);
      const double s = best_time(repeats, [&] {
        study_tape.evaluate_batch(
            {.points = study_points, .values = values, .backend = backend});
      });
      run.study_ns_per_eval = 1e9 * s / static_cast<double>(kStudyPoints);
      const bool identical = values == study_reference;
      run.identical = run.identical && identical;
      std::printf("  backend %-10s : %8.1f ns/eval%s%s\n", run.name.c_str(),
                  run.study_ns_per_eval,
                  run.name == active_backend ? "   (active)" : "",
                  identical ? "" : "   NOT BITWISE-IDENTICAL — BUG");
    }
  } else {
    std::printf("\nload-to-first-eval and study tape skipped: %s not found "
                "(pass --model PATH)\n",
                model_path.c_str());
  }
  bool backends_identical = true;
  for (const BackendRun& run : backend_runs) {
    backends_identical = backends_identical && run.identical;
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    // Per-backend entries: 0 ns means "not available on this host" (or,
    // for the study rows, "model not found"); compare_bench.py ignores
    // non-positive raw metrics.
    double avx2_ns = 0.0;
    double generic_ns = 0.0;
    std::string backend_json;
    for (const BackendRun& run : backend_runs) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "  \"backend_%s_ns_per_eval\": %.3f,\n"
                    "  \"backend_%s_study_ns_per_eval\": %.3f,\n",
                    run.name.c_str(), run.ns_per_eval, run.name.c_str(),
                    run.study_ns_per_eval);
      backend_json += line;
      if (run.name == "avx2") avx2_ns = run.ns_per_eval;
      if (run.name == "generic") generic_ns = run.ns_per_eval;
    }
    const double avx2_speedup =
        avx2_ns > 0.0 && generic_ns > 0.0 ? generic_ns / avx2_ns : 0.0;
    std::fprintf(f,
                 "{\n"
                 "  \"grid_points\": %zu,\n"
                 "  \"repeats\": %d,\n"
                 "  \"threads\": %zu,\n"
                 "  \"tree_ns_per_eval\": %.3f,\n"
                 "  \"tape_ns_per_eval\": %.3f,\n"
                 "  \"lane1_ns_per_eval\": %.3f,\n"
                 "  \"lane4_ns_per_eval\": %.3f,\n"
                 "  \"lane8_ns_per_eval\": %.3f,\n"
                 "  \"batchn_ns_per_eval\": %.3f,\n"
                 "  \"load_to_first_eval_ns\": %.3f,\n"
                 "%s"
                 "  \"active_backend\": \"%s\",\n"
                 "  \"speedup_tape\": %.3f,\n"
                 "  \"speedup_lane8\": %.3f,\n"
                 "  \"speedup_lane8_vs_lane1\": %.3f,\n"
                 "  \"speedup_avx2_vs_generic\": %.3f,\n"
                 "  \"surfaces_identical\": %s,\n"
                 "  \"lanes_invariant\": %s,\n"
                 "  \"backends_identical\": %s,\n"
                 "  \"grid_search_identical\": %s,\n"
                 "  \"de_identical\": %s\n"
                 "}\n",
                 rows, repeats, pool.thread_count(), tree_ns, tape_ns,
                 lane1_ns, lane4_ns, lane8_ns, batchn_ns, load_ns,
                 backend_json.c_str(), active_backend.c_str(),
                 tree_ns / tape_ns, tree_ns / lane8_ns, lane1_ns / lane8_ns,
                 avx2_speedup,
                 surfaces_identical ? "true" : "false",
                 lanes_invariant ? "true" : "false",
                 backends_identical ? "true" : "false",
                 grid_identical ? "true" : "false",
                 de_identical ? "true" : "false");
    std::fclose(f);
    std::printf("json written to %s\n", json_path.c_str());
  }

  const bool ok = surfaces_identical && backends_identical &&
                  grid_identical && de_identical;
  return ok ? 0 : 1;
}
