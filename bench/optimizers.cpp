// Ablation C: solver shoot-out on the paper's actual optimization problem —
// the Elbtunnel cost function over the timer box — plus the Rosenbrock
// valley as a hard reference. Reports both solution quality (cost gap to
// the best known optimum, argmin error) and runtime per solve. Every solver
// is selected by registry name with its default SolverConfig.
//
// Second mode, the exact-results gate consumed by CI:
//   bench_optimizers --results-json OUT.json
// runs every registered solver on both problems (golden_section, which is
// 1-D, on the T2 axis of the Elbtunnel cost instead), plus synchronous DE,
// multi-start Hooke–Jeeves and, on the Elbtunnel cost, multi_start with a
// four-thread config.pool (extra "pool=4"; its row must equal the
// sequential one in every field). It writes each result's argmin and value
// as exact hexadecimal floats with its evaluation and iteration counts,
// convergence flag and message. scripts/compare_bench.py --optimizers
// compares it for exact equality with the committed BENCH_optimizers.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "safeopt/elbtunnel/elbtunnel_model.h"
#include "safeopt/opt/solver.h"
#include "safeopt/support/thread_pool.h"

namespace {

using namespace safeopt;

opt::OptimizationResult solve(const std::string& solver,
                              const opt::Problem& problem,
                              const opt::SolverConfig& config = {}) {
  return opt::SolverRegistry::create(solver)->solve(problem, config);
}

/// Registered solvers that run on a 2-D box.
std::vector<std::string> box_solvers() {
  std::vector<std::string> names;
  for (std::string& name : opt::SolverRegistry::available()) {
    if (opt::SolverRegistry::create(name)->traits().max_dimension != 1) {
      names.push_back(std::move(name));
    }
  }
  return names;
}

opt::Problem rosenbrock() {
  opt::Problem problem;
  problem.bounds = opt::Box({-2.0, -1.0}, {2.0, 3.0});
  problem.objective = [](std::span<const double> x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  return problem;
}

void quality_table() {
  const elbtunnel::ElbtunnelModel model;
  const opt::Problem& problem = model.study().problem();

  // Best-known optimum from a multi-start run.
  const auto reference = solve("multi_start", problem);

  std::printf(
      "\n=== solution quality on the Elbtunnel cost function ===\n"
      "%-24s %9s %9s %13s %12s %12s\n",
      "solver", "T1*", "T2*", "cost", "cost gap", "evaluations");
  for (const std::string& name : box_solvers()) {
    const auto result = solve(name, problem);
    std::printf("%-24s %9.3f %9.3f %13.8f %12.2e %12zu\n", name.c_str(),
                result.argmin[0], result.argmin[1], result.value,
                result.value - reference.value, result.evaluations);
  }
  std::printf("(paper optimum: T1 ~ 19, T2 ~ 15.6)\n\n");
}

void BM_Solve(benchmark::State& state, const std::string& solver,
              const opt::Problem& problem) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(solver, problem));
  }
}

// ---- exact-results gate -----------------------------------------------------

std::string hex(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%a", value);
  return text;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int results_report(const char* path) {
  const elbtunnel::ElbtunnelModel model;
  const opt::Problem& tunnel = model.study().problem();
  // golden_section is 1-D only: give it the T2 axis of the same cost
  // surface with T1 pinned at the paper's optimum.
  opt::Problem line;
  line.bounds = opt::Box({tunnel.bounds.lower[1]}, {tunnel.bounds.upper[1]});
  line.objective = [&tunnel](std::span<const double> x) {
    const double point[2] = {19.0, x[0]};
    return tunnel.objective(point);
  };
  const opt::Problem valley = rosenbrock();

  struct Case {
    std::string problem;
    std::string solver;
    // One "key=value" solver extra, "pool=4" for a four-thread
    // config.pool, or empty.
    std::string extra;
  };
  std::vector<Case> cases;
  for (const char* problem : {"elbtunnel", "rosenbrock"}) {
    for (const std::string& name : opt::SolverRegistry::available()) {
      if (name == "golden_section") continue;
      cases.push_back({problem, name, ""});
    }
    cases.push_back({problem, "differential_evolution", "synchronous_batch=1"});
    cases.push_back({problem, "multi_start", "inner=hooke_jeeves"});
  }
  cases.push_back({"elbtunnel", "multi_start", "pool=4"});
  cases.push_back({"elbtunnel_t2", "golden_section", ""});

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n  \"results\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const opt::Problem& problem = c.problem == "elbtunnel"    ? tunnel
                                  : c.problem == "rosenbrock" ? valley
                                                              : line;
    opt::SolverConfig config;
    std::optional<ThreadPool> pool;
    if (c.extra == "pool=4") {
      pool.emplace(4);
      config.pool = &*pool;
    } else if (!c.extra.empty()) {
      opt::apply_solver_argument(config, c.extra);
    }
    const opt::OptimizationResult result = solve(c.solver, problem, config);
    std::string argmin;
    for (const double x : result.argmin) {
      argmin += (argmin.empty() ? "" : ", ") + json_string(hex(x));
    }
    std::fprintf(out,
                 "    {\"problem\": \"%s\", \"solver\": \"%s\", "
                 "\"extra\": \"%s\", \"argmin\": [%s], \"value\": \"%s\", "
                 "\"evaluations\": %zu, \"iterations\": %zu, "
                 "\"converged\": %s, \"message\": %s}%s\n",
                 c.problem.c_str(), c.solver.c_str(), c.extra.c_str(),
                 argmin.c_str(), hex(result.value).c_str(),
                 result.evaluations, result.iterations,
                 result.converged ? "true" : "false",
                 json_string(result.message).c_str(),
                 i + 1 < cases.size() ? "," : "");
    std::printf("%-13s %-24s %-22s %-24s %8zu evaluations\n",
                c.problem.c_str(), c.solver.c_str(), c.extra.c_str(),
                hex(result.value).c_str(), result.evaluations);
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--results-json") {
    return results_report(argv[2]);
  }
  quality_table();
  static const opt::Problem tunnel =
      elbtunnel::ElbtunnelModel().study().problem();
  static const opt::Problem valley = rosenbrock();
  for (const std::string& solver : box_solvers()) {
    benchmark::RegisterBenchmark(
        ("BM_Elbtunnel/" + solver).c_str(),
        [solver](benchmark::State& state) {
          BM_Solve(state, solver, tunnel);
        });
    benchmark::RegisterBenchmark(
        ("BM_Rosenbrock/" + solver).c_str(),
        [solver](benchmark::State& state) {
          BM_Solve(state, solver, valley);
        });
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
