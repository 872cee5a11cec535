// Experiment: paper Fig. 5 — "The cost function around its minimum".
// Regenerates the surface f_cost(T1, T2) over T1 ∈ [15, 20] × T2 ∈ [15, 18]
// (the exact axes of the figure), prints it as CSV and as an ASCII relief,
// and reports the argmin found by grid zoom and by Nelder-Mead.
//
// Paper values to compare against: surface band ≈ 0.0046 .. 0.0047,
// minimum near (19, 15.6).
#include <cstdio>

#include "safeopt/elbtunnel/elbtunnel_model.h"
#include "safeopt/opt/problem.h"

int main() {
  using namespace safeopt;
  const elbtunnel::ElbtunnelModel model;
  core::Study study = model.study();
  const opt::Problem problem = study.problem();

  std::printf("=== Fig. 5: cost surface around the minimum ===\n\n");

  // The figure's plotting box, tabulated through the batched compiled path
  // (bitwise-identical to per-point recursive evaluation).
  opt::Problem figure_problem = problem;
  figure_problem.bounds = opt::Box({15.0, 15.0}, {20.0, 18.0});
  constexpr std::size_t kNx = 11;  // T1 axis
  constexpr std::size_t kNy = 13;  // T2 axis
  const opt::GridTable table = opt::tabulate_2d(figure_problem, kNx, kNy);

  std::printf("--- surface CSV (rows: T1, columns: T2) ---\nT1\\T2");
  for (std::size_t j = 0; j < table.ys.size(); ++j) {
    std::printf(",%.2f", table.ys[j]);
  }
  std::printf("\n");
  for (std::size_t i = 0; i < table.xs.size(); ++i) {
    std::printf("%.1f", table.xs[i]);
    for (std::size_t j = 0; j < table.ys.size(); ++j) {
      std::printf(",%.7f", table.value(i, j));
    }
    std::printf("\n");
  }

  // ASCII relief: darker = cheaper.
  double lo = table.values[0];
  double hi = table.values[0];
  for (const double v : table.values) {
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
  }
  std::printf("\n--- relief (#=minimum band, .=maximum band) ---\n");
  static constexpr char kShades[] = "#@*+=-:. ";
  for (std::size_t i = 0; i < table.xs.size(); ++i) {
    std::printf("T1=%4.1f | ", table.xs[i]);
    for (std::size_t j = 0; j < table.ys.size(); ++j) {
      const double t = (table.value(i, j) - lo) / (hi - lo);
      const auto shade = static_cast<std::size_t>(t * 8.0);
      std::putchar(kShades[shade > 8 ? 8 : shade]);
    }
    std::printf("\n");
  }
  std::printf("          T2 = %.1f .. %.1f ->\n\n", table.ys.front(),
              table.ys.back());

  const auto [gi, gj] = table.argmin();
  std::printf("grid argmin inside the figure box: T1=%.2f T2=%.2f cost=%.7f\n",
              table.xs[gi], table.ys[gj], table.value(gi, gj));
  std::printf("surface band: %.7f .. %.7f  (paper: ~0.0046 .. 0.0047)\n\n",
              lo, hi);

  const auto zoomed = study.solver("grid_search").run();
  const auto simplex = study.solver("multi_start").run();
  std::printf("full-box grid zoom:   T1=%.2f T2=%.2f cost=%.7f\n",
              zoomed.optimization.argmin[0], zoomed.optimization.argmin[1],
              zoomed.cost);
  std::printf("multi-start simplex:  T1=%.2f T2=%.2f cost=%.7f\n",
              simplex.optimization.argmin[0], simplex.optimization.argmin[1],
              simplex.cost);
  std::printf("paper:                T1=19    T2=15.6\n");
  return 0;
}
