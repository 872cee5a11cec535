// One const Study shared by several threads: every built-in engine must give
// each thread exactly the results a serial run gives (the Study and its
// engines are immutable once built, and keep all scratch state per call).
// Run under ThreadSanitizer by the CI's TSan leg (label `core`).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "safeopt/core/study.h"
#include "safeopt/ftio/study_document.h"

namespace safeopt::core {
namespace {

/// Two independent 4-leaf subsystems (modules for the bdd engine) and
/// one shared constant leaf, under the given `engine` statement.
std::string document(const std::string& engine) {
  return R"(
param p in [0.01, 0.2];
param q in [0.01, 0.2];

tree T;
toplevel top;
top or pumps valves c;
pumps or a12 a34;
a12 and a1 a2;
a34 and a3 a4;
valves and b12 b34;
b12 or b1 b2;
b34 or b3 b4;
a1 prob = p;
a2 prob = 0.5 * p;
a3 prob = q;
a4 prob = 2 * q;
b1 prob = p;
b2 prob = q;
b3 prob = 0.3;
b4 prob = p + q;
c prob = 0.001;

hazard T cost = 100;
)" + engine + ";\n";
}

std::vector<expr::ParameterAssignment> points() {
  std::vector<expr::ParameterAssignment> out;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      expr::ParameterAssignment at;
      at.set("p", 0.01 + 0.05 * i);
      at.set("q", 0.02 + 0.04 * j);
      out.push_back(at);
    }
  }
  return out;
}

void expect_same_bits(const QuantificationResult& a,
                      const QuantificationResult& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.probability),
            std::bit_cast<std::uint64_t>(b.probability));
  EXPECT_EQ(a.trials, b.trials);
  ASSERT_EQ(a.ci95.has_value(), b.ci95.has_value());
  if (a.ci95.has_value()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ci95->lo),
              std::bit_cast<std::uint64_t>(b.ci95->lo));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ci95->hi),
              std::bit_cast<std::uint64_t>(b.ci95->hi));
  }
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.diagnostics, b.diagnostics);
}

TEST(StudyThreadsTest, ConstStudyQuantifiesFromFourThreadsLikeASerialRun) {
  constexpr std::size_t kThreads = 4;
  const std::vector<expr::ParameterAssignment> at = points();
  for (const std::string engine :
       {"engine fta", "engine bdd",
        "engine mc trials = 20000",
        "engine mc_adaptive trials = 20000 batch = 4096"}) {
    SCOPED_TRACE(engine);
    const Study study =
        Study::from_document(ftio::parse_study(document(engine)));
    std::vector<QuantificationResult> serial;
    for (const expr::ParameterAssignment& point : at) {
      serial.push_back(study.quantify("T", point));
    }

    std::vector<std::vector<QuantificationResult>> parallel(
        kThreads, std::vector<QuantificationResult>(at.size()));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread walks the points from its own offset, so different
        // threads quantify different points at the same time.
        for (std::size_t k = 0; k < at.size(); ++k) {
          const std::size_t i = (k + t * at.size() / kThreads) % at.size();
          parallel[t][i] = study.quantify("T", at[i]);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t i = 0; i < at.size(); ++i) {
        expect_same_bits(parallel[t][i], serial[i]);
      }
    }
  }
}

TEST(StudyThreadsTest, ConcurrentRunAndQuantifyMatchSerialResults) {
  const Study study =
      Study::from_document(ftio::parse_study(document("engine bdd")));
  const SafetyOptimizationResult serial_run = study.run();
  const expr::ParameterAssignment& optimum = serial_run.optimal_parameters;
  const QuantificationResult serial_quantify = study.quantify("T", optimum);

  SafetyOptimizationResult parallel_run;
  QuantificationResult parallel_quantify;
  std::thread runner([&] { parallel_run = study.run(); });
  std::thread quantifier(
      [&] { parallel_quantify = study.quantify("T", optimum); });
  runner.join();
  quantifier.join();

  EXPECT_EQ(parallel_run.optimization.argmin, serial_run.optimization.argmin);
  EXPECT_EQ(parallel_run.optimization.evaluations,
            serial_run.optimization.evaluations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel_run.cost),
            std::bit_cast<std::uint64_t>(serial_run.cost));
  expect_same_bits(parallel_quantify, serial_quantify);
}

}  // namespace
}  // namespace safeopt::core
