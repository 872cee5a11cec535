// Heap-allocation ceilings of the exact quantify path, counted through a
// replacement of the global operator new. The replacement is program-wide,
// which is why these tests have an executable of their own.
//
// Parsing the 1k corpus tier may allocate once per leaf (its probability
// expression) plus a constant number of tables; a repeat quantify on the
// `bdd` engine may allocate a handful of per-call buffers, none per module;
// a repeat `mc` quantify a handful of per-call buffers, none per trial.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <new>
#include <string>

#include "safeopt/core/quantification_engine.h"
#include "safeopt/ftio/study_document.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The aligned and nothrow forms keep their library definitions; nothing
// measured here reaches them.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace safeopt {
namespace {

std::string corpus_1k_text() {
  std::ifstream file(std::string(SAFEOPT_SOURCE_DIR) +
                     "/examples/corpus/corpus_1k.ft");
  EXPECT_TRUE(file.good());
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

TEST(AllocationTest, ParsingTheCorpusTierAllocatesOncePerLeafPlusTables) {
  const std::string text = corpus_1k_text();
  const std::size_t before = g_allocations.load();
  const ftio::StudyDocument doc = ftio::parse_study(text);
  const std::size_t allocations = g_allocations.load() - before;

  ASSERT_EQ(doc.trees.size(), 1u);
  const std::size_t leaves = doc.trees.front().leaves.size();
  EXPECT_EQ(leaves, 1008u);
  EXPECT_LE(allocations, leaves + 64) << "leaves: " << leaves;
}

TEST(AllocationTest, RepeatBddQuantifyAllocatesNothingPerModule) {
  const ftio::StudyDocument doc = ftio::parse_study(corpus_1k_text());
  const ftio::TreeModel& model = doc.trees.front();
  const fta::QuantificationInput input = model.constant_input();
  const std::unique_ptr<core::QuantificationEngine> engine =
      core::EngineRegistry::create("bdd", model.tree, core::EngineConfig{});
  const double first = engine->quantify(input).probability;

  const std::size_t before = g_allocations.load();
  const core::QuantificationResult again = engine->quantify(input);
  const std::size_t allocations = g_allocations.load() - before;

  ASSERT_TRUE(again.preprocess.has_value());
  EXPECT_GT(again.preprocess->modules, 8u);
  EXPECT_LE(allocations, 8u);
  EXPECT_EQ(std::memcmp(&first, &again.probability, sizeof first), 0);
}

TEST(AllocationTest, RepeatMcQuantifyAllocatesNothingPerTrial) {
  const ftio::StudyDocument doc = ftio::parse_study(corpus_1k_text());
  const ftio::TreeModel& model = doc.trees.front();
  const fta::QuantificationInput input = model.constant_input();
  core::EngineConfig config;
  config.mc_trials = 2000;
  const std::unique_ptr<core::QuantificationEngine> engine =
      core::EngineRegistry::create("mc", model.tree, config);
  const core::QuantificationResult first = engine->quantify(input);

  const std::size_t before = g_allocations.load();
  const core::QuantificationResult again = engine->quantify(input);
  const std::size_t allocations = g_allocations.load() - before;

  EXPECT_EQ(again.trials, 2000u);
  EXPECT_LE(allocations, 16u);
  EXPECT_EQ(std::memcmp(&first.probability, &again.probability,
                        sizeof first.probability),
            0);
  ASSERT_TRUE(first.ci95.has_value());
  ASSERT_TRUE(again.ci95.has_value());
  EXPECT_EQ(std::memcmp(&*first.ci95, &*again.ci95, sizeof *first.ci95), 0);
}

}  // namespace
}  // namespace safeopt
