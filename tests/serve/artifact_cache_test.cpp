// ArtifactCache contract tests: byte-budget LRU, single-flight dedup, the
// store=false escape hatch, and per-pass hit/miss accounting — the policies
// every analysis pass relies on without re-implementing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "safeopt/ftio/parser.h"
#include "safeopt/serve/artifact_cache.h"
#include "safeopt/support/error.h"

namespace safeopt::serve {
namespace {

CacheEntry int_entry(int value, std::size_t bytes, bool store = true) {
  return CacheEntry{std::make_shared<const int>(value), bytes, store};
}

TEST(ArtifactCacheTest, HitReturnsTheStoredValueWithoutRerunningTheFactory) {
  ArtifactCache cache(1024);
  int runs = 0;
  const auto make = [&] {
    ++runs;
    return int_entry(41, 100);
  };
  EXPECT_EQ(*cache.get_as<int>("parse:a", make), 41);
  EXPECT_EQ(*cache.get_as<int>("parse:a", make), 41);
  EXPECT_EQ(runs, 1);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes_in_use, 100u);
}

TEST(ArtifactCacheTest, EvictsLeastRecentlyUsedPastTheByteBudget) {
  ArtifactCache cache(300);
  (void)cache.get_as<int>("compile:a", [] { return int_entry(1, 100); });
  (void)cache.get_as<int>("compile:b", [] { return int_entry(2, 100); });
  (void)cache.get_as<int>("compile:c", [] { return int_entry(3, 100); });
  // Touch `a` so `b` is the least recently used.
  (void)cache.get_as<int>("compile:a", [] { return int_entry(-1, 100); });

  // Inserting d (100 bytes) pushes past 300 → evicts exactly `b`.
  (void)cache.get_as<int>("compile:d", [] { return int_entry(4, 100); });
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes_in_use, 300u);

  // a, c, d must all still be present (hits never evict, so probe them
  // before re-inserting anything).
  int rebuilds = 0;
  for (const char* key : {"compile:a", "compile:c", "compile:d"}) {
    (void)cache.get_as<int>(key, [&] {
      ++rebuilds;
      return int_entry(0, 100);
    });
  }
  EXPECT_EQ(rebuilds, 0) << "only `b` should have been evicted";
  EXPECT_EQ(*cache.get_as<int>("compile:b",
                               [&] {
                                 ++rebuilds;
                                 return int_entry(2, 100);
                               }),
            2);
  EXPECT_EQ(rebuilds, 1) << "evicted entry must be recomputed";
}

TEST(ArtifactCacheTest, NeverEvictsTheEntryJustInserted) {
  ArtifactCache cache(100);
  // 100-byte artifact exactly fills the budget; inserting another evicts
  // the first, not the newcomer.
  (void)cache.get_as<int>("bdd:a", [] { return int_entry(1, 100); });
  (void)cache.get_as<int>("bdd:b", [] { return int_entry(2, 100); });
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  int runs = 0;
  EXPECT_EQ(*cache.get_as<int>("bdd:b",
                               [&] {
                                 ++runs;
                                 return int_entry(2, 100);
                               }),
            2);
  EXPECT_EQ(runs, 0) << "the newest entry must have survived";
}

TEST(ArtifactCacheTest, ArtifactsLargerThanTheBudgetAreReturnedNotStored) {
  ArtifactCache cache(100);
  EXPECT_EQ(*cache.get_as<int>("parse:big", [] { return int_entry(7, 500); }),
            7);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);
}

TEST(ArtifactCacheTest, StoreFalseEntriesAreNotCached) {
  ArtifactCache cache(1024);
  int runs = 0;
  const auto make = [&] {
    ++runs;
    return int_entry(9, 10, /*store=*/false);
  };
  EXPECT_EQ(*cache.get_as<int>("quantify:aborted", make), 9);
  EXPECT_EQ(*cache.get_as<int>("quantify:aborted", make), 9);
  EXPECT_EQ(runs, 2) << "non-reusable outcomes must be recomputed";
  EXPECT_EQ(cache.stats().entries, 0u);
}

/// Spins inside a factory until `waiters` other requests have joined the
/// flight (so the single-flight wait path is actually taken), bounded at
/// 5 s. Gating on the cache's own counter, not on a count the threads bump
/// before calling get_as, means a thread that has not joined yet cannot be
/// mistaken for a waiter.
void await_waiters(const ArtifactCache& cache, std::uint64_t waiters = 1) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cache.stats().single_flight_waits < waiters &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ArtifactCacheTest, SingleFlightRunsOneFactoryForConcurrentRequests) {
  ArtifactCache cache(1 << 20);
  constexpr int kThreads = 8;
  std::atomic<int> factory_runs{0};

  // The factory holds the flight open until every other thread has joined
  // it, so all non-leaders take the single-flight wait path.
  const auto make = [&] {
    factory_runs.fetch_add(1);
    await_waiters(cache, kThreads - 1);
    return int_entry(123, 64);
  };

  std::vector<std::thread> threads;
  std::vector<int> results(kThreads, 0);
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[i] = *cache.get_as<int>("compile:shared", make);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(factory_runs.load(), 1);
  for (const int value : results) EXPECT_EQ(value, 123);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.single_flight_waits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ArtifactCacheTest, WaitersDoNotInheritTheLeadersDeadlineFailure) {
  ArtifactCache cache(1024);
  std::atomic<int> runs{0};

  std::thread leader([&] {
    try {
      (void)cache.get_or_compute("quantify:k", [&]() -> CacheEntry {
        runs.fetch_add(1);
        await_waiters(cache);
        throw Error(ErrorCategory::kDeadlineExceeded,
                    "the leader's own deadline fired");
      });
      ADD_FAILURE() << "the leader must see its own deadline error";
    } catch (const Error& error) {
      EXPECT_EQ(error.category(), ErrorCategory::kDeadlineExceeded);
    }
  });

  // Join the leader's flight, then — because its failure is specific to its
  // own request control — rerun the computation instead of adopting it.
  while (runs.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto value = cache.get_as<int>("quantify:k", [&] {
    runs.fetch_add(1);
    return int_entry(7, 8);
  });
  leader.join();

  EXPECT_EQ(*value, 7) << "the waiter must get a cleanly computed value";
  EXPECT_EQ(runs.load(), 2);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.single_flight_waits, 1u);
  EXPECT_EQ(stats.single_flight_reruns, 1u);
}

TEST(ArtifactCacheTest, WaitersDoNotAdoptShareFalseOutcomes) {
  ArtifactCache cache(1024);
  std::atomic<int> runs{0};

  std::thread leader([&] {
    const auto value = cache.get_as<int>("optimize:k", [&] {
      runs.fetch_add(1);
      await_waiters(cache);
      // An aborted best-so-far outcome: valid for the leader, nobody else.
      CacheEntry entry = int_entry(1, 8, /*store=*/false);
      entry.share = false;
      return entry;
    });
    EXPECT_EQ(*value, 1) << "the leader still gets its own outcome";
  });

  while (runs.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto value = cache.get_as<int>("optimize:k", [&] {
    runs.fetch_add(1);
    return int_entry(2, 8);
  });
  leader.join();

  EXPECT_EQ(*value, 2) << "the waiter must recompute under its own control";
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(cache.stats().single_flight_reruns, 1u);
}

TEST(ArtifactCacheTest, FactoryFailurePropagatesToWaitersAndCachesNothing) {
  ArtifactCache cache(1024);
  EXPECT_THROW((void)cache.get_or_compute(
                   "compile:boom",
                   []() -> CacheEntry {
                     throw std::runtime_error("factory exploded");
                   }),
               std::runtime_error);
  // The key is not poisoned: a later, working factory runs fine.
  EXPECT_EQ(*cache.get_as<int>("compile:boom", [] { return int_entry(5, 8); }),
            5);
}

TEST(ArtifactCacheTest, WaitersOfASharedErrorEachGetTheSameError) {
  // A deterministic failure reaches every waiter with its type and details
  // intact: a parse error stays a ParseError (the server answers 400 for
  // it, not 500), and each thread rethrows its own copy of it.
  ArtifactCache cache(1024);
  constexpr int kThreads = 4;
  std::atomic<int> runs{0};
  const auto make = [&]() -> CacheEntry {
    runs.fetch_add(1);
    await_waiters(cache, kThreads - 1);
    throw ftio::ParseError(3, 7, "unexpected token");
  };

  std::vector<std::thread> threads;
  std::vector<std::string> messages(kThreads);
  std::vector<std::size_t> lines(kThreads, 0);
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      try {
        (void)cache.get_or_compute("parse:bad", make);
      } catch (const ftio::ParseError& error) {
        messages[i] = error.what();
        lines[i] = error.line();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(runs.load(), 1);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(lines[i], 3u) << "thread " << i;
    EXPECT_EQ(messages[i], messages[0]) << "thread " << i;
  }
  EXPECT_NE(messages[0].find("unexpected token"), std::string::npos);
  EXPECT_EQ(cache.stats().single_flight_waits,
            static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ArtifactCacheTest, SharedErrorKeepsItsCategory) {
  ArtifactCache cache(1024);
  std::atomic<int> runs{0};
  std::thread leader([&] {
    EXPECT_THROW((void)cache.get_or_compute("compile:big",
                                            [&]() -> CacheEntry {
                                              runs.fetch_add(1);
                                              await_waiters(cache);
                                              throw Error(
                                                  ErrorCategory::
                                                      kResourceExhausted,
                                                  "node budget");
                                            }),
                 Error);
  });
  while (runs.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  try {
    (void)cache.get_or_compute("compile:big", [&]() -> CacheEntry {
      runs.fetch_add(1);
      return int_entry(1, 8);
    });
    ADD_FAILURE() << "a budget failure is shared with waiters";
  } catch (const Error& error) {
    EXPECT_EQ(error.category(), ErrorCategory::kResourceExhausted);
    EXPECT_STREQ(error.what(), "node budget");
  }
  leader.join();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(cache.stats().single_flight_reruns, 0u);
}

TEST(ArtifactCacheTest, TracksHitsAndMissesPerPassPrefix) {
  ArtifactCache cache(1 << 20);
  (void)cache.get_as<int>("parse:x", [] { return int_entry(1, 8); });
  (void)cache.get_as<int>("parse:x", [] { return int_entry(1, 8); });
  (void)cache.get_as<int>("compile:x:fp", [] { return int_entry(2, 8); });
  const CacheStats stats = cache.stats();
  ASSERT_EQ(stats.passes.count("parse"), 1u);
  ASSERT_EQ(stats.passes.count("compile"), 1u);
  EXPECT_EQ(stats.passes.at("parse").hits, 1u);
  EXPECT_EQ(stats.passes.at("parse").misses, 1u);
  EXPECT_EQ(stats.passes.at("compile").hits, 0u);
  EXPECT_EQ(stats.passes.at("compile").misses, 1u);
}

TEST(ArtifactCacheTest, ClearDropsEverythingButKeepsCounters) {
  ArtifactCache cache(1024);
  (void)cache.get_as<int>("parse:x", [] { return int_entry(1, 8); });
  cache.clear();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);
  EXPECT_EQ(stats.misses, 1u);
}

}  // namespace
}  // namespace safeopt::serve
