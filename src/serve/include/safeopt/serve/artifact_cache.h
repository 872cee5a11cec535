// ArtifactCache — the immutable-artifact store behind the analysis-pass
// graph (analysis_graph.h). Every pass output (parsed document, compiled
// study, quantification outcome) is cached under a content-derived key:
//
//   <pass>:<canonical document hash>[:<option fingerprint>...]
//
// so repeated requests over the same document amortize everything up to the
// first pass whose inputs actually changed.
//
// Two policies, both enforced here so the passes stay policy-free:
//   * byte-budget LRU: artifacts carry a size estimate; inserting past the
//     budget evicts least-recently-used entries (never the one just
//     inserted). Artifacts larger than the whole budget are returned but
//     not stored.
//   * single-flight: N concurrent requests for the same missing key run
//     ONE factory; the rest block on its completion and share the result.
//     A deterministic factory failure propagates to every waiter and caches
//     nothing — but an outcome tainted by the leader's own request control
//     (share=false, or a thrown deadline/cancellation Error) is never handed
//     to waiters: they retry the lookup and run their own factory.
//
// Values are type-erased shared_ptr<const void>; callers use the typed
// get_as<T> wrapper. Thread-safe; factories run outside the cache lock.
#ifndef SAFEOPT_SERVE_ARTIFACT_CACHE_H
#define SAFEOPT_SERVE_ARTIFACT_CACHE_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "safeopt/support/mutex.h"
#include "safeopt/support/thread_annotations.h"

namespace safeopt::serve {

/// One pass artifact as the factory hands it back.
struct CacheEntry {
  std::shared_ptr<const void> value;
  /// Estimated footprint, charged against the byte budget.
  std::size_t bytes = 0;
  /// When false the value is handed to the caller (and any single-flight
  /// waiters) but not stored — e.g. a degraded outcome whose diagnostics
  /// must reach the requester but should not be replayed from cache.
  bool store = true;
  /// When false the value is valid only for the request whose factory ran
  /// (its deadline fired / its client vanished mid-computation): waiters
  /// joined on the flight discard it and recompute under their own control.
  /// Implies nothing about `store` — callers set both.
  bool share = true;
};

/// Hit/miss counters, global and per pass (the key's ":"-prefix).
struct CachePassStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Requests that joined an in-flight computation instead of starting one.
  std::uint64_t single_flight_waits = 0;
  /// Waits that could not adopt the leader's outcome (it was tainted by the
  /// leader's own deadline/cancellation) and retried the lookup.
  std::uint64_t single_flight_reruns = 0;
  std::uint64_t evictions = 0;
  std::size_t bytes_in_use = 0;
  std::size_t entries = 0;
  std::size_t byte_budget = 0;
  std::map<std::string, CachePassStats> passes;
};

class ArtifactCache {
 public:
  using Factory = std::function<CacheEntry()>;

  explicit ArtifactCache(std::size_t byte_budget);

  /// Returns the cached value for `key`, or runs `make` (single-flight) and
  /// caches its result. Exceptions from `make` propagate to the caller and
  /// — unless they are the leader's own deadline/cancellation — to every
  /// waiter joined on the same computation; nothing is cached. Waiters never
  /// adopt a control-tainted outcome (share=false or deadline/cancel throw):
  /// they retry and compute under their own request's control.
  std::shared_ptr<const void> get_or_compute(const std::string& key,
                                             const Factory& make);

  /// Typed wrapper; T must be the type the factory stored under this key.
  template <typename T, typename Make>
  std::shared_ptr<const T> get_as(const std::string& key, Make&& make) {
    return std::static_pointer_cast<const T>(
        get_or_compute(key, std::forward<Make>(make)));
  }

  [[nodiscard]] CacheStats stats() const;

  /// Drops every stored entry (in-flight computations are unaffected).
  void clear();

 private:
  struct Stored {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru;  // position in lru_ (front = MRU)
  };
  struct InFlight {
    Mutex mutex;
    std::condition_variable done_cv;
    bool done SAFEOPT_GUARDED_BY(mutex) = false;
    /// False when the leader's outcome (value or error) is specific to its
    /// own request control; waiters then retry instead of adopting it.
    bool shared SAFEOPT_GUARDED_BY(mutex) = true;
    std::shared_ptr<const void> value SAFEOPT_GUARDED_BY(mutex);
    /// A copy of the leader's shareable error, never the object the leader
    /// rethrows; each waiter rethrows a copy of its own. Null when the
    /// error is control-tainted (waiters rerun instead).
    std::exception_ptr error SAFEOPT_GUARDED_BY(mutex);
  };

  void evict_over_budget_locked(const std::string& keep)
      SAFEOPT_REQUIRES(mutex_);
  void record_locked(const std::string& key, bool hit)
      SAFEOPT_REQUIRES(mutex_);

  const std::size_t byte_budget_;
  mutable Mutex mutex_;
  std::map<std::string, Stored> entries_ SAFEOPT_GUARDED_BY(mutex_);
  /// front = most recently used
  std::list<std::string> lru_ SAFEOPT_GUARDED_BY(mutex_);
  std::map<std::string, std::shared_ptr<InFlight>> in_flight_
      SAFEOPT_GUARDED_BY(mutex_);
  CacheStats stats_ SAFEOPT_GUARDED_BY(mutex_);
};

}  // namespace safeopt::serve

#endif  // SAFEOPT_SERVE_ARTIFACT_CACHE_H
