#include "safeopt/serve/artifact_cache.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "safeopt/ftio/parser.h"
#include "safeopt/support/error.h"

namespace safeopt::serve {
namespace {

/// True for exceptions that only make sense for the request whose control
/// raised them — the leader's expired deadline or vanished client says
/// nothing about the computation itself, so waiters must not inherit it.
bool control_tainted(const std::exception_ptr& error) {
  if (!error) return false;
  try {
    std::rethrow_exception(error);
  } catch (const Error& e) {
    return e.category() == ErrorCategory::kDeadlineExceeded ||
           e.category() == ErrorCategory::kCancelled;
  } catch (...) {
    return false;
  }
}

/// A fresh copy of the exception behind `error`, of the same type for every
/// type the passes throw and the server tells apart. The leader and each
/// waiter rethrow their own object: a shared exception object, and the
/// message buffer libstdc++'s std::runtime_error shares between copies, are
/// freed by whichever thread drops the last reference, through refcounts in
/// the (uninstrumented) C++ runtime. ThreadSanitizer cannot order such a
/// free against another thread still reading the message, so every copy
/// below gets a message buffer of its own.
std::exception_ptr copy_error(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const ftio::ParseError& e) {
    ftio::ParseError copy(e);
    static_cast<std::runtime_error&>(copy) =
        std::runtime_error(std::string(e.what()));
    return std::make_exception_ptr(std::move(copy));
  } catch (const Error& e) {
    return std::make_exception_ptr(
        Error(e.category(), std::string(e.what())));
  } catch (const std::invalid_argument& e) {
    return std::make_exception_ptr(
        std::invalid_argument(std::string(e.what())));
  } catch (const std::exception& e) {
    return std::make_exception_ptr(std::runtime_error(std::string(e.what())));
  } catch (...) {
    return std::make_exception_ptr(
        std::runtime_error("unknown exception in a shared computation"));
  }
}

}  // namespace

ArtifactCache::ArtifactCache(std::size_t byte_budget)
    : byte_budget_(byte_budget) {
  // No concurrency yet; locking keeps the declared discipline uniform.
  const MutexLock lock(mutex_);
  stats_.byte_budget = byte_budget;
}

void ArtifactCache::record_locked(const std::string& key, bool hit) {
  const std::size_t colon = key.find(':');
  CachePassStats& pass =
      stats_.passes[key.substr(0, colon == std::string::npos ? key.size()
                                                             : colon)];
  if (hit) {
    ++stats_.hits;
    ++pass.hits;
  } else {
    ++stats_.misses;
    ++pass.misses;
  }
}

void ArtifactCache::evict_over_budget_locked(const std::string& keep) {
  while (stats_.bytes_in_use > byte_budget_ && !lru_.empty()) {
    // Never evict the entry we are inserting for, even when it alone blows
    // the budget — the caller is about to use it.
    std::string victim = lru_.back();
    if (victim == keep) break;
    lru_.pop_back();
    const auto found = entries_.find(victim);
    stats_.bytes_in_use -= found->second.bytes;
    entries_.erase(found);
    ++stats_.evictions;
  }
}

std::shared_ptr<const void> ArtifactCache::get_or_compute(
    const std::string& key, const Factory& make) {
  for (;;) {
    std::shared_ptr<InFlight> flight;
    bool leader = false;
    {
      const MutexLock lock(mutex_);
      const auto found = entries_.find(key);
      if (found != entries_.end()) {
        lru_.splice(lru_.begin(), lru_, found->second.lru);  // touch
        record_locked(key, true);
        return found->second.value;
      }
      const auto racing = in_flight_.find(key);
      if (racing != in_flight_.end()) {
        flight = racing->second;
        ++stats_.single_flight_waits;
      } else {
        flight = std::make_shared<InFlight>();
        in_flight_.emplace(key, flight);
        leader = true;
        record_locked(key, false);
      }
    }

    if (!leader) {
      bool rerun = false;
      std::shared_ptr<const void> value;
      std::exception_ptr error;
      {
        MutexLock lock(flight->mutex);
        while (!flight->done) lock.wait(flight->done_cv);
        if (!flight->shared) {
          // The leader's outcome is valid only under its own request
          // control (deadline fired / client vanished); retry as an
          // innocent request.
          rerun = true;
        } else {
          value = flight->value;
          if (flight->error) error = copy_error(flight->error);
        }
      }
      if (rerun) {
        const MutexLock lock(mutex_);
        ++stats_.single_flight_reruns;
        continue;
      }
      if (error) std::rethrow_exception(error);
      return value;
    }

    CacheEntry entry;
    std::exception_ptr error;
    try {
      entry = make();
    } catch (...) {
      error = std::current_exception();
    }
    const bool shareable =
        error ? !control_tainted(error) : entry.share;

    {
      const MutexLock lock(mutex_);
      in_flight_.erase(key);
      // A factory that succeeded may still opt out of storage; one that
      // threw or produced an artifact larger than the whole budget never
      // stores.
      if (!error && entry.store && entry.bytes <= byte_budget_) {
        lru_.push_front(key);
        Stored stored;
        stored.value = entry.value;
        stored.bytes = entry.bytes;
        stored.lru = lru_.begin();
        entries_.emplace(key, std::move(stored));
        stats_.bytes_in_use += entry.bytes;
        evict_over_budget_locked(key);
      }
    }
    {
      const MutexLock lock(flight->mutex);
      flight->done = true;
      flight->shared = shareable;
      flight->value = entry.value;
      // An unshareable error stays with the leader; a shared one is
      // published as a copy, so no waiter touches the object the leader
      // is about to rethrow.
      if (error && shareable) flight->error = copy_error(error);
    }
    flight->done_cv.notify_all();
    if (error) std::rethrow_exception(error);
    return entry.value;
  }
}

CacheStats ArtifactCache::stats() const {
  const MutexLock lock(mutex_);
  CacheStats out = stats_;
  out.entries = entries_.size();
  return out;
}

void ArtifactCache::clear() {
  const MutexLock lock(mutex_);
  entries_.clear();
  lru_.clear();
  stats_.bytes_in_use = 0;
}

}  // namespace safeopt::serve
